"""The four closed-loop workloads: one operation at a time, in one thread.

Each workload writes its inputs in `setup` and runs one pass over them in
`cycle`. A run repeats whole cycles until its time is up, so every distinct
input is run equally often. Each operation is timed on its own; its output
is checked against the ground truth (in full the first time an input is
seen, by its sha256 digest after that).

    live_replay     frames held in memory, fed to Stage2Detector.step, then report();
                    one operation is a session, its latency the mean step time
    batch_detect    short CSV pairs on disk through `hge detect`, one session each
    feature_export  `hge features --window-ms 1500` over a 121 s recording and
                    `hge mlprep` over a manifest of 3 s windows drawn from it;
                    latency is per window or row
    synth_write     `hge synth` from script files, one session each
"""

from __future__ import annotations

import contextlib
import gc
import io
import os
import statistics
import sys
import time
import traceback

import numpy as np

import hge.cli
from hge.frame_model import write_csv_stream
from hge.stage_detector import Stage2Detector, events_to_text
from hge.synth import generate, parse_script_text

import inputs
import oracle


class Context:
    """Shared state of one run: work directory, tracer, and the tally of checked operations."""

    def __init__(self, workdir: str, seed: int):
        self.workdir = workdir
        self.seed = seed
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.invalid = 0
        self.first = {}        # input key -> (digest, valid, agrees) of its first run
        self.input_ok = {}     # input key -> every run of it agreed with the ground truth
        self.lags = {}         # live session key -> verdict lag in s

    def record(self, key, digest, valid=True, agrees=True):
        self.attempted += 1
        first = self.first.setdefault(key, (digest, valid, agrees))
        if first[0] != digest:          # the same input must give the same bytes every time
            valid = agrees = False
        else:
            valid, agrees = first[1], first[2]
        if not valid:
            self.invalid += 1
        if not (valid and agrees):
            self.failed += 1
        self.input_ok[key] = self.input_ok.get(key, True) and valid and agrees

    def raised(self, key):
        traceback.print_exc(file=sys.stderr)
        self.record(key, "raised", valid=False, agrees=False)

    def begin(self):
        if self.tracer is not None:
            self.tracer.session += 1

    def cli(self, argv):
        """`hge <argv>` in-process; returns (exit code, stdout text, elapsed ns)."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            start = time.perf_counter_ns()
            if self.tracer is None:
                code = hge.cli.run(argv)
            else:
                code = self.tracer.call("cli.run", hge.cli.run, (argv,), {})
            elapsed = time.perf_counter_ns() - start
        return code, buf.getvalue(), elapsed

    def path(self, *parts):
        return os.path.join(self.workdir, *parts)


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_pair(ctx, stem, stream):
    left, right = write_csv_stream(stream)
    _write(ctx.path(stem + "_left.csv"), left)
    _write(ctx.path(stem + "_right.csv"), right)
    return ctx.path(stem + "_left.csv"), ctx.path(stem + "_right.csv")


_REF = np.random.default_rng(0).normal(size=(64, 3))
_REF_X = np.arange(8.0)
NOMINAL_REF_NS = 3_000_000   # reference() on the 2-core VM the benchmark was defined on
REF_SHARE = 0.03             # reference work as a share of the timed work it follows


def reference() -> int:
    """Time, in ns, of a fixed slice of interpreter and small-array numpy work.

    On a shared 2-core VM, speed swings by up to 1.6x within seconds and
    between periods of minutes, and all code slows together: over 92 passes
    of live_replay with this slice run after every session, pass time and
    slice time correlated at 0.9. The cyclic collector is off while it runs,
    so objects the program keeps alive cannot slow it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter_ns()
        acc = 0.0
        for i in range(60):
            acc += float(np.linalg.norm(_REF[i % 64] - _REF[(i * 7) % 64]))
            acc += sum(x * 0.5 for x in (i, 1, 2, 3))
            np.polyfit(_REF_X, _REF[:8, 0], 1)
        return time.perf_counter_ns() - start
    finally:
        if enabled:
            gc.enable()


def machine_slowness(calls: int = 20) -> float:
    """How much slower than nominal the machine runs right now (1.0 = nominal)."""
    return sum(reference() for _ in range(calls)) / calls / NOMINAL_REF_NS


class Tally:
    """What one pass over the inputs measured: latency samples, work and busy time.

    After every operation a few reference() slices run, about REF_SHARE of
    the operation's time, outside its timing. Times are reported at nominal
    machine speed: divided by how much slower than nominal those slices ran
    in the same pass.
    """

    def __init__(self):
        self.samples = {}   # input key -> latency of its operation in ns (see the module docstring)
        self.units = 0      # frames, or windows and rows
        self.busy_ns = 0
        self.ref_ns = 0
        self.ref_calls = 0

    def add(self, key, sample_ns, units, busy_ns):
        self.samples[key] = sample_ns
        self.units += units
        self.busy_ns += busy_ns
        calls = max(1, round(REF_SHARE * busy_ns / NOMINAL_REF_NS))
        self.ref_ns += sum(reference() for _ in range(calls))
        self.ref_calls += calls

    def slowness(self):
        return self.ref_ns / self.ref_calls / NOMINAL_REF_NS

    def raw(self):
        """The pass as measured, before scaling to nominal speed, for the run record."""
        return {"units": self.units, "busy_ns": self.busy_ns,
                "slowness": self.slowness() if self.ref_calls else None,
                "samples_ns": {"/".join(k): ns for k, ns in self.samples.items()}}


class LiveReplay:
    name = "live_replay"

    def setup(self, ctx):
        self.sessions = [inputs.render(s) for s in inputs.live_sessions(ctx.seed)]

    def cycle(self, ctx, tally: Tally):
        for s in self.sessions:
            key = (self.name, s.name)
            ctx.begin()
            try:
                detector = Stage2Detector()
                samples = []
                for frame in s.stream.frames:
                    start = time.perf_counter_ns()
                    detector.step(frame)
                    samples.append(time.perf_counter_ns() - start)
                report = detector.report().to_text()
            except Exception:
                ctx.raised(key)
                continue
            busy = sum(samples)
            tally.add(key, busy / len(samples), len(samples), busy)
            events = events_to_text(detector.events)
            valid, agrees, lag = oracle.check_verdict(s, report, events)
            if lag is not None:
                ctx.lags.setdefault(key, lag)
            ctx.record(key, oracle.digest(report, events), valid, agrees)

    def longest(self):
        """The over-long rub, for the detector state measurement."""
        return next(s for s in self.sessions if s.kind == "overlong")


class BatchDetect:
    name = "batch_detect"

    def setup(self, ctx):
        os.makedirs(ctx.path("batch"), exist_ok=True)
        self.items = []
        for s in inputs.batch_sessions(ctx.seed):
            inputs.render(s)
            left, right = _write_pair(ctx, os.path.join("batch", s.name), s.stream)
            self.items.append((s, left, right, len(s.stream.frames)))
            s.stream = None
        self.report = ctx.path("batch", "report.txt")
        self.events = ctx.path("batch", "events.txt")

    def cycle(self, ctx, tally: Tally):
        for s, left, right, frames in self.items:
            key = (self.name, s.name)
            ctx.begin()
            argv = ["detect", "--left", left, "--right", right, "--events", self.events, "--report", self.report]
            try:
                code, _, elapsed = ctx.cli(argv)
                report, events = _read(self.report), _read(self.events)
            except Exception:
                ctx.raised(key)
                continue
            tally.add(key, elapsed, frames, elapsed)
            valid, agrees, _ = oracle.check_verdict(s, report, events, exit_code=code)
            ctx.record(key, oracle.digest(report, events), valid, agrees)


def _window_count(stream, window_ms):
    first, last = stream.frames[0].timestamp, stream.frames[-1].timestamp
    return (last - first) // window_ms + 1


class FeatureExport:
    name = "feature_export"

    def setup(self, ctx):
        os.makedirs(ctx.path("features"), exist_ok=True)
        self.recording = rec = inputs.feature_recording(ctx.seed)
        stream, _ = generate(rec.script)
        left, right = _write_pair(ctx, os.path.join("features", rec.name), stream)
        self.manifest_rows = inputs.mlprep_manifest(ctx.seed, rec)
        lines = ["left_file,right_file,start_ms,end_ms,label"]
        names = os.path.basename(left), os.path.basename(right)
        lines += [f"{names[0]},{names[1]},{start},{end},{label}" for start, end, label in self.manifest_rows]
        manifest = ctx.path("features", "manifest.csv")
        _write(manifest, "\n".join(lines) + "\n")
        self.dataset = ctx.path("features", "dataset.csv")
        self.jobs = [
            ("features", ["features", "--left", left, "--right", right,
                          "--window-ms", str(inputs.FEATURE_WINDOW_MS)],
             _window_count(stream, inputs.FEATURE_WINDOW_MS)),
            ("mlprep", ["mlprep", "--manifest", manifest, "--out", self.dataset], len(self.manifest_rows)),
        ]

    def cycle(self, ctx, tally: Tally):
        for job, argv, windows in self.jobs:
            key = (self.name, job)
            ctx.begin()
            try:
                code, text, elapsed = ctx.cli(argv)
                if job == "mlprep":
                    text = _read(self.dataset)
            except Exception:
                ctx.raised(key)
                continue
            tally.add(key, elapsed / windows, windows, elapsed)
            if code != 0:
                valid = agrees = False
            elif job == "mlprep":
                valid, agrees = oracle.check_dataset(text, self.manifest_rows)
            else:
                valid, agrees = oracle.check_feature_lines(text, self.recording, windows)
            ctx.record(key, oracle.digest(text), valid, agrees)


class SynthWrite:
    name = "synth_write"

    def setup(self, ctx):
        os.makedirs(ctx.path("synth"), exist_ok=True)
        self.jobs = []
        for k, text in enumerate(inputs.synth_scripts(ctx.seed)):
            script = ctx.path("synth", f"script{k:03d}.txt")
            _write(script, text)
            self.jobs.append((f"script{k:03d}", script, text))
        self.left = ctx.path("synth", "out_left.csv")
        self.right = ctx.path("synth", "out_right.csv")
        self.frames = {}

    def cycle(self, ctx, tally: Tally):
        for job, script, text in self.jobs:
            key = (self.name, job)
            ctx.begin()
            try:
                code, _, elapsed = ctx.cli(["synth", "--script", script, "--out-left", self.left,
                                            "--out-right", self.right])
                left, right = _read(self.left), _read(self.right)
                if job not in self.frames:
                    # the reference stream is made outside the timed call, by the library
                    expected, _ = generate(parse_script_text(text))
                    self.frames[job] = len(expected.frames)
                    valid, agrees = oracle.check_round_trip(left, right, expected)
                    valid = valid and code == 0
                else:
                    valid = agrees = True
            except Exception:
                ctx.raised(key)
                continue
            tally.add(key, elapsed, self.frames[job], elapsed)
            ctx.record(key, oracle.digest(left, right), valid, agrees)


WORKLOADS = {w.name: w for w in (LiveReplay, BatchDetect, FeatureExport, SynthWrite)}


def run_cycles(workload, ctx, seconds: float):
    """Whole cycles until `seconds` have passed; one Tally per cycle."""
    tallies = []
    start = time.perf_counter()
    while True:
        tallies.append(Tally())
        workload.cycle(ctx, tallies[-1])
        if time.perf_counter() - start >= seconds:
            return tallies


def throughput_per_s(tallies):
    """Units per busy second over all cycles, each cycle's busy time scaled by its slowness."""
    measured = [t for t in tallies if t.ref_calls]
    return sum(t.units for t in measured) / sum(t.busy_ns / 1e9 / t.slowness() for t in measured)


def latency_ms(tallies, q):
    """Percentile q over the inputs of each input's mean latency.

    Each run of an input is scaled by its own cycle's slowness. Averaging
    an input's runs first keeps the percentile on the inputs: live_replay's
    p50 falls between its cheap and its costly sessions, where a percentile
    of all runs pooled is set by the tail of one group.
    """
    runs = {}
    for t in tallies:
        for key, ns in t.samples.items():
            runs.setdefault(key, []).append(ns / 1e6 / t.slowness())
    return float(np.percentile([statistics.fmean(v) for v in runs.values()], q))
