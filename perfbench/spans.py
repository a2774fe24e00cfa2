"""Spans recorded from the benchmark's side of each layer boundary.

The traced run replaces the names the program looks up at call time (the
names `hge.cli`, `hge.stage_detector`, `hge.mlprep` and `hge.features`
import or define, and three methods) with timing wrappers. `install` returns the
function that puts the originals back; the untraced run never calls it, so
it runs the program unchanged.

A span is (name, start_ns, end_ns, parent, session, tag, units). `parent`
indexes the enclosing span or is -1; `units` is the work the call did
(records parsed, frames merged or written, rows built); `tag` carries the
detector phase of a step and the stream time since contact.
"""

from __future__ import annotations

import statistics
import time
import weakref
from collections import defaultdict

import hge.cli
import hge.features
import hge.frame_model
import hge.mlprep
import hge.stage_detector

NAME, START, END, PARENT, SESSION, TAG, UNITS = range(7)
PHASES = ("AwaitingTwoHands", "PalmsFacing", "Approaching", "ContactOccluded", "Rubbing")
RUB_EARLY_MS = 3000
RUB_LATE_MS = 20000


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.session = 0
        self.counts = defaultdict(int)

    def call(self, name, fn, args, kwargs, units=None, tag=None):
        index = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(index)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self.stack.pop()
            self.spans[index] = (name, start, end, parent, self.session, tag, 0)
        if units is not None:
            self.spans[index] = self.spans[index][:UNITS] + (units(args, result),)
        return result

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,parent,session,tag,units\n")
            for s in self.spans:
                tag = "" if s[TAG] is None else "/".join(str(x) for x in s[TAG])
                fh.write(f"{s[NAME]},{s[START]},{s[END]},{s[PARENT]},{s[SESSION]},{tag},{s[UNITS]}\n")


def _wrapper(tracer, name, fn, units=None):
    def wrapped(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, units)
    wrapped.__wrapped__ = fn
    return wrapped


def _step_wrapper(tracer, step):
    """Stage2Detector.step with the phase it started in and the useful share of estimate_frequency calls."""
    contact = weakref.WeakKeyDictionary()   # detector -> (contact_ts, surviving handedness)

    def wrapped(self, frame):
        phase = self.state.phase.value
        seen = contact.get(self)
        since = frame.timestamp - seen[0] if seen else -1
        calls = tracer.counts["features.estimate_frequency"]
        produced = tracer.call("stage_detector.step", step, (self, frame), {}, tag=(phase, since))
        made = tracer.counts["features.estimate_frequency"] - calls
        if seen and made and frame.hand(seen[1]) is not None:
            tracer.counts["features.estimate_frequency.new_sample"] += made
        for ev in produced:
            if ev.name == "ContactOccluded":
                contact[self] = (ev.timestamp_ms, frame.hands[0].handedness)
        return produced

    wrapped.__wrapped__ = step
    return wrapped


def _counting(tracer, name, fn):
    def wrapped(*args, **kwargs):
        tracer.counts[name] += 1
        return tracer.call(name, fn, args, kwargs)
    wrapped.__wrapped__ = fn
    return wrapped


def install(tracer: Tracer):
    """Wrap the program's layer entry points; returns a function that restores them."""
    records = lambda args, result: len(result)                    # noqa: E731
    merged = lambda args, result: len(result.frames)              # noqa: E731
    written = lambda args, result: len(args[0].frames)            # noqa: E731
    generated = lambda args, result: len(result[0].frames)        # noqa: E731
    plan = [
        (hge.cli, "parse_hand_csv", "frame_model.parse_hand_csv", records),
        (hge.frame_model, "parse_hand_csv", "frame_model.parse_hand_csv", records),
        (hge.cli, "merge_hand_streams", "frame_model.merge_hand_streams", merged),
        (hge.frame_model, "merge_hand_streams", "frame_model.merge_hand_streams", merged),
        (hge.frame_model.FrameStream, "slice_ms", "frame_model.slice_ms", None),
        (hge.cli, "write_csv_stream", "frame_model.write_csv_stream", written),
        (hge.cli, "generate", "synth.generate", generated),
        (hge.cli, "extract_feature_vector", "features.extract_feature_vector", None),
        (hge.mlprep, "extract_feature_vector", "features.extract_feature_vector", None),
        (hge.cli, "build_dataset", "mlprep.build_dataset", records),
        (hge.features, "palm_opposition", "features.palm_opposition", None),
        (hge.stage_detector, "palm_opposition", "features.palm_opposition", None),
        (hge.stage_detector.Stage2Detector, "report", "stage_detector.report", None),
    ]
    saved = []
    for owner, attr, name, units in plan:
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, _wrapper(tracer, name, original, units))
    original = hge.stage_detector.__dict__["estimate_frequency"]
    saved.append((hge.stage_detector, "estimate_frequency", original))
    hge.stage_detector.estimate_frequency = _counting(tracer, "features.estimate_frequency", original)
    original = hge.stage_detector.Stage2Detector.__dict__["step"]
    saved.append((hge.stage_detector.Stage2Detector, "step", original))
    hge.stage_detector.Stage2Detector.step = _step_wrapper(tracer, original)

    def restore():
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)
    return restore


def covered_ns(intervals) -> int:
    """Length of the union of (start, end) intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of it its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        inside = [(max(a, s[START]), min(b, s[END])) for a, b in children.get(i, ())]
        out.append((s[END] - s[START]) - covered_ns([(a, b) for a, b in inside if a < b]))
    return out


def _median_us(durations_ns):
    return statistics.median(durations_ns) / 1e3 if durations_ns else float("nan")


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics from the recorded spans and counts."""
    spans = tracer.spans
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[NAME]].append(i)

    def per(name, scale, by_units=False):
        """Total span time of `name` in units of `scale` ns, per call or per unit of work."""
        idx = by_name[name]
        count = sum(spans[i][UNITS] for i in idx) if by_units else len(idx)
        return sum(spans[i][END] - spans[i][START] for i in idx) / scale / count if count else float("nan")

    cli_runs = set(by_name["cli.run"])
    live_steps = [spans[i] for i in by_name["stage_detector.step"] if spans[i][PARENT] not in cli_runs]
    m = {}
    for phase in PHASES:
        m[f"stage_detector.step_us_p50.{phase}"] = _median_us(
            [s[END] - s[START] for s in live_steps if s[TAG][0] == phase])
    m["stage_detector.step_us_p50.rub_early"] = _median_us(
        [s[END] - s[START] for s in live_steps if 0 <= s[TAG][1] <= RUB_EARLY_MS])
    m["stage_detector.step_us_p50.rub_late"] = _median_us(
        [s[END] - s[START] for s in live_steps if s[TAG][1] > RUB_LATE_MS])
    durations = sorted(s[END] - s[START] for s in live_steps)
    m["stage_detector.step_us_p99"] = (statistics.quantiles(durations, n=100)[98] / 1e3
                                       if len(durations) >= 100 else float("nan"))
    in_detect = [i for name in ("stage_detector.step", "stage_detector.report")
                 for i in by_name[name] if spans[i][PARENT] in cli_runs]
    detect_frames = sum(1 for i in in_detect if spans[i][NAME] == "stage_detector.step")
    detect_ns = sum(spans[i][END] - spans[i][START] for i in in_detect)
    m["stage_detector.detect_us_per_frame"] = detect_ns / 1e3 / detect_frames if detect_frames else float("nan")
    all_steps = len(by_name["stage_detector.step"])
    calls = tracer.counts["features.estimate_frequency"]
    m["features.estimate_frequency_calls_per_frame"] = calls / all_steps if all_steps else float("nan")
    m["features.estimate_frequency_useful_ratio"] = (
        tracer.counts["features.estimate_frequency.new_sample"] / calls if calls else float("nan"))
    m["features.palm_opposition_us_per_call"] = per("features.palm_opposition", 1e3)
    m["features.extract_feature_vector_ms_per_window"] = per("features.extract_feature_vector", 1e6)
    m["frame_model.parse_hand_csv_us_per_record"] = per("frame_model.parse_hand_csv", 1e3, by_units=True)
    m["frame_model.merge_hand_streams_us_per_frame"] = per("frame_model.merge_hand_streams", 1e3, by_units=True)
    m["frame_model.slice_ms_us_per_window"] = per("frame_model.slice_ms", 1e3)
    m["frame_model.write_csv_stream_us_per_frame"] = per("frame_model.write_csv_stream", 1e3, by_units=True)
    m["synth.generate_us_per_frame"] = per("synth.generate", 1e3, by_units=True)
    rows = sum(spans[i][UNITS] for i in by_name["mlprep.build_dataset"])
    build_self = sum(selfs[i] for i in by_name["mlprep.build_dataset"])
    m["mlprep.build_dataset_self_ms_per_row"] = build_self / 1e6 / rows if rows else float("nan")
    commands = len(cli_runs)
    m["cli.self_ms_per_command"] = sum(selfs[i] for i in cli_runs) / 1e6 / commands if commands else float("nan")
    return m
