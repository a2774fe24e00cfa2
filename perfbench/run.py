"""Benchmark of the hge engine.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from the repository root. Workloads (see workloads.py): live_replay,
batch_detect, feature_export, synth_write; `all` runs the four in turn.

With --trace 0 the run prints the end-to-end metrics of BENCHMARK.json.
set-up is measured from process start (interpreter, `import hge`, making
and writing the inputs) to the first timed operation, in three fresh
processes; the median is reported. All times are scaled to nominal machine
speed with the reference slice in workloads.py; the run record keeps the
times as measured and the slowness each was divided by. With --trace 1
the run prints the per-layer metrics: it times half the run untraced and
half with wrappers on the layer entry points, then runs one traced cycle
of every other workload so that each layer is covered, and measures
detector memory with tracemalloc over one 30 s session.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. `failed` counts operations that
raised or whose output disagrees with the ground truth. `correct` is false
when an output is malformed, inconsistent with itself, or differs between
runs of the same input, and when an input outside oracle.KNOWN_DEFECTS
disagrees with the ground truth. A run record (versions, machine, seed,
sha256 of every output, raw times) and, when traced, the spans are
written under .perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_RUNS = 3
RUN_LIMIT_S = 175            # a run, all its processes included, ends within this
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _benchmark():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# -- child: one process that sets up and (unless set-up only) measures -------

def _git_sha():
    try:
        # the ceiling keeps git from looking for a repository above the checkout
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _run_record(args):
    import platform
    import numpy
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def _state_peak_kib(session):
    import tracemalloc
    from hge.stage_detector import Stage2Detector
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        detector = Stage2Detector()
        for frame in session.stream.frames:
            detector.step(frame)
        detector.report()
        return tracemalloc.get_traced_memory()[1] / 1024.0
    finally:
        tracemalloc.stop()


def child(args):
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import resource
    import shutil

    import spans
    import workloads

    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        ctx = workloads.Context(str(workdir), args.seed)
        workload = workloads.WORKLOADS[args.workload]()
        workload.setup(ctx)
        raw_setup_s = time.monotonic() - args.t0
        setup_slowness = workloads.machine_slowness()
        setup_s = raw_setup_s / setup_slowness
        if args.role == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0
        raw = {"setup": {"seconds": raw_setup_s, "slowness": setup_slowness}}
        if args.trace:
            metrics = _traced(args, ctx, workload, workloads, spans, raw)
        else:
            tallies = workloads.run_cycles(workload, ctx, args.seconds)
            raw["cycles"] = [t.raw() for t in tallies]
            metrics = {
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "throughput_per_s": workloads.throughput_per_s(tallies),
                "op_ms_p50": workloads.latency_ms(tallies, 50),
                "op_ms_p90": workloads.latency_ms(tallies, 90),
                "ok_ratio": sum(ctx.input_ok.values()) / len(ctx.input_ok),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    digests = {"/".join(key): d for key, (d, _, _) in sorted(ctx.first.items())}
    unexpected = workloads.oracle.unexpected_failures(ctx.input_ok)
    result = {
        "correct": ctx.invalid == 0 and not unexpected and ctx.attempted > 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": metrics,
    }
    record = dict(_run_record(args), digests=digests,
                  outputs_sha256=workloads.oracle.digest(*digests.values()),
                  failed_inputs=sorted("/".join(k) for k, ok in ctx.input_ok.items() if not ok),
                  unexpected_failures=["/".join(k) for k in unexpected],
                  result=result, raw=raw)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"result": result, "outputs_sha256": record["outputs_sha256"],
                      "failed_inputs": record["failed_inputs"]}))
    return 0


def _traced(args, ctx, workload, workloads, spans, raw):
    """Per-layer metrics; see the module docstring for the run's shape."""
    half = args.seconds / 2.0
    plain = workloads.run_cycles(workload, ctx, half)
    raw["cycles_untraced"] = [t.raw() for t in plain]
    tracer = spans.Tracer()
    ctx.tracer = tracer
    restore = spans.install(tracer)
    live = workload
    try:
        traced = workloads.run_cycles(workload, ctx, half)
        raw["cycles_traced"] = [t.raw() for t in traced]
        for cls in workloads.WORKLOADS.values():
            if cls.name == workload.name:
                continue
            other = cls()
            ctx.tracer = None
            other.setup(ctx)
            ctx.tracer = tracer
            other.cycle(ctx, workloads.Tally())
            if cls.name == "live_replay":
                live = other
    finally:
        restore()
        ctx.tracer = None
    metrics = spans.layer_metrics(tracer)
    metrics["stage_detector.state_peak_kib"] = _state_peak_kib(live.longest())
    # in stream frames: the lag is a deterministic property of the inputs, not a wall-clock time
    lags = [lag_s * workloads.inputs.FPS for lag_s in ctx.lags.values()]
    metrics["stage_detector.verdict_lag_frames_mean"] = statistics.fmean(lags)
    metrics["stage_detector.verdict_lag_frames_max"] = max(lags)
    metrics["trace.overhead_ratio"] = workloads.throughput_per_s(plain) / workloads.throughput_per_s(traced)
    tracer.write(OUT_DIR / f"{args.workload}-seed{args.seed}-spans.csv")
    return metrics


# -- parent: spawns the children and prints the result ----------------------

def _spawn(args, workload, role, deadline):
    # no bytecode cache, so every set-up compiles hge the same way; fixed str hashing
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--role", role, "--t0", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=str(ROOT), text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"{workload}: {role} process timed out")
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: {role} process exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def measure(args, workload):
    """One workload's result, with set-up taken as the median over SETUP_RUNS processes."""
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = [] if args.trace else [_spawn(args, workload, "setup", deadline)["setup_s"]
                                    for _ in range(SETUP_RUNS - 1)]
    run = _spawn(args, workload, "measure", deadline)
    result = run["result"]
    if not args.trace:
        setups.append(result["metrics"]["setup_s"])
        result["metrics"]["setup_s"] = statistics.median(setups)
    declared = _benchmark()["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(result["metrics"]) != set(units):
        raise SystemExit(f"{workload}: metric names differ from BENCHMARK.json: {sorted(result['metrics'])}")
    for name, value in result["metrics"].items():
        if not isinstance(value, (int, float)) or value != value:
            raise SystemExit(f"{workload}: metric {name} was not measured")
    result["metrics"] = {k: {"value": result["metrics"][k], "unit": units[k]} for k in units}
    for name, m in result["metrics"].items():
        print(f"{workload:15s} {name:52s} {m['value']:14.6g} {m['unit']}")
    print(f"{workload:15s} attempted={result['attempted']} failed={result['failed']} correct={result['correct']}"
          f" outputs_sha256={run['outputs_sha256']}")
    if run["failed_inputs"]:
        print(f"{workload:15s} inputs disagreeing with the ground truth: {', '.join(run['failed_inputs'])}")
    return result


def main(argv=None):
    names = [w["name"] for w in _benchmark()["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("setup", "measure"), help=argparse.SUPPRESS)
    p.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.role:
        return child(args)
    if not (ROOT / "src" / "hge").is_dir():
        raise SystemExit(f"no hge sources under {ROOT / 'src'}")
    OUT_DIR.mkdir(exist_ok=True)
    if args.workload == "all":
        results = {w: measure(args, w) for w in names}
        print(json.dumps(results))
    else:
        print(json.dumps(measure(args, args.workload)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
