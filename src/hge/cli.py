"""Command-line front door.

Subcommands wire the library into file pipelines:

    hge synth    --script S --out-left L.csv --out-right R.csv
    hge detect   --left L.csv --right R.csv [--config C] [--events E] [--report R]
    hge features --left L.csv --right R.csv --window-ms N [--config C]
    hge mlprep   --manifest M.csv --out D.csv [--config C]
    hge validate --left L.csv --right R.csv

Exit codes: 0 success (detect: stage completed), 1 usage error, 2 I/O or
parse error, 3 detect ran but the stage was not completed. The HGE_CONFIG
environment variable supplies a default --config path.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys

from .config import DEFAULT_CONFIG, EngineConfig, parse_config_text
from .errors import EngineError, InsufficientWindow
from .features import extract_feature_vector
from .frame_model import (
    Handedness,
    merge_hand_streams,
    parse_hand_csv,
    write_csv_stream,
)
from .mlprep import build_dataset, rows_to_csv
from .stage_detector import Verdict, detect_stage2, events_to_text
from .synth import generate, parse_script_text

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NOT_COMPLETED = 3


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; 2 is reserved for I/O and parse failures
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="hge", description="Two-hand frame-stream gesture engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[], help="generate a synthetic stream from a script")
    p.add_argument("--script", required=True)
    p.add_argument("--out-left", required=True)
    p.add_argument("--out-right", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("detect", help="run stage detection over a CSV pair")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--config")
    p.add_argument("--events", help="write the event stream to this file")
    p.add_argument("--report", help="write the report text to this file")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("features", help="print windowed feature vectors")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--window-ms", type=int, required=True)
    p.add_argument("--config")
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("mlprep", help="build a labeled feature dataset from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.set_defaults(func=_cmd_mlprep)

    p = sub.add_parser("validate", help="check that both CSV files parse and merge")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.set_defaults(func=_cmd_validate)

    return parser


def _read(path: str) -> str:
    """The file's UTF-8 text, newlines translated as text mode reads them."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except ValueError as exc:   # a NUL byte in a path read from a manifest
        raise EngineError(f"{path!r}: {exc}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise EngineError(f"{path}: line {line}: not UTF-8 text ({exc.reason})") from None
    if "\r" in text:    # a two-character replace scans slowly even when nothing matches
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _load_config(args) -> EngineConfig:
    path = getattr(args, "config", None) or os.environ.get("HGE_CONFIG")
    if not path:
        return DEFAULT_CONFIG
    text = _read(path)
    try:
        return parse_config_text(text)
    except EngineError as exc:
        raise EngineError(f"{path}: {exc}") from None


def _parse_pair(left_path: str, right_path: str):
    records = []
    for path, handedness in ((left_path, Handedness.LEFT), (right_path, Handedness.RIGHT)):
        text = _read(path)
        try:
            records.append(parse_hand_csv(text, handedness))
        except EngineError as exc:
            # the parser reports line numbers; prefix the offending file
            raise EngineError(f"{path}: {exc}") from None
    return merge_hand_streams(*records)


def _cmd_synth(args) -> int:
    text = _read(args.script)
    try:
        script = parse_script_text(text)
    except EngineError as exc:
        raise EngineError(f"{args.script}: {exc}") from None
    stream, _ = generate(script)
    left_text, right_text = write_csv_stream(stream)
    _write(args.out_left, left_text)
    _write(args.out_right, right_text)
    print(f"wrote {len(stream.frames)} frames to {args.out_left} and {args.out_right}")
    return EXIT_OK


def _cmd_detect(args) -> int:
    config = _load_config(args)
    report = detect_stage2(_parse_pair(args.left, args.right), config)
    text = report.to_text()
    sys.stdout.write(text)
    if args.report:
        _write(args.report, text)
    if args.events:
        _write(args.events, events_to_text(report.events))
    return EXIT_OK if report.verdict == Verdict.COMPLETED else EXIT_NOT_COMPLETED


def _cmd_features(args) -> int:
    config = _load_config(args)
    stream = _parse_pair(args.left, args.right)
    if args.window_ms <= 0:
        raise EngineError("--window-ms must be positive")
    frames = stream.frames
    i = 0
    while i < len(frames):
        # windows lie on a grid from the first frame; a window holding no frame is skipped
        index = (frames[i].timestamp - frames[0].timestamp) // args.window_ms
        start = frames[0].timestamp + index * args.window_ms
        end = start + args.window_ms
        window = stream.slice_ms(start, end)
        i += len(window.frames)
        try:
            v = extract_feature_vector(window, config)
            freq = "none" if v.movement_frequency_hz is None else f"{v.movement_frequency_hz:.3f}"
            ipd = "none" if v.inter_palm_distance_mm is None else f"{v.inter_palm_distance_mm:.1f}"
            shape_l = v.palm_shape_left.value if v.palm_shape_left else "none"
            shape_r = v.palm_shape_right.value if v.palm_shape_right else "none"
            print(
                f"window {index} {start} {end} orientation={v.palm_orientation.value}"
                f" shape_l={shape_l} shape_r={shape_r}"
                f" spread_l={v.finger_spread_left.value} spread_r={v.finger_spread_right.value}"
                f" trajectory={v.trajectory.value} freq_hz={freq} ipd_mm={ipd}"
                f" span_s={v.window_span_s:.2f}"
            )
        except InsufficientWindow as exc:
            print(f"window {index} {start} {end} insufficient: {exc}")
    return EXIT_OK


def _cmd_mlprep(args) -> int:
    config = _load_config(args)
    reader = csv.DictReader(io.StringIO(_read(args.manifest)))
    required = ("left_file", "right_file", "start_ms", "end_ms", "label")
    if reader.fieldnames is None or not set(required).issubset(reader.fieldnames):
        raise EngineError(f"{args.manifest}: manifest header must contain {sorted(required)}")
    base = os.path.dirname(os.path.abspath(args.manifest))
    streams = {}
    windows = []
    for row in reader:
        where = f"{args.manifest}: line {reader.line_num}"
        if any(row[key] is None for key in required):
            raise EngineError(f"{where}: expected a cell for each of {list(required)}")
        try:
            start, end = int(row["start_ms"]), int(row["end_ms"])
        except ValueError:
            raise EngineError(f"{where}: start_ms/end_ms must be integers") from None
        if not row["label"]:
            raise EngineError(f"{where}: empty label")
        pair = (row["left_file"], row["right_file"])
        if pair not in streams:
            streams[pair] = _parse_pair(*(os.path.join(base, name) for name in pair))
        windows.append((streams[pair].slice_ms(start, end), row["label"]))
    try:
        rows = build_dataset(windows, config)
    except EngineError as exc:
        raise EngineError(f"{args.manifest}: {exc}") from None
    _write(args.out, rows_to_csv(rows))
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    _parse_pair(args.left, args.right)
    print("ok")
    return EXIT_OK


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (EngineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
