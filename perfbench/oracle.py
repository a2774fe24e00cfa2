"""Checks of the program's outputs against the ground truth in inputs.py.

Each check returns (valid, agrees):

* valid: the output is well formed and consistent with itself (a verdict
  line that matches the terminal event and the exit code, one feature line
  per window, one dataset row per manifest row). An invalid output makes
  the run incorrect.
* agrees: the output also matches the ground truth read off the script.
  A disagreement counts the operation as failed. It makes the run
  incorrect too, unless the input is one of KNOWN_DEFECTS: defects the
  program had when the benchmark was defined, which it keeps visible.
"""

from __future__ import annotations

import hashlib

import numpy as np

from hge.errors import EngineError
from hge.frame_model import parse_csv_stream
from inputs import ORIENTATION_CODE, ORIENTATION_NAME, window_truth

TERMINAL = {"Completed", "Failed"}

# Inputs whose output disagreed with the ground truth when the benchmark was
# defined. The walk-away session (a 4 s rub, then 20 s without hands) ends
# Failed stream_ended; by the paper's rule the rub completed.
KNOWN_DEFECTS = frozenset({("live_replay", "walkaway")})


def unexpected_failures(input_ok):
    """Inputs, outside KNOWN_DEFECTS, with a run that disagreed with the ground truth."""
    return sorted(key for key, ok in input_ok.items() if not ok and key not in KNOWN_DEFECTS)


def digest(*texts: str) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def report_verdict(report_text: str):
    first = report_text.split("\n", 1)[0].split()
    return first[1] if len(first) == 2 and first[0] == "verdict" else None


def terminal_event(events_text: str):
    """(timestamp_ms, name) of the last event, or None."""
    lines = [ln for ln in events_text.splitlines() if ln.strip()]
    if not lines:
        return None
    parts = lines[-1].split()
    if len(parts) < 2 or parts[1] not in TERMINAL:
        return None
    return int(parts[0]), parts[1]


def check_verdict(session, report_text: str, events_text: str, exit_code=None):
    """Detector output for one session; also returns the verdict lag in s (or None)."""
    verdict = report_verdict(report_text)
    term = terminal_event(events_text)
    valid = verdict is not None and term is not None
    if valid:
        valid = (verdict == "Completed") == (term[1] == "Completed")
    if valid and exit_code is not None:
        valid = exit_code == (0 if verdict == "Completed" else 3)
    if not valid:
        return False, False, None
    lag_s = (term[0] - session.settle_ms) / 1000.0
    return True, verdict == session.verdict, lag_s


def check_feature_lines(text: str, recording, expected_windows: int):
    """`hge features` lines: one per window; orientation matches every window lying inside one phase."""
    lines = text.splitlines()
    if len(lines) != expected_windows:
        return False, False
    agrees = True
    for k, line in enumerate(lines):
        parts = line.split()
        if len(parts) < 5 or parts[0] != "window" or parts[1] != str(k):
            return False, False
        start, end = int(parts[2]), int(parts[3])
        code = window_truth(recording, start, end)
        if code is None or parts[4] == "insufficient:":
            continue
        if parts[4] != f"orientation={ORIENTATION_NAME[code]}":
            agrees = False
    return True, agrees


def check_dataset(csv_text: str, manifest_rows):
    """`hge mlprep` CSV: one row per manifest row, in order, with the phase's orientation code."""
    lines = csv_text.splitlines()
    if len(lines) != len(manifest_rows) + 1 or not lines[0].startswith("sample_no,"):
        return False, False
    header = lines[0].split(",")
    i_orient, i_label = header.index("orient"), header.index("label")
    agrees = True
    for k, (line, (_, _, label)) in enumerate(zip(lines[1:], manifest_rows), start=1):
        cells = line.split(",")
        if len(cells) != len(header) or cells[0] != str(k) or cells[i_label] != label:
            return False, False
        if cells[i_orient] != str(ORIENTATION_CODE[label]):
            agrees = False
    return True, agrees


def _unit(v):
    return v / float(np.linalg.norm(v))


def streams_equal(a, b) -> bool:
    """Exact equality of stream b with stream a as ingest should return it.

    Every scalar must match bit for bit. Ingest renormalises each palm
    normal (validate_observation), which moves up to a few ulp, so b's
    normals are compared with a's normals divided by their norm.
    """
    if len(a.frames) != len(b.frames):
        return False
    for fa, fb in zip(a.frames, b.frames):
        if fa.timestamp != fb.timestamp or len(fa.hands) != len(fb.hands):
            return False
        for ha, hb in zip(sorted(fa.hands, key=lambda h: h.handedness.value),
                          sorted(fb.hands, key=lambda h: h.handedness.value)):
            if ha.handedness != hb.handedness or ha.grab_strength != hb.grab_strength:
                return False
            for x, y in ((ha.palm_position, hb.palm_position), (_unit(ha.palm_normal), hb.palm_normal),
                         (ha.palm_velocity, hb.palm_velocity)):
                if not np.array_equal(x, y):
                    return False
            for x, y in zip(ha.fingertips, hb.fingertips):
                if (x is None) != (y is None) or (x is not None and not np.array_equal(x, y)):
                    return False
    return True


def check_round_trip(left_text: str, right_text: str, expected_stream):
    """synth_write: parse(write(s)) == s, s generated from the same script."""
    try:
        parsed = parse_csv_stream(left_text, right_text)
    except EngineError:
        return False, False
    ok = streams_equal(expected_stream, parsed)
    return ok, ok
