"""Two-hand frame-stream data model with CSV ingestion and export.

Per-hand records arrive as separate left/right CSV files sharing one clock;
`merge_hand_streams` aligns them into two-hand frames. Coordinate convention
(documented, not enforced): right-handed, y axis up away from the sensor,
origin at the sensor center, millimeters and mm/s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DuplicateHandedness,
    GrabOutOfRange,
    HeaderMismatch,
    MalformedRow,
    NonMonotonicTimestamp,
    NonUnitNormal,
)

FINGER_NAMES = ("thumb", "index", "middle", "ring", "pinky")

CSV_COLUMNS = (
    ("timestamp_ms",)
    + tuple(f"palm_{a}" for a in "xyz")
    + tuple(f"normal_{a}" for a in "xyz")
    + tuple(f"vel_{a}" for a in "xyz")
    + ("grab_strength",)
    + tuple(f"{f}_{a}" for f in FINGER_NAMES for a in "xyz")
)
CSV_HEADER = ",".join(CSV_COLUMNS)

NORMAL_TOLERANCE = 1e-3   # renormalize within this, reject beyond it
MERGE_WINDOW_MS = 5       # half the frame period at the slowest paper rate
NOMINAL_FPS_MIN = 50.0
NOMINAL_FPS_MAX = 200.0


class Handedness(str, Enum):
    LEFT = "Left"
    RIGHT = "Right"


@dataclass(eq=False)
class HandObservation:
    """One tracked hand in one frame. Positions in mm, velocity in mm/s."""

    handedness: Handedness
    palm_position: np.ndarray
    palm_normal: np.ndarray        # unit vector, orthogonal to the palm, pointing outward
    palm_velocity: np.ndarray
    grab_strength: float           # 0 fully flat .. 1 fully curled
    fingertips: tuple              # 5 entries thumb..pinky, np.ndarray or None when untracked


@dataclass(eq=False)
class Frame:
    """Timestamped set of 0-2 hand observations."""

    timestamp: int                 # ms since stream start
    hands: tuple = ()

    @property
    def hand_count(self) -> int:
        return len(self.hands)

    def hand(self, handedness: Handedness) -> Optional[HandObservation]:
        for obs in self.hands:
            if obs.handedness == handedness:
                return obs
        return None


@dataclass(eq=False)
class FrameStream:
    """Ordered frames plus the nominal sampling rate they were captured at."""

    frames: list
    nominal_fps: float = 100.0

    @property
    def duration_s(self) -> float:
        if len(self.frames) < 2:
            return 0.0
        return (self.frames[-1].timestamp - self.frames[0].timestamp) / 1000.0

    def slice_ms(self, start_ms: int, end_ms: int) -> "FrameStream":
        """Frames with start_ms <= timestamp < end_ms; fps label preserved."""
        picked = [f for f in self.frames if start_ms <= f.timestamp < end_ms]
        return FrameStream(picked, self.nominal_fps)


def validate_observation(obs: HandObservation) -> HandObservation:
    """Check one observation's invariants; renormalizes a near-unit palm normal."""
    if not 0.0 <= float(obs.grab_strength) <= 1.0:
        raise GrabOutOfRange(f"grab_strength {obs.grab_strength} outside [0, 1]")
    normal = np.asarray(obs.palm_normal, float)
    norm = float(np.linalg.norm(normal))
    if abs(norm - 1.0) > NORMAL_TOLERANCE:
        raise NonUnitNormal(f"|palm_normal| = {norm:.6f} deviates more than {NORMAL_TOLERANCE}")
    tips = tuple(obs.fingertips)
    if len(tips) != 5:
        raise ValueError(f"expected 5 fingertip slots thumb..pinky, got {len(tips)}")
    return HandObservation(
        handedness=Handedness(obs.handedness),
        palm_position=np.asarray(obs.palm_position, float),
        palm_normal=normal / norm,
        palm_velocity=np.asarray(obs.palm_velocity, float),
        grab_strength=float(obs.grab_strength),
        fingertips=tuple(None if t is None else np.asarray(t, float) for t in tips),
    )


def validate_frame(frame: Frame) -> Frame:
    """Return the frame with all invariants checked and normals renormalized."""
    if frame.timestamp < 0:
        raise ValueError(f"negative timestamp {frame.timestamp}")
    if len(frame.hands) > 2:
        raise ValueError(f"frame holds {len(frame.hands)} hands, at most 2 allowed")
    seen = set()
    hands = []
    for obs in frame.hands:
        if obs.handedness in seen:
            raise DuplicateHandedness(f"two {Handedness(obs.handedness).value} hands at t={frame.timestamp}")
        seen.add(obs.handedness)
        hands.append(validate_observation(obs))
    return Frame(timestamp=int(frame.timestamp), hands=tuple(hands))


def estimate_nominal_fps(timestamps_ms: Sequence[int]) -> float:
    """(record count - 1) / span, clamped into the supported device range."""
    if len(timestamps_ms) < 2:
        return 100.0
    span_s = (timestamps_ms[-1] - timestamps_ms[0]) / 1000.0
    if span_s <= 0:
        return 100.0
    fps = (len(timestamps_ms) - 1) / span_s
    return min(max(fps, NOMINAL_FPS_MIN), NOMINAL_FPS_MAX)


def merge_hand_streams(left, right, window_ms: float = MERGE_WINDOW_MS) -> FrameStream:
    """Align per-hand (timestamp, observation) records into two-hand frames.

    Records whose timestamps differ by at most window_ms merge into one frame
    stamped with the left record's time. Each left record takes the right
    record with the same timestamp when one exists, otherwise the earliest
    unused right inside the window; for sorted inputs this pairs the maximum
    possible number of records. Unmatched records become single-hand frames.
    """
    for name, records in (("left", left), ("right", right)):
        for k in range(1, len(records)):
            if records[k][0] <= records[k - 1][0]:
                raise NonMonotonicTimestamp(f"{name} records not strictly increasing at index {k}")

    used = [False] * len(right)
    partner = [None] * len(left)
    lo = 0
    for i, (tl, _) in enumerate(left):
        while lo < len(right) and right[lo][0] < tl - window_ms:
            lo += 1
        exact = None
        smallest = None
        j = lo
        while j < len(right) and right[j][0] <= tl + window_ms:
            if not used[j]:
                if right[j][0] == tl:
                    exact = j
                    break
                if smallest is None:
                    smallest = j
            j += 1
        pick = exact if exact is not None else smallest
        if pick is not None:
            used[pick] = True
            partner[i] = pick

    frames = []
    for i, (tl, ol) in enumerate(left):
        if partner[i] is None:
            frames.append(Frame(tl, (ol,)))
        else:
            frames.append(Frame(tl, (ol, right[partner[i]][1])))
    frames.extend(Frame(t, (o,)) for (t, o), was_used in zip(right, used) if not was_used)
    frames.sort(key=lambda f: f.timestamp)

    for k in range(1, len(frames)):
        if frames[k].timestamp <= frames[k - 1].timestamp:
            raise NonMonotonicTimestamp(
                "merged frames collide in time; per-hand records are closer than the merge window"
            )
    return FrameStream(frames, estimate_nominal_fps([f.timestamp for f in frames]))


def _parse_float(cell: str, line: int, column: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise MalformedRow(line, column, f"cannot parse {cell!r}") from None
    if not math.isfinite(value):
        raise MalformedRow(line, column, f"non-finite value {cell!r}")
    return value


def parse_hand_csv(text: str, handedness: Handedness):
    """Parse one per-hand CSV into validated (timestamp, observation) records."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != CSV_HEADER:
        got = lines[0].strip() if lines else "<empty file>"
        raise HeaderMismatch(f"expected header {CSV_HEADER!r}, got {got!r}")

    records = []
    prev_ts = None
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        cells = raw.split(",")
        if len(cells) != len(CSV_COLUMNS):
            raise MalformedRow(lineno, "column_count", f"expected {len(CSV_COLUMNS)} cells, got {len(cells)}")
        try:
            ts = int(cells[0])
        except ValueError:
            raise MalformedRow(lineno, "timestamp_ms", f"cannot parse {cells[0]!r}") from None
        if ts < 0:
            raise MalformedRow(lineno, "timestamp_ms", "negative timestamp")
        if prev_ts is not None and ts <= prev_ts:
            raise NonMonotonicTimestamp(line=lineno)
        prev_ts = ts

        values = [_parse_float(cells[k], lineno, CSV_COLUMNS[k]) for k in range(1, 11)]
        tips = []
        for fi, finger in enumerate(FINGER_NAMES):
            triple = cells[11 + 3 * fi: 14 + 3 * fi]
            blank = [c.strip() == "" for c in triple]
            if all(blank):
                tips.append(None)
            elif any(blank):
                col = CSV_COLUMNS[11 + 3 * fi + blank.index(True)]
                raise MalformedRow(lineno, col, "fingertip coordinates must be all present or all empty")
            else:
                tips.append(np.array([_parse_float(triple[a], lineno, CSV_COLUMNS[11 + 3 * fi + a]) for a in range(3)]))

        obs = HandObservation(
            handedness=handedness,
            palm_position=np.array(values[0:3]),
            palm_normal=np.array(values[3:6]),
            palm_velocity=np.array(values[6:9]),
            grab_strength=values[9],
            fingertips=tuple(tips),
        )
        try:
            obs = validate_observation(obs)
        except GrabOutOfRange as exc:
            raise MalformedRow(lineno, "grab_strength", str(exc)) from None
        except NonUnitNormal as exc:
            raise MalformedRow(lineno, "normal_x", str(exc)) from None
        records.append((ts, obs))
    return records


def parse_csv_stream(left_text: str, right_text: str, window_ms: float = MERGE_WINDOW_MS) -> FrameStream:
    """Parse the left/right per-hand CSV texts and merge them into one stream."""
    left = parse_hand_csv(left_text, Handedness.LEFT)
    right = parse_hand_csv(right_text, Handedness.RIGHT)
    return merge_hand_streams(left, right, window_ms=window_ms)


def _fmt(x: float) -> str:
    return repr(float(x))


def _observation_row(ts: int, obs: HandObservation) -> str:
    cells = [str(int(ts))]
    cells += [_fmt(v) for v in obs.palm_position]
    cells += [_fmt(v) for v in obs.palm_normal]
    cells += [_fmt(v) for v in obs.palm_velocity]
    cells.append(_fmt(obs.grab_strength))
    for tip in obs.fingertips:
        cells += ["", "", ""] if tip is None else [_fmt(v) for v in tip]
    return ",".join(cells)


def write_csv_stream(stream: FrameStream):
    """Serialize a stream back to (left_text, right_text) per-hand CSVs.

    Floats are written in shortest round-trip form, so parse(write(s))
    reproduces every scalar exactly except the palm normals, which ingest
    renormalises: they can move by a few ulp.
    """
    out = {Handedness.LEFT: [CSV_HEADER], Handedness.RIGHT: [CSV_HEADER]}
    for frame in stream.frames:
        for obs in frame.hands:
            out[obs.handedness].append(_observation_row(frame.timestamp, obs))
    left_text = "\n".join(out[Handedness.LEFT]) + "\n"
    right_text = "\n".join(out[Handedness.RIGHT]) + "\n"
    return left_text, right_text
