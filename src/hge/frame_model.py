"""Two-hand frame-stream data model with CSV ingestion and export.

Per-hand records arrive as separate left/right CSV files sharing one clock;
`merge_hand_streams` aligns them into two-hand frames. Coordinate convention
(documented, not enforced): right-handed, y axis up away from the sensor,
origin at the sensor center, millimeters and mm/s.
"""

from __future__ import annotations

import math
import warnings
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import Optional

import numpy as np

from .errors import EngineError, HeaderMismatch, MalformedRow, NonMonotonicTimestamp

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
MERGE_WINDOW_MS = 5       # one frame period at DEVICE_FPS_MAX
DEVICE_FPS_MIN = 50.0     # the tracker rates the paper covers
DEVICE_FPS_MAX = 200.0


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
    fingertips: np.ndarray         # (5, 3) thumb..pinky; a row of NaN is an untracked tip


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
    """Frames in time order."""

    frames: list

    def slice_ms(self, start_ms: int, end_ms: int) -> "FrameStream":
        """Frames with start_ms <= timestamp < end_ms.

        Bisects the frames, which must be in time order, as merge_hand_streams
        and the synthesiser produce them.
        """
        lo = bisect_left(self.frames, start_ms, key=_timestamp)
        hi = bisect_left(self.frames, end_ms, lo=lo, key=_timestamp)
        return FrameStream(self.frames[lo:hi])


_timestamp = attrgetter("timestamp")


def row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of an (..., 3) array.

    Each row goes through the same dot product as np.linalg.norm of one
    vector, so the result matches it bit for bit.
    """
    return np.sqrt(row_dots(v, v))


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of matching rows of two (..., 3) arrays, as `a[i] @ b[i]` computes it."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def merge_hand_streams(left, right) -> FrameStream:
    """Align per-hand (timestamp, observation) records into two-hand frames.

    A left and a right record with equal timestamps always share a frame.
    Every other left record takes the earliest unused right record within
    MERGE_WINDOW_MS whose timestamp no left record holds; the frame keeps the
    left record's time. This greedy rule is not a maximum matching: left
    [5, 9] and right [0, 5] pair once, 5 with 5. Unmatched records become
    single-hand frames.
    """
    for name, records in (("left", left), ("right", right)):
        for k in range(1, len(records)):
            if records[k][0] <= records[k - 1][0]:
                raise NonMonotonicTimestamp(f"{name} records not strictly increasing at index {k}")

    exact = {t: j for j, (t, _) in enumerate(right)}
    left_times = {t for t, _ in left}
    used = [t in left_times for t, _ in right]    # reserved for the left record at its time
    frames = []
    lo = 0
    for tl, ol in left:
        pick = exact.get(tl)
        if pick is None:
            while lo < len(right) and right[lo][0] < tl - MERGE_WINDOW_MS:
                lo += 1
            j = lo
            while j < len(right) and right[j][0] <= tl + MERGE_WINDOW_MS:
                if not used[j]:
                    used[j] = True
                    pick = j
                    break
                j += 1
        frames.append(Frame(tl, (ol,) if pick is None else (ol, right[pick][1])))
    frames.extend(Frame(t, (o,)) for (t, o), was_used in zip(right, used) if not was_used)
    frames.sort(key=_timestamp)
    return FrameStream(frames)


def _parse_float(cell: str, line: int, column: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise MalformedRow(line, column, f"cannot parse {cell!r}") from None
    if not math.isfinite(value):
        raise MalformedRow(line, column, f"non-finite value {cell!r}")
    return value


_FLOAT_COLUMNS = len(CSV_COLUMNS) - 1     # columns of the (n, 25) value block
_GRAB = CSV_COLUMNS.index("grab_strength") - 1
_TIPS = CSV_COLUMNS.index("thumb_x") - 1


def _careful_cells(cells, line: int):
    """The float cells of a row that `float` alone cannot read, checked one at a time.

    A fingertip triple left blank is untracked and reads as NaN; any other
    cell that is blank, unreadable or non-finite raises MalformedRow.
    """
    values = [_parse_float(cells[k], line, CSV_COLUMNS[k]) for k in range(1, _TIPS + 1)]
    for k in range(_TIPS + 1, len(CSV_COLUMNS), 3):
        blank = [c.strip() == "" for c in cells[k:k + 3]]
        if all(blank):
            values += [math.nan] * 3
        elif any(blank):
            raise MalformedRow(line, CSV_COLUMNS[k + blank.index(True)],
                               "fingertip coordinates must be all present or all empty")
        else:
            values += [_parse_float(cells[k + a], line, CSV_COLUMNS[k + a]) for a in range(3)]
    return values


def _check_block(block: np.ndarray, careful, linenos, lines) -> np.ndarray:
    """Raise MalformedRow for the first row whose values break an invariant.

    Within a row the checks run in column order, then grab range, then the
    normal's length, as a row-by-row parse would meet them. Returns the
    palm normals' norms.
    """
    nonfinite = ~np.isfinite(block)
    nonfinite[careful] = False     # careful rows are checked; their NaNs are untracked fingertips
    grab = block[:, _GRAB]
    bad_grab = ~((grab >= 0.0) & (grab <= 1.0))
    with np.errstate(over="ignore"):    # a huge component makes the norm inf, which fails the check below
        norms = row_norms(block[:, 3:6])
    bad_normal = np.abs(norms - 1.0) > NORMAL_TOLERANCE
    bad = nonfinite.any(axis=1) | bad_grab | bad_normal
    if not bad.any():
        return norms
    i = int(np.argmax(bad))
    line = linenos[i]
    if nonfinite[i].any():
        k = int(np.argmax(nonfinite[i])) + 1
        cell = lines[line - 1].split(",")[k]
        raise MalformedRow(line, CSV_COLUMNS[k], f"non-finite value {cell!r}")
    if bad_grab[i]:
        raise MalformedRow(line, "grab_strength", f"grab_strength {float(grab[i])} outside [0, 1]")
    raise MalformedRow(line, "normal_x",
                       f"|palm_normal| = {norms[i]:.6f} deviates more than {NORMAL_TOLERANCE}")


def parse_hand_csv(text: str, handedness: Handedness):
    """Parse one per-hand CSV into validated (timestamp, observation) records.

    An ASCII file without blank fingertip cells is read in one pass of numpy's
    C tokenizer. Any other file, or one that pass rejects, is read line by
    line by `_parse_hand_lines`, which gives the same records and raises every
    error; a file with several faults reports the one on the earliest line.
    Observations hold row views of one (n, 25) block, with palm normals
    renormalised in place.
    """
    handedness = Handedness(handedness)
    lines = text.splitlines()
    if not lines or lines[0].strip() != CSV_HEADER:
        got = lines[0].strip() if lines else "<empty file>"
        raise HeaderMismatch(f"expected header {CSV_HEADER!r}, got {got!r}")
    # numpy's int parser can crash on a non-ASCII code point, and numpy strips \x1f where `float` rejects
    # it; loadtxt skips empty lines, which would shift the line numbers, and warns on a file with no data.
    if len(lines) < 2 or not text.isascii() or "\x1f" in text or "" in lines:
        return _parse_hand_lines(lines, handedness)
    try:
        with warnings.catch_warnings():     # older numpy reads an int cell like '1.5' via float and only warns
            warnings.simplefilter("error", DeprecationWarning)
            rows = np.loadtxt(lines[1:], delimiter=",", dtype=[("ts", "<i8"), ("v", "<f8", (_FLOAT_COLUMNS,))],
                              ndmin=1, comments=None, quotechar=None)
    except (ValueError, DeprecationWarning):
        return _parse_hand_lines(lines, handedness)
    stamps = rows["ts"]
    if stamps[0] < 0 or not (stamps[1:] > stamps[:-1]).all():
        return _parse_hand_lines(lines, handedness)
    norms = _check_block(rows["v"], [], range(2, len(lines) + 1), lines)
    return _records(stamps.tolist(), rows["v"], norms, handedness)


def _parse_hand_lines(lines, handedness: Handedness):
    """The records of a header and its data lines, read line by line with `int` and `float`."""
    stamps, linenos, careful = [], [], []
    values = array("d")
    fault = None
    try:
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
            if stamps and ts <= stamps[-1]:
                raise NonMonotonicTimestamp(line=lineno)
            try:
                values.extend(map(float, cells[1:]))
            except ValueError:
                del values[len(stamps) * _FLOAT_COLUMNS:]
                values.extend(_careful_cells(cells, lineno))
                careful.append(len(stamps))
            stamps.append(ts)
            linenos.append(lineno)
    except (MalformedRow, NonMonotonicTimestamp) as exc:
        fault = exc     # raised after the rows above it are checked, so the earliest line wins

    block = np.frombuffer(values, dtype=float).reshape(-1, _FLOAT_COLUMNS)
    norms = _check_block(block, careful, linenos, lines)
    if fault is not None:
        raise fault
    return _records(stamps, block, norms, handedness)


def _records(stamps, block: np.ndarray, norms: np.ndarray, handedness: Handedness):
    """Records holding row views of a checked block, its palm normals renormalised in place."""
    block[:, 3:6] /= norms[:, None]
    positions, normals, velocities = list(block[:, 0:3]), list(block[:, 3:6]), list(block[:, 6:9])
    grabs = block[:, _GRAB].tolist()
    tips = list(block[:, _TIPS:].reshape(-1, 5, 3))
    return [(ts, HandObservation(handedness, positions[i], normals[i], velocities[i], grabs[i], tips[i]))
            for i, ts in enumerate(stamps)]


def parse_csv_stream(left_text: str, right_text: str) -> FrameStream:
    """Parse the left/right per-hand CSV texts and merge them into one stream."""
    left = parse_hand_csv(left_text, Handedness.LEFT)
    right = parse_hand_csv(right_text, Handedness.RIGHT)
    return merge_hand_streams(left, right)


def _fmt(x: float) -> str:
    return repr(float(x))


def _observation_row(ts: int, obs: HandObservation) -> str:
    cells = [str(int(ts))]
    cells += [_fmt(v) for v in obs.palm_position]
    cells += [_fmt(v) for v in obs.palm_normal]
    cells += [_fmt(v) for v in obs.palm_velocity]
    cells.append(_fmt(obs.grab_strength))
    for tip in obs.fingertips.tolist():
        untracked = math.isnan(tip[0]) and math.isnan(tip[1]) and math.isnan(tip[2])
        cells += ["", "", ""] if untracked else [_fmt(v) for v in tip]
    row = ",".join(cells)
    if "n" in row:      # the repr of a finite float has no 'n'; 'nan' and 'inf' do
        k = next(k for k, cell in enumerate(cells) if "n" in cell)
        what = f"{CSV_COLUMNS[k]} = {cells[k]} is not finite"
        if k > _TIPS:
            finger = (k - _TIPS - 1) // 3
            what = f"{FINGER_NAMES[finger]} fingertip {obs.fingertips[finger].tolist()} must be all finite or all NaN"
        raise EngineError(f"timestamp {ts}, {obs.handedness.value} hand: {what}")
    return row


def write_csv_stream(stream: FrameStream):
    """Serialize a stream back to (left_text, right_text) per-hand CSVs.

    Floats are written in shortest round-trip form, so parse(write(s))
    reproduces every scalar exactly except the palm normals, which ingest
    renormalises: they can move by a few ulp. A value that is not finite,
    or a fingertip that is only partly NaN, raises EngineError.
    """
    out = {Handedness.LEFT: [CSV_HEADER], Handedness.RIGHT: [CSV_HEADER]}
    for frame in stream.frames:
        for obs in frame.hands:
            out[obs.handedness].append(_observation_row(frame.timestamp, obs))
    left_text = "\n".join(out[Handedness.LEFT]) + "\n"
    right_text = "\n".join(out[Handedness.RIGHT]) + "\n"
    return left_text, right_text
