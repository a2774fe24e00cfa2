"""Two-hand frame-stream data model with CSV ingestion and export.

Per-hand records arrive as separate left/right CSV files sharing one clock;
`merge_hand_streams` aligns them into a table of two-hand frames. That table
is all a FrameStream holds; its Frame objects are row views of the table,
built only when they are read and not kept. Coordinate
convention (documented, not enforced): right-handed, y axis up away from the
sensor, origin at the sensor center, millimeters and mm/s.
"""

from __future__ import annotations

import math
import operator
import warnings
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

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
MAX_MAGNITUDE = 1e16      # every value read is below this in magnitude; repr writes larger floats as 'e+'
MAX_TIMESTAMP_MS = 2**53  # every timestamp read is below this, so float64 holds it and its differences exactly
DEVICE_FPS_MIN = 50.0     # the tracker rates the paper covers
DEVICE_FPS_MAX = 200.0
MERGE_WINDOW_MS = int(1000 / DEVICE_FPS_MAX)     # one frame period
_BLOCK_FRAMES = 256     # frames per render, frame-building or writing pass: its blocks and objects stay small


class Handedness(str, Enum):
    LEFT = "Left"
    RIGHT = "Right"


@dataclass(eq=False, slots=True)
class HandObservation:
    """One tracked hand in one frame. Positions in mm, velocity in mm/s."""

    handedness: Handedness
    palm_position: np.ndarray
    palm_normal: np.ndarray        # unit vector, orthogonal to the palm, pointing outward
    palm_velocity: np.ndarray
    grab_strength: float           # 0 fully flat .. 1 fully curled
    fingertips: np.ndarray         # (5, 3) thumb..pinky; a row of NaN is an untracked tip


@dataclass(eq=False, slots=True)
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


SIDES = tuple(Handedness)      # a frame table's row columns: Left, then Right


@dataclass(frozen=True, eq=False)
class HandRecords:
    """One hand's records as ingest reads them, one row of `block` per timestamp.

    `block` holds each record's 25 values in CSV column order after the
    timestamp: palm position, palm normal (unit), palm velocity, grab
    strength, then the five fingertips, an untracked one as three NaN.
    """

    handedness: Handedness
    timestamps: np.ndarray         # (n,) int64 ms, strictly increasing
    block: np.ndarray              # (n, 25) float64

    def __len__(self) -> int:
        return len(self.timestamps)


class FrameTable(NamedTuple):
    """Frames as arrays: frame k, at timestamps[k], holds row rows[k, s] of blocks[s] for each side s of SIDES.

    A row of -1 marks a hand absent from that frame.
    """

    timestamps: np.ndarray         # (m,) ms
    rows: np.ndarray               # (m, 2) intp
    blocks: tuple                  # Left and Right (n, 25) value blocks, as HandRecords holds them


class FrameStream:
    """Frames in time order, held as one frame table.

    `FrameStream(frames)` gathers frames built in code into a table at once,
    and raises EngineError for a frame the table cannot hold or that is out of
    time order. `frames` is a read-only FrameView of the table: it builds the
    Frames it is asked for and keeps none; `list(stream.frames)` is a list of them.
    """

    def __init__(self, frames: Optional[list] = None, table: Optional[FrameTable] = None):
        if (frames is None) == (table is None):
            raise TypeError("a FrameStream takes its frames or its table")
        self.table = _frames_table(frames) if table is None else table

    @property
    def frames(self) -> "FrameView":
        """The stream's frames as a read-only sequence; each hand's arrays are views of its block row."""
        return FrameView(self.table)

    def __len__(self) -> int:
        return len(self.table.timestamps)

    def slice_ms(self, start_ms: int, end_ms: int) -> "FrameStream":
        """Frames with start_ms <= timestamp < end_ms.

        Searches the table's timestamps, which must be in time order, as
        merge_hand_streams, the synthesiser and FrameStream(frames) give them.
        """
        # the timestamps are int64, so the bounds are clamped to that range
        lo, hi = np.searchsorted(self.table.timestamps, [min(max(b, _INT64_MIN), _INT64_MAX)
                                                         for b in (start_ms, end_ms)]).tolist()
        return self._select(slice(lo, hi))

    def _select(self, index) -> "FrameStream":
        """The frames a slice or boolean mask picks, in the same order, sharing this stream's blocks."""
        return FrameStream(table=_table_rows(self.table, index))


class FrameView(Sequence):
    """A frame table's frames, read-only, built only when read and never kept.

    len() builds no frame, an index builds one, a slice returns a list of
    its frames, and iteration builds them _BLOCK_FRAMES at a time. An index
    past either end raises IndexError, as a list's does.
    """

    __slots__ = ("_table",)

    def __init__(self, table: FrameTable):
        self._table = table

    def __len__(self) -> int:
        return len(self._table.timestamps)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(_table_frames(_table_rows(self._table, index)))
        k, n = operator.index(index), len(self)
        if not -n <= k < n:
            raise IndexError("frame index out of range")
        k %= n
        return next(_table_frames(_table_rows(self._table, slice(k, k + 1))))

    def __iter__(self):
        return _table_frames(self._table)


def _table_rows(table: FrameTable, index) -> FrameTable:
    """The frames a slice or boolean mask of a table picks, sharing its blocks."""
    return FrameTable(table.timestamps[index], table.rows[index], table.blocks)


_INT64_MIN, _INT64_MAX = -2**63, 2**63 - 1


def _observations(handedness: Handedness, block: np.ndarray, col: np.ndarray) -> list:
    """Each frame's HandObservation of the block row `col` names, its arrays views of that row; None where `col` is -1.

    The views are taken of the span of the rows held; HandObservations are built only for those rows.
    """
    held = col[col >= 0]
    first, stop = (held.min(), held.max() + 1) if len(held) else (0, 0)
    span = block[first:stop]
    positions, normals, velocities = list(span[:, 0:3]), list(span[:, 3:6]), list(span[:, 6:9])
    grabs, tips = span[:, _GRAB].tolist(), list(span[:, _TIPS:].reshape(-1, 5, 3))
    return [None if r < 0 else HandObservation(handedness, positions[r], normals[r], velocities[r], grabs[r], tips[r])
            for r in (col - first).tolist()]


def _table_frames(table: FrameTable):
    """The table's frames, built a chunk at a time; each observation is a view of its block row, Left before Right."""
    for lo in range(0, len(table.timestamps), _BLOCK_FRAMES):
        left, right = (_observations(side, block, col)
                       for side, block, col in zip(SIDES, table.blocks, table.rows[lo:lo + _BLOCK_FRAMES].T))
        for t, l, r in zip(table.timestamps[lo:lo + _BLOCK_FRAMES].tolist(), left, right):
            if l is None:
                yield Frame(t, () if r is None else (r,))
            else:
                yield Frame(t, (l,) if r is None else (l, r))


def _repeated_side(frame: Frame) -> EngineError:
    """The refusal of a frame holding more than one hand of a side, naming the first side its hands repeat."""
    sides = [obs.handedness for obs in frame.hands]
    side = next(side for k, side in enumerate(sides) if side in sides[:k])
    return EngineError(f"frame at {frame.timestamp} ms holds more than one {side.value} hand")


def _frames_table(frames) -> FrameTable:
    """The table of frames built in code, each hand's values gathered into a block in frame order.

    Raises EngineError for a frame holding more than one hand of a side,
    whose timestamp is not an integer int64 holds, or that is not after the
    frame before it.
    """
    values = ([np.empty(0)], [np.empty(0)])     # keeps each concatenation defined for a hand never seen
    counts, rows, stamps = [0, 0], [], []
    for f in frames:
        if not (isinstance(f.timestamp, (int, np.integer)) and _INT64_MIN <= f.timestamp <= _INT64_MAX):
            raise EngineError(f"frame at {f.timestamp} ms: the timestamp is not an integer int64 holds")
        if stamps and f.timestamp <= stamps[-1]:
            raise EngineError(f"frame at {f.timestamp} ms is not after the frame at {stamps[-1]} ms")
        row = [-1, -1]
        for obs in f.hands:
            side = SIDES.index(obs.handedness)
            if row[side] >= 0:
                raise _repeated_side(f)
            row[side] = counts[side]
            counts[side] += 1
            values[side].extend((obs.palm_position, obs.palm_normal, obs.palm_velocity, [obs.grab_strength],
                                 obs.fingertips.reshape(-1)))
        rows.append(row)
        stamps.append(f.timestamp)
    blocks = tuple(np.concatenate(v, dtype=float).reshape(-1, _FLOAT_COLUMNS) for v in values)
    return FrameTable(np.array(stamps, np.int64), np.array(rows, np.intp).reshape(-1, 2), blocks)


def row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of an (..., 3) array.

    Each row goes through the same dot product as np.linalg.norm of one
    vector, so the result matches it bit for bit.
    """
    return np.sqrt(row_dots(v, v))


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of matching rows of two (..., 3) arrays, as `a[i] @ b[i]` computes it."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def merge_hand_streams(left: HandRecords, right: HandRecords) -> FrameStream:
    """Align the left and right hands' records into a table of two-hand frames.

    A left and a right record with equal timestamps always share a frame.
    Every other left record takes the earliest unused right record within
    MERGE_WINDOW_MS whose timestamp no left record holds; the frame keeps the
    left record's time. This greedy rule is not a maximum matching: left
    [5, 9] and right [0, 5] pair once, 5 with 5. Unmatched records become
    single-hand frames.
    """
    if (left.handedness, right.handedness) != SIDES:
        raise ValueError("merge_hand_streams takes the Left hand's records, then the Right hand's")
    for name, records in (("left", left), ("right", right)):
        stamps = records.timestamps
        later = np.flatnonzero(stamps[1:] <= stamps[:-1])
        if len(later):
            raise NonMonotonicTimestamp(f"{name} records not strictly increasing at index {later[0] + 1}")

    tl, tr = left.timestamps, right.timestamps
    pick = np.searchsorted(tr, tl)
    exact = pick < len(tr)
    exact[exact] = tr[pick[exact]] == tl[exact]
    pick[~exact] = -1
    used = np.zeros(len(tr), bool)
    used[pick[exact]] = True     # reserved for the left record at its time
    rest = np.flatnonzero(~exact)
    if len(rest) and len(tr):
        times, taken = tr.tolist(), used.tolist()
        lo = 0
        for i, t in zip(rest.tolist(), tl[rest].tolist()):
            while lo < len(times) and times[lo] < t - MERGE_WINDOW_MS:
                lo += 1
            j = lo
            while j < len(times) and times[j] <= t + MERGE_WINDOW_MS:
                if not taken[j]:
                    taken[j] = True
                    pick[i] = j
                    break
                j += 1
        used = np.array(taken, bool)
    # left frames and lone right frames in time order: their times differ, so each one's place is its index
    # plus the count of the other kind's earlier times
    lone = np.flatnonzero(~used)
    lone_times = tr[lone]
    at_left = np.arange(len(tl)) + np.searchsorted(lone_times, tl)
    at_lone = np.arange(len(lone)) + np.searchsorted(tl, lone_times)
    stamps = np.empty(len(tl) + len(lone), np.int64)
    rows = np.full((len(stamps), 2), -1, np.intp)
    stamps[at_left], stamps[at_lone] = tl, lone_times
    rows[at_left, 0], rows[at_left, 1], rows[at_lone, 1] = np.arange(len(tl)), pick, lone
    return FrameStream(table=FrameTable(stamps, rows, (left.block, right.block)))


def _value_fault(value: float, cell: str) -> str:
    """Why a value that is not finite, or not below MAX_MAGNITUDE in magnitude, is refused."""
    if math.isfinite(value):
        return f"value {cell!r} is not below {MAX_MAGNITUDE:g} in magnitude"
    return f"non-finite value {cell!r}"


def _parse_float(cell: str, line: int, column: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise MalformedRow(line, column, f"cannot parse {cell!r}") from None
    if not abs(value) < MAX_MAGNITUDE:
        raise MalformedRow(line, column, _value_fault(value, cell))
    return value


_FLOAT_COLUMNS = len(CSV_COLUMNS) - 1     # columns of the (n, 25) value block
_GRAB = CSV_COLUMNS.index("grab_strength") - 1
_TIPS = CSV_COLUMNS.index("thumb_x") - 1


def _careful_cells(cells, line: int):
    """The float cells of a row that `float` alone cannot read, checked one at a time.

    A fingertip triple left blank is untracked and reads as NaN; any other
    cell that is blank, unreadable, non-finite or too large raises MalformedRow.
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


def _grab_normal_faults(block: np.ndarray):
    """(grab outside [0, 1], palm normal length further than NORMAL_TOLERANCE from 1, that length) of each row."""
    grab = block[:, _GRAB]
    with np.errstate(over="ignore"):    # a huge component makes the norm inf, which fails the check
        norms = row_norms(block[:, 3:6])
    return ~((grab >= 0.0) & (grab <= 1.0)), np.abs(norms - 1.0) > NORMAL_TOLERANCE, norms


def _check_block(block: np.ndarray, careful, linenos, lines) -> np.ndarray:
    """Raise MalformedRow for the first row whose values break an invariant.

    Within a row the checks run in column order, then grab range, then the
    normal's length, as a row-by-row parse would meet them. Returns the
    palm normals' norms.
    """
    bad_value = ~(np.abs(block) < MAX_MAGNITUDE)     # non-finite or too large
    bad_value[careful] = False     # careful rows are checked; their NaNs are untracked fingertips
    bad_grab, bad_normal, norms = _grab_normal_faults(block)
    bad = bad_value.any(axis=1) | bad_grab | bad_normal
    if not bad.any():
        return norms
    i = int(np.argmax(bad))
    line = linenos[i]
    if bad_value[i].any():
        k = int(np.argmax(bad_value[i])) + 1
        raise MalformedRow(line, CSV_COLUMNS[k], _value_fault(block[i, k - 1], lines[line - 1].split(",")[k]))
    if bad_grab[i]:
        raise MalformedRow(line, "grab_strength", f"grab_strength {float(block[i, _GRAB])} outside [0, 1]")
    raise MalformedRow(line, "normal_x",
                       f"|palm_normal| = {norms[i]:.6f} deviates more than {NORMAL_TOLERANCE}")


def parse_hand_csv(text: str, handedness: Handedness) -> HandRecords:
    """Parse one per-hand CSV into its validated records.

    An ASCII file without blank fingertip cells is read in one pass of numpy's
    C tokenizer. Any other file, or one that pass rejects, is read line by
    line by `_parse_hand_lines`, which gives the same records and raises every
    error; a file with several faults reports the one on the earliest line.
    Palm normals are renormalised in place.
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
    if stamps[0] < 0 or stamps[-1] >= MAX_TIMESTAMP_MS or not (stamps[1:] > stamps[:-1]).all():
        return _parse_hand_lines(lines, handedness)
    norms = _check_block(rows["v"], [], range(2, len(lines) + 1), lines)
    return _records(handedness, np.ascontiguousarray(stamps), rows["v"], norms)


def _parse_hand_lines(lines, handedness: Handedness) -> HandRecords:
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
            if ts >= MAX_TIMESTAMP_MS:
                raise MalformedRow(lineno, "timestamp_ms", f"timestamp not below {MAX_TIMESTAMP_MS}")
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
    return _records(handedness, np.array(stamps, np.int64), block, norms)


def _records(handedness: Handedness, stamps: np.ndarray, block: np.ndarray, norms: np.ndarray) -> HandRecords:
    """The records of a checked block, its palm normals renormalised in place."""
    block[:, 3:6] /= norms[:, None]
    return HandRecords(handedness, stamps, block)


def parse_csv_stream(left_text: str, right_text: str) -> FrameStream:
    """Parse the left/right per-hand CSV texts and merge them into one stream."""
    left = parse_hand_csv(left_text, Handedness.LEFT)
    right = parse_hand_csv(right_text, Handedness.RIGHT)
    return merge_hand_streams(left, right)


def _hand_row(ts: int, side: Handedness, values: list) -> str:
    """The CSV row of one hand's 25 values at time ts; EngineError for a timestamp or value the reader refuses."""
    if not 0 <= ts < MAX_TIMESTAMP_MS:
        raise EngineError(f"timestamp {ts}, {side.value} hand: timestamp_ms is outside [0, {MAX_TIMESTAMP_MS})")
    row = f"{ts},{','.join(map(repr, values))}"
    # the repr of a finite float below MAX_MAGNITUDE has neither; 'nan' and 'inf' have an 'n', larger ones 'e+'
    if "n" not in row and "e+" not in row:
        return row
    cells = row.split(",")
    for k in range(_TIPS + 1, len(cells), 3):
        if cells[k] == cells[k + 1] == cells[k + 2] == "nan":
            cells[k:k + 3] = "", "", ""     # an untracked fingertip
    k = next((k for k, cell in enumerate(cells) if "n" in cell or "e+" in cell), None)
    if k is None:
        return ",".join(cells)
    what = f"{CSV_COLUMNS[k]} = {cells[k]} is not finite"
    if "e+" in cells[k]:
        what = f"{CSV_COLUMNS[k]} = {cells[k]} is not below {MAX_MAGNITUDE:g} in magnitude"
    elif k > _TIPS:
        finger = (k - _TIPS - 1) // 3
        tip = values[_TIPS + 3 * finger:_TIPS + 3 * finger + 3]
        what = f"{FINGER_NAMES[finger]} fingertip {tip} must be all finite or all NaN"
    raise EngineError(f"timestamp {ts}, {side.value} hand: {what}")


def _refusal(ts: int, side: Handedness, values: list, late: bool) -> EngineError:
    """The error for a hand row whose grab, normal or time order the reader refuses, met in the reader's order.

    A row `late` for its hand comes first, then the timestamp's range and
    the values as `_hand_row` checks them, then the grab, then the normal.
    """
    if late and ts >= 0:
        what = "timestamps not strictly increasing"
    else:
        _hand_row(ts, side, values)
        what = (f"grab_strength {values[_GRAB]} outside [0, 1]" if not 0.0 <= values[_GRAB] <= 1.0 else
                f"|palm_normal| = {float(row_norms(np.array(values[3:6]))):.6f} deviates more than {NORMAL_TOLERANCE}")
    return EngineError(f"timestamp {ts}, {side.value} hand: {what}")


def _hand_text(table: FrameTable, side: int):
    """(text, frame, fault) of one hand's CSV: its rows in frame order, joined _BLOCK_FRAMES rows at a time.

    The hand stops at its first row the reader refuses: `fault` is the
    EngineError for it and `frame` its frame. Otherwise they are None and inf.
    """
    hand, block = SIDES[side], table.blocks[side]
    held = np.flatnonzero(table.rows[:, side] >= 0)
    texts, last = [CSV_HEADER + "\n"], -1
    for lo in range(0, len(held), _BLOCK_FRAMES):
        frames = held[lo:lo + _BLOCK_FRAMES]
        stamps, values = table.timestamps[frames], block[table.rows[frames, side]]
        late = stamps <= np.append(last, stamps[:-1])
        bad_grab, bad_normal, _ = _grab_normal_faults(values)
        refused = (late | bad_grab | bad_normal).tolist()
        lines = []
        for k, (ts, row) in enumerate(zip(stamps.tolist(), values.tolist())):
            try:
                if refused[k]:
                    raise _refusal(ts, hand, row, late[k])
                lines.append(_hand_row(ts, hand, row))
            except EngineError as fault:
                return None, int(frames[k]), fault
        texts.append("\n".join(lines) + "\n")
        last = stamps[-1]
    return "".join(texts), math.inf, None


def write_csv_stream(stream: FrameStream):
    """Serialize a stream back to (left_text, right_text) per-hand CSVs.

    Floats are written in shortest round-trip form, so parse(write(s))
    reproduces every scalar exactly except the palm normals, which ingest
    renormalises: they can move by a few ulp. What the reader refuses raises
    EngineError: a timestamp outside [0, MAX_TIMESTAMP_MS) or not above the
    hand's previous one, a value that is not finite or not below
    MAX_MAGNITUDE in magnitude, a fingertip that is only partly NaN, a grab
    outside [0, 1], or a palm normal whose length is further than
    NORMAL_TOLERANCE from 1. The first in frame order, Left before Right, is
    reported.
    """
    hands = [_hand_text(stream.table, side) for side in range(len(SIDES))]
    _, _, fault = min(hands, key=lambda hand: hand[1])     # the earlier frame's; min keeps the Left hand's on a tie
    if fault is not None:
        raise fault
    return tuple(text for text, _, _ in hands)
