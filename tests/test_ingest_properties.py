"""Property-based tests for CSV ingest (Hypothesis)."""

import math
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hge import (
    CSV_HEADER,
    EngineError,
    FrameStream,
    Handedness,
    HandObservation,
    MalformedRow,
    generate,
    make_canonical_script,
    parse_csv_stream,
    parse_hand_csv,
    write_csv_stream,
)
from hge.frame_model import CSV_COLUMNS, _parse_hand_lines

# fixed example sequence: the suite gives the same verdict on every run
PROPERTY = settings(deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

# characters that split a line or a row, so a cell can never hold them
_SEPARATORS = ",\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@lru_cache(maxsize=None)
def _stream(seed: int, noise_sigma: float, rub_frequency_hz: float) -> FrameStream:
    stream, _ = generate(make_canonical_script(rub_duration_s=2.0, rub_frequency_hz=rub_frequency_hz,
                                              noise_sigma=noise_sigma, seed=seed))
    return stream


def _untrack(stream: FrameStream, picks) -> FrameStream:
    """Copy of the stream with the picked (frame, hand, finger) tips set to untracked."""
    frames = list(stream.frames)
    for k, hand, finger in picks:
        frame = frames[k % len(frames)]
        hands = list(frame.hands)
        obs = hands[hand % len(hands)]
        tips = obs.fingertips.copy()
        tips[finger] = np.nan
        hands[hand % len(hands)] = replace(obs, fingertips=tips)
        frames[k % len(frames)] = replace(frame, hands=tuple(hands))
    return FrameStream(frames)


def _within_ulps(a, b, ulps: int) -> bool:
    return bool(np.all(np.abs(a - b) <= ulps * np.spacing(np.abs(a))))


@PROPERTY
@given(seed=st.integers(0, 2**16), noise_sigma=st.sampled_from([0.0, 0.5, 1.5]),
       rub_frequency_hz=st.sampled_from([0.8, 2.0, 3.6]),
       picks=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 1), st.integers(0, 4)), max_size=20))
def test_round_trip_returns_every_scalar(seed, noise_sigma, rub_frequency_hz, picks):
    stream = _untrack(_stream(seed % 8, noise_sigma, rub_frequency_hz), picks)
    back = parse_csv_stream(*write_csv_stream(stream))
    assert [f.timestamp for f in back.frames] == [f.timestamp for f in stream.frames]
    for before, after in zip(stream.frames, back.frames):
        assert [o.handedness for o in after.hands] == [o.handedness for o in before.hands]
        for a, b in zip(before.hands, after.hands):
            assert np.array_equal(a.palm_position, b.palm_position)
            assert np.array_equal(a.palm_velocity, b.palm_velocity)
            assert a.grab_strength == b.grab_strength
            assert np.array_equal(a.fingertips, b.fingertips, equal_nan=True)
            # ingest renormalises the normal: exactly a / |a|, a few ulp from a
            assert np.array_equal(b.palm_normal, a.palm_normal / np.linalg.norm(a.palm_normal))
            assert _within_ulps(a.palm_normal, b.palm_normal, 4)


_CELLS = st.sampled_from(["", " ", "0", "10", "-3", "0.5", "1.0", "2.0", "1e400", "nan", "inf",
                          "-inf", "abc", "1_0", " 7 ", "0x1"])


@st.composite
def _csv_like(draw):
    """Text with the right header and rows of plausible and broken cells."""
    rows = draw(st.lists(st.lists(_CELLS, min_size=24, max_size=28), max_size=6))
    body = [",".join(cells) for cells in rows]
    return "\n".join([CSV_HEADER] + body) + draw(st.sampled_from(["", "\n", "\n\n"]))


@PROPERTY
@given(text=st.one_of(st.text(), _csv_like(), st.text().map(lambda t: CSV_HEADER + "\n" + t)))
def test_arbitrary_text_raises_only_engine_errors(text):
    try:
        records = parse_hand_csv(text, Handedness.RIGHT)
    except EngineError:
        return
    for ts, obs in records:
        assert isinstance(ts, int) and isinstance(obs, HandObservation)
        assert np.isfinite(obs.palm_position).all() and np.isfinite(obs.palm_normal).all()
        assert 0.0 <= obs.grab_strength <= 1.0


@lru_cache(maxsize=None)
def _valid_left_text() -> str:
    left, _ = write_csv_stream(FrameStream(_stream(0, 1.0, 2.0).frames[:40]))
    return left


def _is_fault(cell: str, column: int) -> bool:
    """Whether the cell alone makes its row unreadable in this column."""
    try:
        value = int(cell) if column == 0 else float(cell)
    except ValueError:
        return True
    return column > 0 and not math.isfinite(value)


_JUNK = st.one_of(
    st.sampled_from(["nan", "NaN", "inf", "-inf", "+inf", "1e999", "", " ", "abc", "1.2.3", "--1"]),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=_SEPARATORS), max_size=8),
)


@PROPERTY
@given(line=st.integers(2, 41), column=st.integers(0, len(CSV_COLUMNS) - 1), cell=_JUNK)
def test_one_bad_cell_is_reported_at_its_line_and_column(line, column, cell):
    if not _is_fault(cell, column):
        return
    lines = _valid_left_text().splitlines()
    cells = lines[line - 1].split(",")
    cells[column] = cell
    lines[line - 1] = ",".join(cells)
    with pytest.raises(MalformedRow) as err:
        parse_hand_csv("\n".join(lines) + "\n", Handedness.LEFT)
    assert (err.value.line, err.value.column) == (line, CSV_COLUMNS[column])


def _outcome(read, text):
    """What a reader gives for the text: its records as bytes, or its exception's type and message."""
    try:
        records = read(text)
    except EngineError as exc:
        return type(exc), str(exc)
    return [(type(ts), ts, obs.handedness, obs.palm_position.tobytes(), obs.palm_normal.tobytes(),
             obs.palm_velocity.tobytes(), obs.grab_strength.hex(), obs.fingertips.tobytes())
            for ts, obs in records]


def _read_line_by_line(text):
    return _parse_hand_lines(text.splitlines(), Handedness.LEFT)


def _read(text):
    return parse_hand_csv(text, Handedness.LEFT)


@st.composite
def _decimal(draw):
    """A decimal of up to 25 digits: sign, '.5' and '5.' forms, exponent, space or tab padding."""
    digits = draw(st.text("0123456789", min_size=1, max_size=25))
    point = draw(st.none() | st.integers(0, len(digits)))
    if point is not None:
        digits = digits[:point] + "." + digits[point:]
    exponent = draw(st.sampled_from(["", "e", "E"]))
    if exponent:
        exponent += draw(st.sampled_from(["", "+", "-"])) + str(draw(st.integers(0, 400)))
    pad = st.sampled_from(["", " ", "\t", "  "])
    return draw(pad) + draw(st.sampled_from(["", "+", "-"])) + digits + exponent + draw(pad)


_ASCII = st.one_of(st.sampled_from(["\x00", "\x1f", "\x7f"]), st.characters(max_codepoint=127))
_ODD_CELLS = st.one_of(
    _CELLS,
    st.floats().map(repr),
    _decimal(),
    st.just("1_0"),
    _ASCII,
    st.tuples(_ASCII, st.sampled_from(["1", "0.5", "-2e1"]), st.booleans()).map(
        lambda t: t[0] + t[1] if t[2] else t[1] + t[0]),
    st.sampled_from(["٣", "\U000e2bc8", "1٣", "\U000e2bc8" + "1"]),
    st.characters(min_codepoint=128),
)


def _with_cell(line: int, column: int, edit) -> str:
    lines = _valid_left_text().splitlines()
    cells = lines[line - 1].split(",")
    cells[column] = edit(cells[column])
    lines[line - 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=None)
def _valid_rows() -> tuple:
    return tuple(_valid_left_text().splitlines()[1:13])


@st.composite
def _odd_csv(draw):
    """Text from `_csv_like`, or a valid file with some cells swapped for odd ones, a line inserted or rows cut."""
    if draw(st.integers(0, 3)) == 0:
        return draw(_csv_like())
    rows = [row.split(",") for row in _valid_rows()]
    if draw(st.integers(0, 3)) == 0:     # timestamps past int64 in every row
        for cells in rows:
            cells[0] = str(int(cells[0]) + 2**63)
    for k, column, cell in draw(st.lists(st.tuples(st.integers(0, len(rows) - 1), st.integers(0, len(CSV_COLUMNS) - 1),
                                                   _ODD_CELLS), max_size=4)):
        rows[k][column] = cell
    lines = [",".join(cells) for cells in rows]
    if draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", " ", "\t", " \t "])))
    return "\n".join([CSV_HEADER] + lines[:draw(st.integers(0, len(lines)))]) + draw(st.sampled_from(["", "\n", "\n\n"]))


@settings(PROPERTY, max_examples=400)
@example(text=CSV_HEADER + "\n")
@example(text=CSV_HEADER + "\n\n")
@example(text=CSV_HEADER + "\n \t\n")
@example(text=_with_cell(2, 1, lambda cell: cell + "\x1f"))      # numpy strips \x1f, `float` rejects it
@example(text=_with_cell(2, 0, lambda cell: "\U000e2bc8"))      # numpy's int parser can crash on it
@example(text=_with_cell(41, 0, lambda cell: "\u01fe"))          # and read this as 462 (glibc, x86-64)
@example(text=_with_cell(41, 0, lambda cell: str(2**63)))
@given(text=_odd_csv())
def test_parse_gives_what_the_line_by_line_reader_gives(text):
    assert _outcome(_read, text) == _outcome(_read_line_by_line, text)
