import dataclasses
import math
import re
import tracemalloc
import warnings
from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hge import (
    CSV_HEADER,
    EngineError,
    Frame,
    HandObservation,
    Handedness,
    HeaderMismatch,
    FrameStream,
    MalformedRow,
    NonMonotonicTimestamp,
    build_dataset,
    detect_stage2,
    drop_frames,
    generate,
    make_ablation_stream,
    make_canonical_script,
    merge_hand_streams,
    parse_csv_stream,
    parse_hand_csv,
    write_csv_stream,
)

from hge.frame_model import (_BLOCK_FRAMES, _GRAB, _TIPS, MAX_TIMESTAMP_MS, MERGE_WINDOW_MS, SIDES, FrameTable,
                             _hand_row, _parse_hand_lines)
from hge.synth import ABLATIONS, GestureScript, PhaseKind, PhaseSpec

from helpers import NAN_ROW, brute_force_max_pairs, hand_records, make_hand, stream_scalars
from test_ingest_properties import PROPERTY


class TestMerge:
    def records(self, timestamps, handedness):
        return hand_records(handedness, timestamps)

    def test_equal_timestamps_merge(self):
        stream = merge_hand_streams(self.records([0, 10, 20], Handedness.LEFT),
                                    self.records([0, 10, 20], Handedness.RIGHT))
        assert [f.timestamp for f in stream.frames] == [0, 10, 20]
        assert all(f.hand_count == 2 for f in stream.frames)

    def test_unmatched_becomes_single_hand(self):
        stream = merge_hand_streams(self.records([0, 10], Handedness.LEFT),
                                    self.records([0], Handedness.RIGHT))
        assert [(f.timestamp, f.hand_count) for f in stream.frames] == [(0, 2), (10, 1)]
        assert stream.frames[1].hands[0].handedness == Handedness.LEFT

    def test_window_merge_uses_left_timestamp(self):
        left, right = [10], [14]
        assert brute_force_max_pairs(left, right, 5) == 1   # 4 ms <= 5 ms window
        stream = merge_hand_streams(self.records(left, Handedness.LEFT),
                                    self.records(right, Handedness.RIGHT))
        assert [(f.timestamp, f.hand_count) for f in stream.frames] == [(10, 2)]

    def test_just_outside_window_stays_split(self):
        stream = merge_hand_streams(self.records([10], Handedness.LEFT),
                                    self.records([16], Handedness.RIGHT))
        assert [(f.timestamp, f.hand_count) for f in stream.frames] == [(10, 1), (16, 1)]

    def test_matches_brute_force_on_random_device_like_streams(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n_l, n_r = rng.integers(0, 9, size=2)
            left = list(np.cumsum(rng.integers(9, 12, size=n_l)) + 100)
            right = list(np.cumsum(rng.integers(9, 12, size=n_r)) + 100 + rng.integers(-4, 5))
            stream = merge_hand_streams(self.records(left, Handedness.LEFT),
                                        self.records(right, Handedness.RIGHT))
            frames = stream.frames
            ts = [f.timestamp for f in frames]
            assert ts == sorted(set(ts)), "merged timestamps must strictly increase"
            pairs = n_l + n_r - len(frames)
            assert pairs == brute_force_max_pairs(left, right, 5)
            assert max(n_l, n_r) <= len(frames) <= n_l + n_r
            for f in frames:
                kinds = [o.handedness for o in f.hands]
                assert len(kinds) == len(set(kinds))

    def test_non_monotonic_input_rejected(self):
        with pytest.raises(NonMonotonicTimestamp):
            merge_hand_streams(self.records([10, 10], Handedness.LEFT), self.records([], Handedness.RIGHT))

    def merged_times(self, left, right):
        """Each frame as (left timestamp or None, right timestamp or None)."""
        left, right = self.records(left, Handedness.LEFT), self.records(right, Handedness.RIGHT)
        return [tuple(int(o.palm_position[0]) if o else None for o in (f.hand(Handedness.LEFT), f.hand(Handedness.RIGHT)))
                for f in merge_hand_streams(left, right).frames]

    def test_missing_right_record_does_not_shift_later_pairs(self):
        # at 200 FPS the window also holds the neighbouring frame; L5 must not take L10's partner
        assert self.merged_times([0, 5, 10, 15, 20], [0, 10, 15, 20]) == [
            (0, 0), (5, None), (10, 10), (15, 15), (20, 20)]

    def test_equal_timestamps_pair_even_where_a_larger_matching_exists(self):
        assert brute_force_max_pairs([5, 9], [0, 5], 5) == 2
        assert self.merged_times([5, 9], [0, 5]) == [(None, 0), (5, 5), (9, None)]


_STAMPS = st.lists(st.integers(0, 120), max_size=25, unique=True).map(sorted)


@PROPERTY
@given(left=_STAMPS, right=_STAMPS)
def test_merge_keeps_its_rule_on_any_sorted_timestamps(left, right):
    """Checked on the frames built from the merged table; a palm's x is its record's timestamp."""
    frames = merge_hand_streams(hand_records(Handedness.LEFT, left), hand_records(Handedness.RIGHT, right)).frames
    stamps = [f.timestamp for f in frames]
    assert all(a < b for a, b in zip(stamps, stamps[1:]))
    frame_of = {}
    for f in frames:
        assert [obs.handedness for obs in f.hands] in ([Handedness.LEFT], [Handedness.RIGHT], list(Handedness))
        for obs in f.hands:
            record = (obs.handedness, int(obs.palm_position[0]))
            assert record not in frame_of
            frame_of[record] = f
    assert len(frame_of) == len(left) + len(right)
    for t in left:
        assert frame_of[Handedness.LEFT, t].timestamp == t
        if t in right:
            assert frame_of[Handedness.LEFT, t] is frame_of[Handedness.RIGHT, t]
    unused = [t for t in right if frame_of[Handedness.RIGHT, t].hand_count == 1]
    for f in frames:
        if f.hand_count == 1 and f.hands[0].handedness == Handedness.LEFT:
            assert all(abs(t - f.timestamp) > MERGE_WINDOW_MS for t in unused)


class TestCsv:
    def rows(self, timestamps, grab=0.1):
        lines = [CSV_HEADER]
        for t in timestamps:
            palm = "0.0,200.0,0.0"
            normal = "0.0,1.0,0.0"
            vel = "0.0,0.0,0.0"
            tips = ",".join(["1.0,2.0,3.0"] * 5)
            lines.append(f"{t},{palm},{normal},{vel},{grab},{tips}")
        return "\n".join(lines) + "\n"

    def test_two_rows_each_merge_exactly(self):
        stream = parse_csv_stream(self.rows([0, 10]), self.rows([0, 10]))
        assert len(stream.frames) == 2
        assert all(f.hand_count == 2 for f in stream.frames)

    def test_file_empty_beyond_header_is_fine(self):
        stream = parse_csv_stream(self.rows([0, 10]), CSV_HEADER + "\n")
        assert [(f.timestamp, f.hand_count) for f in stream.frames] == [(0, 1), (10, 1)]
        assert all(f.hands[0].handedness == Handedness.LEFT for f in stream.frames)

    def test_malformed_cell_names_line_and_column(self):
        text = self.rows([0, 10]).replace("10,0.0,200.0", "10,abc,200.0")
        with pytest.raises(MalformedRow) as err:
            parse_hand_csv(text, Handedness.LEFT)
        assert err.value.line == 3
        assert err.value.column == "palm_x"

    def test_header_mismatch(self):
        with pytest.raises(HeaderMismatch):
            parse_hand_csv("nope\n", Handedness.LEFT)

    def test_non_monotonic_rows_rejected_with_line(self):
        with pytest.raises(NonMonotonicTimestamp) as err:
            parse_hand_csv(self.rows([10, 10]), Handedness.LEFT)
        assert err.value.line == 3

    def test_out_of_range_grab_is_malformed_row(self):
        with pytest.raises(MalformedRow) as err:
            parse_hand_csv(self.rows([0], grab=1.5), Handedness.LEFT)
        assert err.value.column == "grab_strength"

    def with_cell(self, text, line, column, value):
        lines = text.splitlines()
        cells = lines[line - 1].split(",")
        cells[column] = value
        lines[line - 1] = ",".join(cells)
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("early, column", [
        ((10, "1.5"), "grab_strength"),
        ((4, "0.5"), "normal_x"),
        ((1, "inf"), "palm_x"),
    ])
    def test_earlier_value_fault_wins_over_later_row_fault(self, early, column):
        text = self.with_cell(self.rows(range(0, 100, 10)), 5, *early)
        lines = text.splitlines()
        lines[8] += ",7"    # line 9 gets a 27th cell
        with pytest.raises(MalformedRow) as err:
            parse_hand_csv("\n".join(lines) + "\n", Handedness.LEFT)
        assert (err.value.line, err.value.column) == (5, column)

    def test_huge_normal_component_is_malformed_without_a_warning(self):
        text = self.with_cell(self.rows(range(0, 100, 10)), 5, 4, "1e200")
        messages = []
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for parse in (lambda: parse_hand_csv(text, Handedness.LEFT),
                          lambda: _parse_hand_lines(text.splitlines(), Handedness.LEFT)):
                with pytest.raises(MalformedRow) as err:
                    parse()
                messages.append(str(err.value))
        assert messages == ["line 5, column normal_x: value '1e200' is not below 1e+16 in magnitude"] * 2

    @pytest.mark.parametrize("column, cell, blank_tip", [
        (1, "1e16", False), (9, "-1e300", False), (11, "12345678901234567", False), (2, "1e16", True),
    ])
    def test_value_of_1e16_or_more_is_malformed(self, column, cell, blank_tip):
        text = self.with_cell(self.rows(range(0, 100, 10)), 5, column, cell)
        for k in range(23, 26) if blank_tip else ():     # a blank pinky sends the row to _careful_cells
            text = self.with_cell(text, 5, k, "")
        for parse in (lambda: parse_hand_csv(text, Handedness.LEFT),
                      lambda: _parse_hand_lines(text.splitlines(), Handedness.LEFT)):
            with pytest.raises(MalformedRow) as err:
                parse()
            assert str(err.value) == (f"line 5, column {CSV_HEADER.split(',')[column]}: "
                                      f"value {cell!r} is not below 1e+16 in magnitude")
        records = parse_hand_csv(self.with_cell(self.rows(range(0, 100, 10)), 5, column, "-9999999999999998.0"),
                                 Handedness.LEFT)
        assert records.block[3, column - 1] == -9999999999999998.0

    @pytest.mark.parametrize("blank_tip", [False, True])
    def test_timestamp_of_2_53_or_more_is_malformed(self, blank_tip):
        start = MAX_TIMESTAMP_MS - 30
        text = self.rows(range(start, start + 50, 10))
        for k in range(23, 26) if blank_tip else ():     # a blank pinky sends the file to the line-by-line reader
            text = self.with_cell(text, 2, k, "")
        for parse in (lambda: parse_hand_csv(text, Handedness.LEFT),
                      lambda: _parse_hand_lines(text.splitlines(), Handedness.LEFT)):
            with pytest.raises(MalformedRow) as err:
                parse()
            assert str(err.value) == f"line 5, column timestamp_ms: timestamp not below {2**53}"

    @pytest.mark.parametrize("blank_tip", [False, True])
    def test_largest_timestamp_round_trips(self, blank_tip):
        tips = [(1.0, 2.0, 3.0)] * 4 + [NAN_ROW if blank_tip else (4.0, 5.0, 6.0)]
        stamps = [0, 2**52, 2**53 - 1]
        stream = FrameStream([Frame(t, (make_hand(Handedness.RIGHT, tips=tips),)) for t in stamps])
        back = parse_csv_stream(*write_csv_stream(stream))
        assert [f.timestamp for f in back.frames] == stamps
        assert np.array_equal(stream_scalars(back), stream_scalars(stream), equal_nan=True)

    def test_earlier_row_fault_wins_over_later_value_fault(self):
        text = self.with_cell(self.rows(range(0, 100, 10)), 9, 10, "1.5")
        text = self.with_cell(text, 5, 0, "x")
        with pytest.raises(MalformedRow) as err:
            parse_hand_csv(text, Handedness.LEFT)
        assert (err.value.line, err.value.column) == (5, "timestamp_ms")

    def test_later_timestamp_fault_does_not_hide_value_fault(self):
        text = self.with_cell(self.rows(range(0, 100, 10)), 5, 6, "nan")
        text = self.with_cell(text, 7, 0, "0")
        with pytest.raises(MalformedRow) as err:
            parse_hand_csv(text, Handedness.LEFT)
        assert (err.value.line, err.value.column) == (5, "normal_z")

    def test_untracked_fingertips_parse_as_nan_rows_beside_tracked_rows(self):
        text = self.with_cell(self.rows([0, 10, 20]), 3, 14, "")
        text = self.with_cell(text, 3, 15, " ")
        text = self.with_cell(text, 3, 16, "")
        tips = parse_hand_csv(text, Handedness.LEFT).block[:, _TIPS:].reshape(-1, 5, 3)
        assert np.isnan(tips[1]).all(axis=1).tolist() == [False, True, False, False, False]
        assert not np.isnan(tips[1, [0, 2, 3, 4]]).any()
        assert np.isfinite(tips[[0, 2]]).all()
        np.testing.assert_array_equal(tips[1, 2], [1.0, 2.0, 3.0])

    def test_empty_stream_writes_header_only(self):
        assert FrameStream([]).table.timestamps.dtype == np.int64
        left, right = write_csv_stream(FrameStream([]))
        assert left == CSV_HEADER + "\n"
        assert right == CSV_HEADER + "\n"

    def test_single_hand_frame_lands_in_one_file(self):
        frame = Frame(5, (make_hand(Handedness.RIGHT),))
        left, right = write_csv_stream(FrameStream([frame]))
        assert left == CSV_HEADER + "\n"
        assert right.count("\n") == 2 and right.startswith(CSV_HEADER)

    def test_missing_fingertips_round_trip(self):
        tips = ((1.0, 2.0, 3.0), NAN_ROW, (4.0, 5.0, 6.0), NAN_ROW, NAN_ROW)
        frame = Frame(0, (make_hand(Handedness.LEFT, tips=tips),))
        left, right = write_csv_stream(FrameStream([frame]))
        assert left.splitlines()[1].endswith(",1.0,2.0,3.0,,,,4.0,5.0,6.0,,,,,,")
        back = parse_csv_stream(left, right)
        np.testing.assert_array_equal(back.frames[0].hands[0].fingertips, np.array(tips))

    @pytest.mark.parametrize("tip", [(1.0, math.nan, 2.0), (math.nan, 1.0, 2.0)])
    def test_partly_nan_fingertip_is_not_written(self, tip):
        # [1, nan, 2] used to be written as a cell its reader rejects, [nan, 1, 2] as an untracked tip
        tips = ((1.0, 2.0, 3.0), tip, NAN_ROW, (4.0, 5.0, 6.0), NAN_ROW)
        stream = FrameStream([Frame(40, (make_hand(Handedness.RIGHT, tips=tips),))])
        message = f"timestamp 40, Right hand: index fingertip {list(tip)} must be all finite or all NaN"
        with pytest.raises(EngineError, match=re.escape(message)):
            write_csv_stream(stream)

    @pytest.mark.parametrize("field, column, value", [
        ("palm", "palm_y", math.inf), ("velocity", "vel_z", -math.inf), ("normal", "normal_x", math.nan),
    ])
    def test_non_finite_value_is_not_written(self, field, column, value):
        vector = [0.0, 1.0, 0.0]
        vector["xyz".index(column[-1])] = value
        stream = FrameStream([Frame(7, (make_hand(Handedness.LEFT, **{field: vector}),))])
        with pytest.raises(EngineError, match=re.escape(f"timestamp 7, Left hand: {column} = {value!r} is not finite")):
            write_csv_stream(stream)

    @pytest.mark.parametrize("column", ["palm_x", "vel_y", "thumb_z"])
    @pytest.mark.parametrize("value", [1e16, -1e300])
    def test_value_of_1e16_or_more_is_not_written(self, column, value):
        def stream(v):
            vectors = {"palm": [0.0, 200.0, 0.0], "vel": [0.0, 0.0, 0.0], "thumb": [1.0, 2.0, 3.0]}
            vectors[column[:-2]]["xyz".index(column[-1])] = v
            hand = make_hand(Handedness.RIGHT, palm=vectors["palm"], velocity=vectors["vel"],
                             tips=[vectors["thumb"]] * 5)
            return FrameStream([Frame(7, (hand,))])

        message = f"timestamp 7, Right hand: {column} = {value!r} is not below 1e+16 in magnitude"
        with pytest.raises(EngineError, match=re.escape(message)):
            write_csv_stream(stream(value))
        largest = stream(math.copysign(9999999999999998.0, value))
        assert np.array_equal(stream_scalars(parse_csv_stream(*write_csv_stream(largest))), stream_scalars(largest))

    @pytest.mark.parametrize("ts, message", [
        (2**53, f"timestamp {2**53}, Left hand: timestamp_ms is outside [0, {2**53})"),
        (-1, f"timestamp -1, Left hand: timestamp_ms is outside [0, {2**53})"),
        # the stream's int64 timestamps cannot hold these, so it refuses them where it is built
        (10**400, f"frame at {10**400} ms: the timestamp is not an integer int64 holds"),
        (2**63, f"frame at {2**63} ms: the timestamp is not an integer int64 holds"),
        (1.5, "frame at 1.5 ms: the timestamp is not an integer int64 holds"),
    ], ids=["2**53", "-1", "10**400", "2**63", "1.5"])
    def test_timestamp_the_reader_rejects_is_not_written(self, ts, message):
        with pytest.raises(EngineError, match=re.escape(message)):
            write_csv_stream(FrameStream([Frame(ts, (make_hand(Handedness.LEFT),))]))

    @pytest.mark.parametrize("stamps, hand, message", [
        ([0, 7], {"grab": 1.5}, "grab_strength 1.5 outside [0, 1]"),
        ([0, 7], {"grab": -0.25}, "grab_strength -0.25 outside [0, 1]"),
        ([0, 7], {"normal": (0.0, 2.0, 0.0)}, "|palm_normal| = 2.000000 deviates more than 0.001"),
        ([0, 7], {"normal": (0.0, 0.998, 0.0)}, "|palm_normal| = 0.998000 deviates more than 0.001"),
        ([0, 7, 7], {}, "timestamps not strictly increasing"),
        ([0, 7, 3], {}, "timestamps not strictly increasing"),
    ], ids=["grab 1.5", "grab -0.25", "normal 2", "normal 0.998", "repeated", "earlier"])
    def test_grab_normal_or_time_order_the_reader_rejects_is_not_written(self, stamps, hand, message):
        # each was once written to a file its reader then refused
        hands = [make_hand(Handedness.LEFT)] * (len(stamps) - 1) + [make_hand(Handedness.LEFT, **hand)]
        # FrameStream(frames) refuses frames out of time order, so the timestamps go into the table
        table = FrameStream([Frame(k, (obs,)) for k, obs in enumerate(hands)]).table
        stream = FrameStream(table=table._replace(timestamps=np.array(stamps, np.int64)))
        rows = [_hand_row(t, Handedness.LEFT, values) for t, values in zip(stamps, stream.table.blocks[0].tolist())]
        line = len(stamps) + 1
        with pytest.raises((MalformedRow, NonMonotonicTimestamp), match=f"line {line}.*{re.escape(message)}"):
            parse_hand_csv("\n".join([CSV_HEADER] + rows) + "\n", Handedness.LEFT)
        with pytest.raises(EngineError, match=f"^{re.escape(f'timestamp {stamps[-1]}, Left hand: {message}')}$"):
            write_csv_stream(stream)
        assert write_csv_stream(FrameStream(stream.frames[:-1]))[0] == "\n".join([CSV_HEADER] + rows[:-1]) + "\n"

    def test_partial_fingertip_cells_rejected(self):
        text = self.rows([0])
        # blank out one coordinate of the thumb triple only
        row = text.splitlines()[1].split(",")
        row[12] = ""
        text = CSV_HEADER + "\n" + ",".join(row) + "\n"
        with pytest.raises(MalformedRow) as err:
            parse_hand_csv(text, Handedness.LEFT)
        assert err.value.column == "thumb_y"

    def test_round_trip_is_exact_on_synthetic_streams(self):
        for seed in (0, 1, 2):
            stream, _ = generate(make_canonical_script(noise_sigma=1.5, seed=seed, rub_duration_s=2.0))
            left, right = write_csv_stream(stream)
            back = parse_csv_stream(left, right)
            assert len(back.frames) == len(stream.frames)
            a, b = stream_scalars(stream), stream_scalars(back)
            assert a.shape == b.shape
            mask = ~np.isnan(a)
            assert np.array_equal(np.isnan(a), np.isnan(b))
            assert np.max(np.abs(a[mask] - b[mask])) <= 1e-6


def _merged(stream):
    """A stream as ingest returns it: a frame table, no frame built yet."""
    return parse_csv_stream(*write_csv_stream(stream))


def _noisy_canonical():
    return generate(make_canonical_script(rub_duration_s=2.0, seed=3, noise_sigma=1.0))[0]


@pytest.mark.parametrize("make", [
    _noisy_canonical,
    lambda: _merged(_noisy_canonical()),
    lambda: FrameStream(_noisy_canonical().frames),
], ids=["generated", "ingested", "built_from_frames"])
def test_slice_ms_matches_a_scan_of_every_frame(make):
    stream = make()
    frames = stream.frames
    first, last = frames[0].timestamp, frames[-1].timestamp
    rng = np.random.default_rng(12)
    bounds = [(first, last), (first - 50, first), (last, last + 1), (last + 1, last + 99), (500, 400),
              (-10**30, 10**30), (2**63, 2**64)]
    bounds += [tuple(int(b) for b in rng.integers(first - 20, last + 20, size=2)) for _ in range(100)]
    for start, end in bounds:
        got = stream.slice_ms(start, end)
        expected = [f for f in frames if start <= f.timestamp < end]
        assert len(got) == len(expected)
        assert np.array_equal(stream_scalars(got), stream_scalars(FrameStream(expected)))


def test_a_frame_with_two_hands_of_one_side_is_refused_when_the_stream_is_built():
    # merge_hand_streams never makes one; a frame built in code can, and the table has no row for it
    frames = [Frame(t, (make_hand(Handedness.LEFT), make_hand(Handedness.RIGHT))) for t in range(0, 3000, 10)]
    frames[150] = Frame(1500, (make_hand(Handedness.RIGHT), make_hand(Handedness.LEFT), make_hand(Handedness.LEFT)))
    with pytest.raises(EngineError, match="frame at 1500 ms holds more than one Left hand"):
        FrameStream(frames)
    frames[150] = Frame(1500, (make_hand(Handedness.RIGHT), make_hand(Handedness.RIGHT)))
    with pytest.raises(EngineError, match="frame at 1500 ms holds more than one Right hand"):
        FrameStream(frames)


@pytest.mark.parametrize("stamps, message", [
    ([30, 10, 20], "frame at 10 ms is not after the frame at 30 ms"),
    ([0, 10, 10], "frame at 10 ms is not after the frame at 10 ms"),
], ids=["earlier", "repeated"])
def test_frames_out_of_time_order_are_refused_when_the_stream_is_built(stamps, message):
    # slice_ms binary-searches the timestamps: on 30, 10, 20 ms, slice_ms(15, 35) gave only the frame at 20 ms
    with pytest.raises(EngineError, match=f"^{re.escape(message)}$"):
        FrameStream([Frame(t, (make_hand(Handedness.LEFT),)) for t in stamps])


def test_no_layer_writes_into_the_shared_fingertip_block():
    # the table, the windows sliced from it and every observation read one block per hand,
    # which a write anywhere would corrupt
    stream = parse_csv_stream(*write_csv_stream(generate(make_canonical_script(noise_sigma=1.0, seed=6))[0]))
    for block in stream.table.blocks:
        block.setflags(write=False)
    tips = [obs.fingertips for f in stream.frames for obs in f.hands]
    assert all(t.base is not None and not t.flags.writeable for t in tips)
    detect_stage2(stream)
    build_dataset([(stream.slice_ms(t, t + 1500), "x") for t in range(0, 3500, 500)])
    write_csv_stream(stream)


class TestFramesAreNotKept:
    def test_a_stream_keeps_only_its_table(self):
        stream = _noisy_canonical()
        first = stream.frames
        assert vars(stream).keys() == {"table"}
        second = stream.frames
        assert first is not second and not any(a is b for a, b in zip(first, second))
        assert [_frame_values(f) for f in first] == [_frame_values(f) for f in second]

    def test_records_are_slotted_and_replace_still_works(self):
        frame = Frame(10, (make_hand(Handedness.LEFT),))
        obs = frame.hands[0]
        assert not hasattr(frame, "__dict__") and not hasattr(obs, "__dict__")
        moved = dataclasses.replace(obs, grab_strength=0.5)
        assert moved.grab_strength == 0.5 and moved.palm_position is obs.palm_position
        later = dataclasses.replace(frame, timestamp=20)
        assert later.timestamp == 20 and later.hands == frame.hands


def _mixed_frames(n):
    """n frames 10 ms apart, mostly two-handed; one-hand and handless frames sit at each chunk edge."""
    edges = {_BLOCK_FRAMES - 2: "L", _BLOCK_FRAMES - 1: "", _BLOCK_FRAMES: "R", _BLOCK_FRAMES + 1: "",
             2 * _BLOCK_FRAMES - 1: "R", 2 * _BLOCK_FRAMES: "L"}
    frames = []
    for k in range(n):
        hands = {"L": make_hand(Handedness.LEFT, palm=(k, 200.0, 0.0), grab=k / 1000),
                 "R": make_hand(Handedness.RIGHT, palm=(-k, 200.0, 0.0), tips=[NAN_ROW] + [(k, 0.0, 1.0)] * 4)}
        frames.append(Frame(10 * k, tuple(hands[side] for side in edges.get(k, "LR"))))
    return frames


def _frame_values(frame):
    return frame.timestamp, [(o.handedness, o.palm_position.tobytes(), o.palm_normal.tobytes(),
                              o.palm_velocity.tobytes(), o.grab_strength, o.fingertips.tobytes()) for o in frame.hands]


def _one_pass_frames(table):
    """Each frame of a table built from its block rows in one pass, as the frames were before chunking."""
    return [Frame(t, tuple(HandObservation(side, block[r, 0:3], block[r, 3:6], block[r, 6:9], float(block[r, _GRAB]),
                                           block[r, _TIPS:].reshape(5, 3))
                           for side, block, r in zip(SIDES, table.blocks, row) if r >= 0))
            for t, row in zip(table.timestamps.tolist(), table.rows.tolist())]


def _chunked_tables(n):
    """Tables of `_mixed_frames(n)`: all of it, a slice, every 7th frame, and all with the Right block reversed."""
    table = FrameStream(_mixed_frames(n)).table
    right = table.rows[:, 1]
    rows = np.column_stack([table.rows[:, 0], np.where(right >= 0, len(table.blocks[1]) - 1 - right, -1)])
    return [table, FrameStream(table=table).slice_ms(1000, 4000).table,
            FrameTable(table.timestamps[::7], table.rows[::7], table.blocks),
            FrameTable(table.timestamps, rows, (table.blocks[0], table.blocks[1][::-1]))]


@pytest.mark.parametrize("n", [0, 1, _BLOCK_FRAMES - 1, _BLOCK_FRAMES, _BLOCK_FRAMES + 1, 2 * _BLOCK_FRAMES + 1])
def test_frames_built_a_chunk_at_a_time_equal_a_one_pass_build(n):
    for table in _chunked_tables(n):
        frames = FrameStream(table=table).frames
        assert [_frame_values(f) for f in frames] == [_frame_values(f) for f in _one_pass_frames(table)]
        for obs in (o for f in frames for o in f.hands):
            block = table.blocks[SIDES.index(obs.handedness)]
            assert all(np.shares_memory(v, block) for v in (obs.palm_position, obs.palm_normal, obs.palm_velocity,
                                                             obs.fingertips))


def _facing_hold(seconds):
    return generate(GestureScript((PhaseSpec(PhaseKind.FACING_HOLD, seconds),), fps=200.0))[0]


class TestFrameView:
    """`FrameStream.frames` is a read-only sequence that builds the frames read and keeps none."""

    @pytest.fixture(scope="class")
    def long_stream(self):
        return _facing_hold(600.0)     # 120,000 frames, once about 150 MB as a list

    @pytest.fixture
    def built(self, monkeypatch):
        """The timestamp of each Frame built while the test runs."""
        built = []
        init = Frame.__init__

        def counted(self, timestamp, hands=()):
            built.append(timestamp)
            init(self, timestamp, hands)

        monkeypatch.setattr(Frame, "__init__", counted)
        return built

    def test_len_and_an_index_build_at_most_one_frame(self, long_stream, built):
        frames = long_stream.frames
        stamps = long_stream.table.timestamps
        assert isinstance(frames, Sequence) and len(frames) == len(long_stream) == 120_000
        assert built == []
        for k in (0, -1, 1, 255, 256, 60_000, 119_999, -120_000, -256):
            built.clear()
            frame = frames[k]
            assert built == [frame.timestamp] == [stamps[k]] and frame.hand_count == 2
        built.clear()
        assert frames[np.int64(7)].timestamp == stamps[7] and len(built) == 1

    @pytest.mark.parametrize("k", [120_000, 120_001, -120_001, 2**63, -2**70])
    def test_an_index_past_either_end_raises_index_error(self, long_stream, built, k):
        with pytest.raises(IndexError):
            long_stream.frames[k]
        assert built == []

    def test_a_slice_builds_only_its_frames(self, long_stream, built):
        frames = long_stream.frames
        stamps = long_stream.table.timestamps
        for index in (slice(1000, 1010), slice(None, None, 40_000), slice(-3, None), slice(10, 10), slice(5, 2, -1)):
            built.clear()
            got = frames[index]
            assert type(got) is list and built == [f.timestamp for f in got] == stamps[index].tolist()

    def test_it_is_read_only(self):
        frames = _noisy_canonical().frames
        with pytest.raises(TypeError):
            frames[0] = frames[1]
        assert not hasattr(frames, "append") and not hasattr(frames, "__dict__")

    @pytest.mark.parametrize("make", [
        _noisy_canonical,
        lambda: _merged(_noisy_canonical()),
        lambda: drop_frames(_noisy_canonical(), 0.3, seed=2),
        *[lambda name=name: make_ablation_stream(name, noise_sigma=1.0) for name in ABLATIONS],
    ], ids=["generated", "merged", "drop_frames", *ABLATIONS])
    def test_slices_and_iteration_match_the_eager_list(self, make):
        stream = make()
        eager = _one_pass_frames(stream.table)
        assert [_frame_values(f) for f in list(stream.frames)] == [_frame_values(f) for f in eager]
        n = len(eager)
        for index in (slice(None), slice(3, 40), slice(-50, None), slice(None, None, 7), slice(None, None, -3),
                      slice(n - 10, 10, -9), slice(5, 5), slice(-10**9, 10**9), slice(1, None, 300),
                      slice(_BLOCK_FRAMES - 1, 2 * _BLOCK_FRAMES + 2, 2)):
            assert np.array_equal(stream_scalars(stream.frames[index]), stream_scalars(eager[index]))
        for k in (0, 1, n // 2, -1, -n):
            assert _frame_values(stream.frames[k]) == _frame_values(eager[k])

    def test_iterating_holds_one_chunk_at_any_length(self, long_stream):
        def traced_peak(stream):
            tracemalloc.start()
            try:
                for _ in stream.frames:
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert traced_peak(long_stream) < traced_peak(_facing_hold(60.0)) + 2**16


@pytest.mark.parametrize("n", [0, 1, _BLOCK_FRAMES - 1, _BLOCK_FRAMES, _BLOCK_FRAMES + 1, 2 * _BLOCK_FRAMES + 1])
def test_the_writer_equals_one_join_of_every_row(n):
    for table in _chunked_tables(n):
        lines = [CSV_HEADER], [CSV_HEADER]
        for t, row in zip(table.timestamps.tolist(), table.rows.tolist()):
            for side, block, r, out in zip(SIDES, table.blocks, row, lines):
                if r >= 0:
                    out.append(_hand_row(t, side, block[r].tolist()))
        assert write_csv_stream(FrameStream(table=table)) == tuple("\n".join(out) + "\n" for out in lines)


@pytest.mark.parametrize("right_at,left_at,reported", [
    (100, 200, "timestamp 1000, Right hand: vel_x = inf is not finite"),
    (100, _BLOCK_FRAMES + 100, "timestamp 1000, Right hand: vel_x = inf is not finite"),
    (_BLOCK_FRAMES + 100, 100, "timestamp 1000, Left hand: palm_x = nan is not finite"),
])
def test_the_writer_reports_the_earlier_frames_fault_within_and_across_chunks(right_at, left_at, reported):
    table = FrameStream(_mixed_frames(2 * _BLOCK_FRAMES + 1)).table
    table.blocks[1][table.rows[right_at, 1], 6] = math.inf
    table.blocks[0][table.rows[left_at, 0], 0] = math.nan
    with pytest.raises(EngineError, match=re.escape(reported)):
        write_csv_stream(FrameStream(table=table))


@pytest.mark.parametrize("right_at,left_at,reported", [
    (100, 200, "timestamp 1000, Right hand: grab_strength 2.0 outside [0, 1]"),
    (_BLOCK_FRAMES + 100, 100, "timestamp 1000, Left hand: |palm_normal| = 5.000000 deviates more than 0.001"),
    (100, 100, "timestamp 1000, Left hand: |palm_normal| = 5.000000 deviates more than 0.001"),
    (100, None, "timestamp 1000, Right hand: grab_strength 2.0 outside [0, 1]"),
])
def test_the_writer_reports_the_first_grab_or_normal_fault_within_and_across_chunks(right_at, left_at, reported):
    table = FrameStream(_mixed_frames(2 * _BLOCK_FRAMES + 1)).table
    table.blocks[1][table.rows[right_at, 1], _GRAB] = 2.0
    if left_at is not None:
        table.blocks[0][table.rows[left_at, 0], 4] = 5.0
    with pytest.raises(EngineError, match=re.escape(reported)):
        write_csv_stream(FrameStream(table=table))


@pytest.mark.parametrize("right_at,left_at,reported", [
    (300, 270, "timestamp 2700, Left hand: palm_x = nan is not finite"),
    (270, 300, "timestamp 2700, Right hand: grab_strength 2.0 outside [0, 1]"),
    (300, 300, "timestamp 3000, Left hand: palm_x = nan is not finite"),
])
def test_the_writer_reports_the_earlier_frames_fault_when_the_left_file_is_longer(right_at, left_at, reported):
    # the Right hand is in every third frame only, so a fault's row in its file does not order it against the Left's
    table = FrameStream(_mixed_frames(2 * _BLOCK_FRAMES + 1)).table
    rows = table.rows.copy()
    rows[np.arange(len(rows)) % 3 > 0, 1] = -1
    table = table._replace(rows=rows)
    left, right = write_csv_stream(FrameStream(table=table))
    assert left.count("\n") > 2 * right.count("\n")
    table.blocks[1][rows[right_at, 1], _GRAB] = 2.0
    table.blocks[0][rows[left_at, 0], 0] = math.nan
    with pytest.raises(EngineError, match=f"^{re.escape(reported)}$"):
        write_csv_stream(FrameStream(table=table))


@pytest.mark.parametrize("fault, reported", [
    # frame 256 opens the second chunk and holds the Right hand only; the Right hand was last at frame 253
    ({"ts": 2530}, "timestamp 2530, Right hand: timestamps not strictly increasing"),
    # in time order for each hand, though not for the frames: the reader takes it
    ({"ts": 2531}, None),
    # a value fault in an earlier frame comes first
    ({"ts": 2530, "left_nan": 253}, "timestamp 2530, Left hand: palm_x = nan is not finite"),
    # within a row, time order comes before the values, and the values before the grab and the normal
    ({"ts": 2530, "right_grab": 256, "right_palm": math.inf},
     "timestamp 2530, Right hand: timestamps not strictly increasing"),
    ({"right_grab": 256, "right_palm": math.inf}, "timestamp 2560, Right hand: palm_x = inf is not finite"),
    ({"right_grab": 256, "right_normal": 1e300},
     "timestamp 2560, Right hand: normal_y = 1e+300 is not below 1e+16 in magnitude"),
])
def test_the_writer_meets_time_order_value_and_grab_faults_in_the_readers_order(fault, reported):
    table = FrameStream(_mixed_frames(2 * _BLOCK_FRAMES + 1)).table
    left, right = table.blocks
    table.timestamps[_BLOCK_FRAMES] = fault.get("ts", table.timestamps[_BLOCK_FRAMES])
    if "left_nan" in fault:
        left[table.rows[fault["left_nan"], 0], 0] = math.nan
    if "right_grab" in fault:
        row = table.rows[fault["right_grab"], 1]
        right[row, _GRAB] = 1.5
        right[row, 0] = fault.get("right_palm", right[row, 0])
        right[row, 4] = fault.get("right_normal", right[row, 4])
    if reported is None:
        assert 2531 in parse_csv_stream(*write_csv_stream(FrameStream(table=table))).table.timestamps
    else:
        with pytest.raises(EngineError, match=f"^{re.escape(reported)}$"):
            write_csv_stream(FrameStream(table=table))
