import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hge import (
    CSV_HEADER,
    EngineError,
    Frame,
    Handedness,
    HeaderMismatch,
    FrameStream,
    MalformedRow,
    NonMonotonicTimestamp,
    build_dataset,
    detect_stage2,
    generate,
    make_canonical_script,
    merge_hand_streams,
    parse_csv_stream,
    parse_hand_csv,
    write_csv_stream,
)

from hge.frame_model import MERGE_WINDOW_MS, _parse_hand_lines

from helpers import NAN_ROW, brute_force_max_pairs, make_hand, stream_scalars
from test_ingest_properties import PROPERTY


class TestMerge:
    def records(self, timestamps, handedness):
        return [(t, make_hand(handedness)) for t in timestamps]

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
            ts = [f.timestamp for f in stream.frames]
            assert ts == sorted(set(ts)), "merged timestamps must strictly increase"
            pairs = n_l + n_r - len(stream.frames)
            assert pairs == brute_force_max_pairs(left, right, 5)
            assert max(n_l, n_r) <= len(stream.frames) <= n_l + n_r
            for f in stream.frames:
                kinds = [o.handedness for o in f.hands]
                assert len(kinds) == len(set(kinds))

    def test_non_monotonic_input_rejected(self):
        with pytest.raises(NonMonotonicTimestamp):
            merge_hand_streams(self.records([10, 10], Handedness.LEFT), [])

    def merged_times(self, left, right):
        """Each frame as (left timestamp or None, right timestamp or None)."""
        left, right = self.records(left, Handedness.LEFT), self.records(right, Handedness.RIGHT)
        stamp = {id(o): t for t, o in left + right}
        return [tuple(stamp[id(o)] if o else None for o in (f.hand(Handedness.LEFT), f.hand(Handedness.RIGHT)))
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
    left = [(t, make_hand(Handedness.LEFT)) for t in left]
    right = [(t, make_hand(Handedness.RIGHT)) for t in right]
    frames = merge_hand_streams(left, right).frames
    stamps = [f.timestamp for f in frames]
    assert all(a < b for a, b in zip(stamps, stamps[1:]))
    frame_of = {}
    for f in frames:
        for obs in f.hands:
            assert id(obs) not in frame_of
            frame_of[id(obs)] = f
    assert len(frame_of) == len(left) + len(right)
    right_at = {t: obs for t, obs in right}
    for t, obs in left:
        if t in right_at:
            assert frame_of[id(obs)] is frame_of[id(right_at[t])]
    unused = [t for t, obs in right if frame_of[id(obs)].hand_count == 1]
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
        assert messages == ["line 5, column normal_x: |palm_normal| = inf deviates more than 0.001"] * 2

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
        records = parse_hand_csv(text, Handedness.LEFT)
        tips = records[1][1].fingertips
        assert tips.shape == (5, 3)
        assert np.isnan(tips).all(axis=1).tolist() == [False, True, False, False, False]
        assert not np.isnan(tips[[0, 2, 3, 4]]).any()
        assert all(np.isfinite(obs.fingertips).all() for _, obs in (records[0], records[2]))
        np.testing.assert_array_equal(tips[2], [1.0, 2.0, 3.0])

    def test_empty_stream_writes_header_only(self):
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


def test_slice_ms_matches_a_scan_of_every_frame():
    stream, _ = generate(make_canonical_script(rub_duration_s=2.0, seed=3))
    first, last = stream.frames[0].timestamp, stream.frames[-1].timestamp
    rng = np.random.default_rng(11)
    bounds = [(first, last), (first - 50, first), (last, last + 1), (last + 1, last + 99), (500, 400)]
    bounds += [tuple(int(b) for b in rng.integers(first - 20, last + 20, size=2)) for _ in range(200)]
    for start, end in bounds:
        got = stream.slice_ms(start, end)
        assert got.frames == [f for f in stream.frames if start <= f.timestamp < end]


def test_no_layer_writes_into_the_shared_fingertip_block():
    # ingest hands out views of one block, which a write anywhere would corrupt
    stream = parse_csv_stream(*write_csv_stream(generate(make_canonical_script(noise_sigma=1.0, seed=6))[0]))
    tips = [obs.fingertips for f in stream.frames for obs in f.hands]
    assert all(t.base is not None for t in tips)
    for t in tips:
        t.setflags(write=False)
    detect_stage2(stream)
    build_dataset([(stream.slice_ms(t, t + 1500), "x") for t in range(0, 3500, 500)])
    write_csv_stream(stream)
