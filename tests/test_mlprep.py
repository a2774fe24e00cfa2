from dataclasses import replace

import numpy as np
import pytest

from hge import (
    FingerSpread,
    Frame,
    FrameStream,
    Handedness,
    InsufficientWindow,
    OcclusionModel,
    build_dataset,
    extract_feature_vector,
    finger_spread,
    generate,
    inter_palm_distance,
    make_canonical_script,
    make_stage3_script,
    rows_to_csv,
)
from hge.mlprep import DATASET_HEADER

from helpers import make_hand


def static_two_hand_window(grab=0.6, tip_spacing=25.66, n=120, dt=10):
    frames = []
    for i in range(n):
        left = make_hand(Handedness.LEFT, palm=(-60, 200, 0), normal=(1, 0, 0),
                         grab=grab, tip_spacing=tip_spacing)
        right = make_hand(Handedness.RIGHT, palm=(60, 200, 0), normal=(-1, 0, 0),
                          grab=grab, tip_spacing=tip_spacing)
        frames.append(Frame(i * dt, (left, right)))
    return FrameStream(frames)


def sample_numbers(rows):
    return [line.split(",")[0] for line in rows_to_csv(rows).splitlines()[1:]]


class TestBuildDataset:
    def test_sample_row_reproduces_measured_values(self):
        window = static_two_hand_window(grab=0.6, tip_spacing=25.66)
        rows = build_dataset([(window, "Hands Palm to palm")])
        assert len(rows) == 1
        vector, label = rows[0]
        assert sample_numbers(rows) == ["1"]
        assert vector.hand_curvature_left == pytest.approx(0.6)
        assert vector.hand_curvature_right == pytest.approx(0.6)
        assert vector.fingertip_distance_left == pytest.approx(25.66)
        assert vector.fingertip_distance_right == pytest.approx(25.66)
        assert label == "Hands Palm to palm"

    def test_empty_input_empty_dataset(self):
        assert build_dataset([]) == []

    def test_sample_numbers_contiguous(self):
        w = static_two_hand_window()
        rows = build_dataset([(w, "Hands Palm to palm"),
                              (w, "Palm to Palm with fingers interlocked")])
        assert sample_numbers(rows) == ["1", "2"]
        assert rows[1][1] == "Palm to Palm with fingers interlocked"

    def test_rerun_is_byte_identical(self):
        stream, labels = generate(make_canonical_script(noise_sigma=1.0, seed=6))
        window = stream.slice_ms(0, 1500)
        csv_a = rows_to_csv(build_dataset([(window, "Hands Palm to palm")]))
        csv_b = rows_to_csv(build_dataset([(window, "Hands Palm to palm")]))
        assert csv_a == csv_b

    def test_numeric_cells_finite(self):
        stream, _ = generate(make_canonical_script(noise_sigma=1.0, seed=7))
        rows = build_dataset([(stream.slice_ms(0, 1500), "a"), (stream.slice_ms(1000, 3000), "b")])
        for vector, _ in rows:
            for value in (vector.hand_curvature_left, vector.hand_curvature_right,
                          vector.fingertip_distance_left, vector.fingertip_distance_right,
                          vector.movement_frequency_hz, vector.inter_palm_distance_mm):
                if value is not None:
                    assert np.isfinite(value)
            assert 0.0 <= vector.hand_curvature_right <= 1.0

    def test_insufficient_window_reports_index(self):
        good = static_two_hand_window()
        tiny = FrameStream(good.frames[:5])
        with pytest.raises(InsufficientWindow) as err:
            build_dataset([(good, "a"), (tiny, "b")])
        assert "window 1" in str(err.value)

    def test_empty_label_rejected(self):
        with pytest.raises(ValueError):
            build_dataset([(static_two_hand_window(), "")])

    def test_missing_hand_gives_empty_cells(self):
        frames = [Frame(i * 10, (make_hand(Handedness.RIGHT),)) for i in range(120)]
        row = build_dataset([(FrameStream(frames), "x")])[0]
        assert row[0].hand_curvature_left is None
        csv_text = rows_to_csv([row])
        assert csv_text.splitlines()[1].split(",")[1] == ""


def synthetic_windows():
    """3 s windows over a canonical rub and a stage-3 session, with some tips untracked."""
    rub, _ = generate(make_canonical_script(noise_sigma=1.5, seed=12))
    stage3, _ = generate(make_stage3_script(seed=13))
    windows = [s.slice_ms(t, t + 3000) for s in (rub, stage3)
               for t in range(0, s.frames[-1].timestamp - 2000, 500)]
    frames = list(windows[1].frames)
    for k in range(0, len(frames), 7):
        obs = frames[k].hands[0]
        tips = obs.fingertips.copy()
        tips[[0, 2] if k % 2 else slice(None)] = np.nan   # thumb and middle, or every tip
        frames[k] = Frame(frames[k].timestamp, (replace(obs, fingertips=tips),) + frames[k].hands[1:])
    windows[1] = FrameStream(frames)
    return windows


class TestAgainstScalarFeatures:
    """The window arrays give what the per-observation functions give."""

    def test_dataset_aggregates_match_finger_spread_and_grab(self):
        windows = synthetic_windows()
        rows = build_dataset([(w, "x") for w in windows])
        for window, (row, _) in zip(windows, rows):
            vector = extract_feature_vector(window)
            frames = window.frames
            for hand, curv, ftd, v_curv, v_ftd in (
                    (Handedness.LEFT, row.hand_curvature_left, row.fingertip_distance_left,
                     vector.hand_curvature_left, vector.fingertip_distance_left),
                    (Handedness.RIGHT, row.hand_curvature_right, row.fingertip_distance_right,
                     vector.hand_curvature_right, vector.fingertip_distance_right)):
                assert (curv, ftd) == (v_curv, v_ftd)
                observations = [o for f in frames for o in f.hands if o.handedness == hand]
                gaps = [finger_spread(o.fingertips)[0] for o in observations]
                gaps = [g for g in gaps if g is not None]
                if not observations:
                    assert curv is None and ftd is None
                    continue
                assert curv == pytest.approx(np.mean([o.grab_strength for o in observations]), rel=1e-12)
                assert ftd == pytest.approx(np.mean(gaps), rel=1e-12)

    def test_spread_is_the_majority_of_finger_spread_verdicts(self):
        for window in synthetic_windows():
            vector = extract_feature_vector(window)
            frames = window.frames
            for hand, got in ((Handedness.LEFT, vector.finger_spread_left),
                              (Handedness.RIGHT, vector.finger_spread_right)):
                votes = [finger_spread(o.fingertips)[1] for f in frames for o in f.hands
                         if o.handedness == hand]
                opens, closed = votes.count(FingerSpread.OPEN), votes.count(FingerSpread.CLOSED)
                expected = (FingerSpread.UNKNOWN if not opens + closed
                            else FingerSpread.OPEN if opens >= closed else FingerSpread.CLOSED)
                assert got == expected

    def test_inter_palm_distance_is_the_mean_over_two_hand_frames(self):
        # unoccluded noisy rubs keep two hands in every frame, so each window has many pairs
        unoccluded = [generate(replace(make_canonical_script(noise_sigma=1.0, seed=seed),
                                       occlusion_model=OcclusionModel.NONE))[0] for seed in range(5)]
        canonical = [s.slice_ms(t, t + 1500) for s in unoccluded for t in (0, 1500, 3000)]
        for window in synthetic_windows() + canonical:
            pairs = [(f.hand(Handedness.LEFT), f.hand(Handedness.RIGHT)) for f in window.frames]
            distances = [inter_palm_distance(l.palm_position, r.palm_position)
                         for l, r in pairs if l is not None and r is not None]
            got = extract_feature_vector(window).inter_palm_distance_mm
            if distances:
                assert got == np.mean(distances)
            else:
                assert got is None


class TestCsvShape:
    def test_header(self):
        assert rows_to_csv([]).splitlines()[0] == DATASET_HEADER
        assert DATASET_HEADER == "sample_no,curv_l,curv_r,ftd_l,ftd_r,orient,traj,freq_hz,ipd_mm,label"

    def test_row_cells(self):
        window = static_two_hand_window(grab=0.6, tip_spacing=25.66)
        text = rows_to_csv(build_dataset([(window, "Hands Palm to palm")]))
        cells = text.splitlines()[1].split(",")
        assert cells[0] == "1"
        assert cells[1] == "0.6"
        assert cells[3] == "25.66"
        assert cells[-1] == "Hands Palm to palm"
