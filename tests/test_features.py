import math

import numpy as np
import pytest

from hge import (
    DEFAULT_CONFIG,
    STAGE2_SIGNATURE,
    STAGE3_SIGNATURE,
    FeatureVector,
    FingerSpread,
    Frame,
    FrameStream,
    GrabOutOfRange,
    Handedness,
    InsufficientWindow,
    NonUnitNormal,
    PalmOrientation,
    PalmShape,
    TooFewSamples,
    TrajectoryKind,
    classify_palm_shape,
    classify_trajectory,
    estimate_frequency,
    extract_feature_vector,
    finger_spread,
    generate,
    inter_palm_distance,
    make_canonical_script,
    make_stage3_script,
    match_signature,
    palm_opposition,
)
from hge.frame_model import NORMAL_TOLERANCE
from hge.synth import OcclusionModel
from dataclasses import replace

from helpers import (NAN_ROW, chord_oracle, facing_frames, make_hand, random_plane_basis, random_rotation,
                     random_unit, sinusoid)


class TestPalmOpposition:
    def test_exact_opposition(self):
        r = palm_opposition((0, 1, 0), (0, -1, 0))
        assert r.resultant_magnitude == pytest.approx(0.0, abs=1e-12)
        assert r.facing

    def test_parallel_normals(self):
        r = palm_opposition((0, 1, 0), (0, 1, 0))
        assert r.resultant_magnitude == pytest.approx(2.0, abs=1e-12)
        assert not r.facing

    def test_small_angle_matches_chord_oracle(self):
        a = (math.sin(0.2), math.cos(0.2), 0.0)
        b = (0.0, -1.0, 0.0)
        expected = chord_oracle(a, b)          # 2*sin(0.1) ~ 0.1997
        assert expected == pytest.approx(2 * math.sin(0.1), abs=1e-12)
        r = palm_opposition(a, b)
        assert r.resultant_magnitude == pytest.approx(expected, abs=1e-9)
        assert r.facing

    def test_chord_oracle_over_random_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            a, b = random_unit(rng), random_unit(rng)
            r = palm_opposition(a, b)
            assert abs(r.resultant_magnitude - chord_oracle(a, b)) <= 1e-9
            assert 0.0 <= r.resultant_magnitude <= 2.0 + 1e-12
            assert r.facing == (r.resultant_magnitude < 0.4)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            a, b = random_unit(rng), random_unit(rng)
            rot = random_rotation(rng)
            base = palm_opposition(a, b).resultant_magnitude
            rotated = palm_opposition(rot @ a, rot @ b).resultant_magnitude
            assert abs(base - rotated) <= 1e-9

    def test_rejects_non_unit_input(self):
        with pytest.raises(NonUnitNormal):
            palm_opposition((0, 1.01, 0), (0, -1, 0))

    def test_matches_the_norm_formula(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            a = random_unit(rng)
            # near-opposed pairs as often as arbitrary ones: small resultants are the facing case
            b = random_unit(rng) if rng.random() < 0.5 else -a + rng.normal(0.0, 0.05, 3)
            b /= np.linalg.norm(b)
            r = palm_opposition(a, b)
            assert r.resultant_magnitude == pytest.approx(float(np.linalg.norm(a + b)), rel=1e-12, abs=1e-12)


class TestPalmShape:
    def test_endpoints(self):
        assert classify_palm_shape(0.0) == PalmShape.FLAT
        assert classify_palm_shape(1.0) == PalmShape.CURVED

    def test_boundary_inclusive_flat(self):
        assert classify_palm_shape(0.3) == PalmShape.FLAT
        assert classify_palm_shape(0.300001) == PalmShape.CURVED

    def test_monotone(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            g1, g2 = sorted(rng.uniform(0, 1, 2))
            if classify_palm_shape(g2) == PalmShape.FLAT:
                assert classify_palm_shape(g1) == PalmShape.FLAT

    def test_out_of_range(self):
        with pytest.raises(GrabOutOfRange):
            classify_palm_shape(-0.1)
        with pytest.raises(GrabOutOfRange):
            classify_palm_shape(1.1)


def tips_spaced(spacing, n=5):
    return tuple(np.array([k * spacing, 0.0, 0.0]) for k in range(n))


class TestFingerSpread:
    def test_wide_open(self):
        dist, spread = finger_spread(tips_spaced(20.0))
        assert dist == pytest.approx(20.0)
        assert spread == FingerSpread.OPEN

    def test_closed(self):
        dist, spread = finger_spread(tips_spaced(5.0))
        assert dist == pytest.approx(5.0)
        assert spread == FingerSpread.CLOSED

    def test_threshold(self):
        assert finger_spread(tips_spaced(17.0))[1] == FingerSpread.OPEN
        assert finger_spread(tips_spaced(16.9))[1] == FingerSpread.CLOSED

    def test_only_thumb_unknown(self):
        tips = (np.zeros(3), NAN_ROW, NAN_ROW, NAN_ROW, NAN_ROW)
        dist, spread = finger_spread(tips)
        assert dist is None
        assert spread == FingerSpread.UNKNOWN

    def test_single_pair_reports_distance_but_unknown(self):
        tips = (np.zeros(3), np.array([12.0, 0, 0]), NAN_ROW, NAN_ROW, NAN_ROW)
        dist, spread = finger_spread(tips)
        assert dist == pytest.approx(12.0)
        assert spread == FingerSpread.UNKNOWN

    def test_non_adjacent_gaps_ignored(self):
        # wide thumb-index gap, missing middle: index-middle and middle-ring pairs vanish
        tips = (np.zeros(3), np.array([30.0, 0, 0]), NAN_ROW,
                np.array([60.0, 0, 0]), np.array([75.0, 0, 0]))
        dist, spread = finger_spread(tips)
        assert dist == pytest.approx(15.0)   # ring-pinky
        assert spread == FingerSpread.CLOSED


class TestInterPalmDistance:
    def test_axis_aligned(self):
        assert inter_palm_distance((0, 200, 0), (100, 200, 0)) == pytest.approx(100.0)

    def test_identical_points(self):
        assert inter_palm_distance((5, 5, 5), (5, 5, 5)) == 0.0

    def test_3_4_5(self):
        assert inter_palm_distance((0, 0, 0), (3, 4, 0)) == pytest.approx(5.0)

    def test_matches_the_norm_formula(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            a, b = rng.uniform(-500, 500, (2, 3))
            assert inter_palm_distance(a, b) == pytest.approx(float(np.linalg.norm(a - b)), rel=1e-12)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            a, b, c = rng.uniform(-300, 300, (3, 3))
            assert inter_palm_distance(a, b) == pytest.approx(inter_palm_distance(b, a))
            assert inter_palm_distance(a, c) <= inter_palm_distance(a, b) + inter_palm_distance(b, c) + 1e-9


def circle_points(radius, n=50, u=(1, 0, 0), v=(0, 0, 1), center=(0, 200, 0)):
    u, v, center = np.asarray(u, float), np.asarray(v, float), np.asarray(center, float)
    ang = np.linspace(0, 2 * math.pi, n, endpoint=False)
    return center + radius * (np.outer(np.cos(ang), u) + np.outer(np.sin(ang), v))


class TestTrajectory:
    def test_perfect_circle(self):
        assert classify_trajectory(circle_points(50.0)) == TrajectoryKind.CIRCULAR

    def test_collinear_points(self):
        pts = np.outer(np.linspace(0, 80, 50), np.array([1.0, 0, 0]))
        assert classify_trajectory(pts) == TrajectoryKind.LINEAR

    def test_noisy_circle(self):
        rng = np.random.default_rng(11)
        pts = circle_points(50.0) + rng.normal(0, 2.0, (50, 3))
        assert classify_trajectory(pts) == TrajectoryKind.CIRCULAR

    def test_stationary(self):
        rng = np.random.default_rng(12)
        pts = np.array([100.0, 200.0, 0.0]) + rng.normal(0, 0.02, (50, 3))
        assert classify_trajectory(pts) == TrajectoryKind.INDETERMINATE

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            classify_trajectory(circle_points(50.0, n=9))

    def test_lines_in_all_directions(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            d = random_unit(rng)
            pts = np.outer(np.linspace(0, rng.uniform(30, 150), 40), d) + rng.uniform(-100, 100, 3)
            assert classify_trajectory(pts) == TrajectoryKind.LINEAR

    def test_circles_in_all_orientations(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            u, v = random_plane_basis(rng)
            r = rng.uniform(5, 200)
            pts = circle_points(r, n=60, u=u, v=v, center=rng.uniform(-100, 100, 3))
            assert classify_trajectory(pts) == TrajectoryKind.CIRCULAR


class TestFrequency:
    def test_sine_2hz(self):
        pos, ts = sinusoid(2.0, 30.0, 3.0, 100.0)
        est = estimate_frequency(pos, ts)
        assert est == pytest.approx(2.0, abs=0.1)

    def test_constant_position_has_no_frequency(self):
        pos, ts = sinusoid(2.0, 0.0, 2.0, 100.0)
        assert estimate_frequency(pos, ts) is None

    def test_band_edge_3_6hz(self):
        pos, ts = sinusoid(3.6, 30.0, 3.0, 100.0)
        est = estimate_frequency(pos, ts)
        assert est == pytest.approx(3.6, abs=0.15)
        # in-band as the detector judges it: band edges widened by estimator tolerance
        lo, hi = STAGE2_SIGNATURE.frequency_range_hz
        tol = DEFAULT_CONFIG.rub_freq_tolerance_hz
        assert lo - tol <= est <= hi + tol

    def test_small_amplitude_absent(self):
        pos, ts = sinusoid(2.0, 2.0, 3.0, 100.0)
        assert estimate_frequency(pos, ts) is None

    def test_short_window_rejected(self):
        pos, ts = sinusoid(2.0, 30.0, 0.5, 100.0)
        with pytest.raises(TooFewSamples):
            estimate_frequency(pos, ts)

    def test_low_rate_rejected(self):
        pos, ts = sinusoid(2.0, 30.0, 3.0, 100.0)
        with pytest.raises(TooFewSamples):
            estimate_frequency(pos[::4], ts[::4])


def stage2_rub_window():
    script = replace(make_canonical_script(rub_frequency_hz=2.0, rub_duration_s=3.0),
                     occlusion_model=OcclusionModel.NONE)
    stream, labels = generate(script)
    frames = [f for f, lab in zip(stream.frames, labels) if lab == "rub_circular"]
    return FrameStream(frames)


class TestExtractFeatureVector:
    def test_stage2_window(self):
        v = extract_feature_vector(stage2_rub_window())
        assert v.palm_orientation == PalmOrientation.FACING_EACH_OTHER
        assert v.palm_shape_left == PalmShape.FLAT and v.palm_shape_right == PalmShape.FLAT
        assert v.finger_spread_left == FingerSpread.CLOSED
        assert v.finger_spread_right == FingerSpread.CLOSED
        assert v.trajectory == TrajectoryKind.CIRCULAR
        assert 0.8 <= v.movement_frequency_hz <= 3.6
        assert v.inter_palm_distance_mm is not None

    def test_stage3_window(self):
        stream, _ = generate(make_stage3_script())
        v = extract_feature_vector(stream)
        assert v.palm_orientation == PalmOrientation.ONE_PALM_OVER_OTHER
        assert v.palm_shape_left == PalmShape.FLAT and v.palm_shape_right == PalmShape.FLAT
        assert v.finger_spread_left == FingerSpread.OPEN
        assert v.finger_spread_right == FingerSpread.OPEN
        assert v.trajectory == TrajectoryKind.LINEAR

    def test_single_hand_window_has_other_orientation(self):
        frames = [Frame(t, (make_hand(Handedness.RIGHT, palm=(0, 200, t / 10.0)),))
                  for t in range(0, 1500, 10)]
        v = extract_feature_vector(FrameStream(frames))
        assert v.palm_orientation == PalmOrientation.OTHER
        assert v.inter_palm_distance_mm is None
        assert v.palm_shape_left is None

    def test_short_window_rejected(self):
        frames = [Frame(t, (make_hand(Handedness.RIGHT),)) for t in range(0, 500, 10)]
        with pytest.raises(InsufficientWindow):
            extract_feature_vector(FrameStream(frames))

    def test_observations_with_one_tracked_pair_do_not_vote_on_spread(self):
        wide_pair = (np.array([0.0, 200.0, 80.0]), np.array([30.0, 200.0, 80.0]), NAN_ROW, NAN_ROW, NAN_ROW)
        frames = [Frame(t, (make_hand(Handedness.RIGHT, tips=wide_pair) if t % 30 else
                            make_hand(Handedness.RIGHT, tip_spacing=10.0),))
                  for t in range(0, 1500, 10)]
        v = extract_feature_vector(FrameStream(frames))
        assert v.finger_spread_right == FingerSpread.CLOSED
        assert v.finger_spread_left == FingerSpread.UNKNOWN

    def test_spread_tie_goes_to_open(self):
        frames = [Frame(t, (make_hand(Handedness.RIGHT, tip_spacing=25.0 if t % 20 else 10.0),))
                  for t in range(0, 1500, 10)]
        assert extract_feature_vector(FrameStream(frames)).finger_spread_right == FingerSpread.OPEN

    def test_normals_at_right_angles_do_not_vote_stacked(self):
        # |A+B| = sqrt(2) is neither facing nor near-parallel, whatever the displacement
        shared = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
        frames = [Frame(t, (make_hand(Handedness.LEFT, palm=(0.0, 200.0, 0.0), normal=(0.0, 1.0, 0.0)),
                            make_hand(Handedness.RIGHT, palm=np.array([0.0, 200.0, 0.0]) + 60.0 * shared,
                                      normal=(1.0, 0.0, 0.0))))
                  for t in range(0, 1500, 10)]
        assert extract_feature_vector(FrameStream(frames)).palm_orientation == PalmOrientation.OTHER

    def test_non_unit_normal_in_a_two_hand_frame_rejected(self):
        frames = facing_frames(150)
        left, right = frames[40].hands
        frames[40] = Frame(frames[40].timestamp, (left, replace(right, palm_normal=np.array([-1.01, 0.0, 0.0]))))
        with pytest.raises(NonUnitNormal, match="normal_right"):
            extract_feature_vector(FrameStream(frames))

    @pytest.mark.parametrize("k", [0, 73, 149])
    @pytest.mark.parametrize("bad", [{Handedness.LEFT}, {Handedness.RIGHT}, {Handedness.LEFT, Handedness.RIGHT}])
    def test_non_unit_normal_named_as_palm_opposition_names_it(self, k, bad):
        frames = facing_frames(150)
        scale = 1.0 + 1.5 * NORMAL_TOLERANCE
        hands = tuple(replace(h, palm_normal=h.palm_normal * scale) if h.handedness in bad else h
                      for h in frames[k].hands)
        frames[k] = Frame(frames[k].timestamp, hands)
        if k < 149:     # a later frame's other hand must not be the one named
            late = frames[k + 1].hands
            frames[k + 1] = Frame(frames[k + 1].timestamp, tuple(
                h if h.handedness in bad else replace(h, palm_normal=h.palm_normal * scale) for h in late))
        with pytest.raises(NonUnitNormal) as direct:
            palm_opposition(hands[0].palm_normal, hands[1].palm_normal)
        with pytest.raises(NonUnitNormal) as windowed:
            extract_feature_vector(FrameStream(frames))
        assert str(windowed.value) == str(direct.value)
        assert str(direct.value).startswith("normal_left" if Handedness.LEFT in bad else "normal_right")

    def test_sparse_hands_rejected(self):
        frames = [Frame(t, (make_hand(Handedness.RIGHT),) if t % 50 == 0 else ())
                  for t in range(0, 2000, 10)]
        with pytest.raises(InsufficientWindow):
            extract_feature_vector(FrameStream(frames))


def vector(**overrides):
    base = dict(
        palm_orientation=PalmOrientation.FACING_EACH_OTHER,
        palm_shape_left=PalmShape.FLAT,
        palm_shape_right=PalmShape.FLAT,
        finger_spread_left=FingerSpread.CLOSED,
        finger_spread_right=FingerSpread.CLOSED,
        trajectory=TrajectoryKind.CIRCULAR,
        movement_frequency_hz=2.0,
        inter_palm_distance_mm=15.0,
        window_span_s=3.0,
    )
    base.update(overrides)
    return FeatureVector(**base)


def test_stage2_bands_come_from_the_config():
    assert STAGE2_SIGNATURE.frequency_range_hz == (DEFAULT_CONFIG.rub_freq_min_hz, DEFAULT_CONFIG.rub_freq_max_hz)
    assert STAGE2_SIGNATURE.frequency_range_hz == (0.8, 3.6)


class TestMatchSignature:
    def test_stage2_vector_matches_stage2(self):
        assert match_signature(vector(), STAGE2_SIGNATURE) == (True, 1.0)

    def test_stage2_vector_rejected_by_stage3(self):
        match, score = match_signature(vector(), STAGE3_SIGNATURE)
        assert not match
        assert score == 0.0   # orientation and spread both fail

    def test_unknown_spread_halves_score(self):
        v = vector(finger_spread_left=FingerSpread.UNKNOWN,
                   finger_spread_right=FingerSpread.UNKNOWN)
        match, score = match_signature(v, STAGE2_SIGNATURE)
        assert not match
        assert score == 0.5

    def test_contradicted_shape_blocks_match_without_hurting_score(self):
        v = vector(palm_shape_left=PalmShape.CURVED)
        match, score = match_signature(v, STAGE2_SIGNATURE)
        assert not match
        assert score == 1.0

    def test_absent_frequency_not_contradicting(self):
        assert match_signature(vector(movement_frequency_hz=None), STAGE2_SIGNATURE) == (True, 1.0)

    def test_out_of_band_frequency_blocks(self):
        assert not match_signature(vector(movement_frequency_hz=5.0), STAGE2_SIGNATURE)[0]

    def test_signatures_mutually_exclusive_on_known_vectors(self):
        rng = np.random.default_rng(15)
        orientations = list(PalmOrientation)
        spreads = [FingerSpread.OPEN, FingerSpread.CLOSED]
        shapes = list(PalmShape)
        trajectories = list(TrajectoryKind)
        for _ in range(300):
            v = vector(
                palm_orientation=orientations[rng.integers(len(orientations))],
                finger_spread_left=spreads[rng.integers(2)],
                finger_spread_right=spreads[rng.integers(2)],
                palm_shape_left=shapes[rng.integers(2)],
                palm_shape_right=shapes[rng.integers(2)],
                trajectory=trajectories[rng.integers(3)],
                movement_frequency_hz=float(rng.uniform(0, 5)),
            )
            m2, _ = match_signature(v, STAGE2_SIGNATURE)
            m3, _ = match_signature(v, STAGE3_SIGNATURE)
            assert not (m2 and m3)
