import math
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    detect_stage2,
    estimate_frequency,
    extract_feature_vector,
    finger_spread,
    generate,
    inter_palm_distance,
    make_canonical_script,
    make_stage3_script,
    match_signature,
    palm_opposition,
    parse_csv_stream,
    write_csv_stream,
)
from hge.features import _mean_rows, _principal_axes, _resultants, symmetric_eigen3
from hge.frame_model import NORMAL_TOLERANCE
from hge.synth import OcclusionModel, drop_frames
from dataclasses import replace

import hge.stage_detector
from helpers import (NAN_ROW, chord_oracle, facing_frames, make_hand, random_plane_basis, random_rotation,
                     random_unit, reference_frequency, sinusoid)
from test_ingest_properties import PROPERTY, _untrack
from test_stage_detector import _SCRIPTS


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

    def test_the_result_keeps_its_fields_and_refuses_assignment(self):
        r = palm_opposition((0, 1, 0), (0, 1, 0))
        assert r._fields == ("resultant_magnitude", "facing")
        assert (r.resultant_magnitude, r.facing) == (2.0, False)
        with pytest.raises(AttributeError):
            r.facing = True
        with pytest.raises(AttributeError):
            r.resultant_magnitude = 0.0


class TestResultants:
    """extract_feature_vector's |A+B| over all two-hand frames at once, against palm_opposition one pair at a time."""

    def normals(self, rng, kind, n=400):
        if kind == "negative_zero":     # unit normals along an axis or in a coordinate plane, zeros of both signs
            v = np.zeros((n, 3))
            for row in v:
                axes = rng.permutation(3)[:rng.integers(1, 3)]
                row[axes] = rng.normal(size=len(axes))
                row /= math.sqrt(float(row @ row))
                row[[a for a in range(3) if a not in axes]] = rng.choice([0.0, -0.0], size=3 - len(axes))
            return v
        v = np.array([random_unit(rng) for _ in range(n)])
        if kind == "near_unit":
            v *= 1.0 + rng.uniform(-0.99, 0.99, size=(n, 1)) * NORMAL_TOLERANCE
        return v

    @pytest.mark.parametrize("kind", ["unit", "near_unit", "negative_zero"])
    def test_equals_the_per_pair_resultant(self, kind):
        rng = np.random.default_rng(sum(map(ord, kind)))
        left = self.normals(rng, kind)
        right = np.where(rng.random((len(left), 1)) < 0.5, -left, self.normals(rng, kind))   # facing pairs too
        summed, magnitude = _resultants(left, right)
        pairs = list(zip(left.tolist(), right.tolist()))
        assert magnitude.tolist() == [palm_opposition(a, b).resultant_magnitude for a, b in pairs]
        assert summed.tolist() == [[x + y for x, y in zip(a, b)] for a, b in pairs]

    @pytest.mark.parametrize("bad", ["left", "right", "both"])
    def test_first_non_unit_pair_is_named_as_the_per_pair_check_names_it(self, bad):
        rng = np.random.default_rng(5)
        left, right = self.normals(rng, "unit", 50), self.normals(rng, "unit", 50)
        scale = 1.0 + 1.5 * NORMAL_TOLERANCE
        left[20] *= scale if bad in ("left", "both") else 1.0
        right[20] *= scale if bad in ("right", "both") else 1.0
        left[30] *= scale      # a later pair's left normal must not be the one named
        with pytest.raises(NonUnitNormal) as direct:
            palm_opposition(left[20].tolist(), right[20].tolist())
        with pytest.raises(NonUnitNormal) as vectorised:
            _resultants(left, right)
        assert str(vectorised.value) == str(direct.value)
        assert str(direct.value).startswith("normal_right" if bad == "right" else "normal_left")


    @pytest.mark.parametrize("bad", ["left", "right"])
    def test_a_nan_normal_is_refused_by_both_checks(self, bad):
        # abs(nan - 1) > tolerance is false, so a NaN normal once passed both
        rng = np.random.default_rng(6)
        left, right = self.normals(rng, "unit", 50), self.normals(rng, "unit", 50)
        (left if bad == "left" else right)[20, 1] = np.nan
        with pytest.raises(NonUnitNormal, match=f"^normal_{bad} has norm nan,") as direct:
            palm_opposition(left[20].tolist(), right[20].tolist())
        with pytest.raises(NonUnitNormal) as vectorised:
            _resultants(left, right)
        assert str(vectorised.value) == str(direct.value)

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

    @pytest.mark.parametrize("shape", [(20, 2), (60,), (20, 3, 1)])
    def test_input_not_n_by_3_rejected(self, shape):
        with pytest.raises(ValueError, match=re.escape("palm_positions must be an (n, 3) array")):
            classify_trajectory(np.zeros(shape))

    @pytest.mark.parametrize("radius", [3.0, 300.0])      # below and above the 5-200 mm band
    def test_circle_radius_outside_band_is_indeterminate(self, radius):
        assert classify_trajectory(circle_points(radius)) == TrajectoryKind.INDETERMINATE

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

    @pytest.mark.parametrize("n_pos, ts, error, message", [
        (3, [0, 10], ValueError, "positions and timestamps must have equal length"),
        (1, [0], TooFewSamples, "need at least 1 s of samples"),
        (3, [500, 500, 500], TooFewSamples, "window has no time extent"),
    ])
    def test_malformed_input_rejected(self, n_pos, ts, error, message):
        with pytest.raises(error, match=message):
            estimate_frequency(np.zeros((n_pos, 3)), ts)


def _outcome(rule, positions, stamps):
    """A frequency rule's return, or the type and text of what it raised."""
    try:
        return rule(positions, stamps)
    except Exception as exc:
        return type(exc), str(exc)


def _rub_windows():
    """1.5 s rubs at 0.5-4.5 Hz and 50, 100 and 200 FPS, along x and along a random axis, σ 0, 1 and 3 mm,
    and a 2.1 Hz triangle wave that crosses through samples at exactly 0."""
    rng = np.random.default_rng(31)
    for fps in (50.0, 100.0, 200.0):
        for hz in np.arange(0.5, 4.6, 0.5):
            for sigma in (0.0, 1.0, 3.0):
                pos, ts = sinusoid(hz, 30.0, 1.5, fps)
                yield pos + rng.normal(0.0, sigma, pos.shape), ts
                turned = (pos - [0.0, 200.0, 0.0]) @ random_rotation(rng).T + rng.uniform(-300.0, 300.0, 3)
                yield turned + rng.normal(0.0, sigma, pos.shape), ts
    # a whole-mm triangle wave along x has an exact mean and axis, so its centre samples are exactly 0: the sign
    # test puts them on the positive side, and a crossing next to one interpolates from or to an exact 0
    swing = np.concatenate([np.arange(0, 12), np.arange(12, -12, -1), np.arange(-12, 0)]) * 2.0
    pos = np.outer(np.tile(swing, 3), [1.0, 0.0, 0.0]) + [0.0, 200.0, 0.0]
    yield pos, np.arange(len(pos)) * 10


def _noise_windows():
    """1.5 s of a still palm under σ 0.5, 1 and 4 mm of noise: dozens of sign changes, most within the debounce."""
    rng = np.random.default_rng(32)
    for fps in (50.0, 100.0, 200.0):
        for sigma in (0.5, 1.0, 4.0):
            for _ in range(4):
                ts = np.rint(np.arange(int(1.5 * fps)) * 1000.0 / fps)
                yield rng.normal([0.0, 200.0, 0.0], sigma, (len(ts), 3)), ts


def _detector_windows(monkeypatch, streams):
    """Copies of every window the detector passes to estimate_frequency over the streams."""
    windows, rule = [], hge.stage_detector.estimate_frequency

    def recording(positions, stamps, config):
        windows.append((positions.copy(), stamps.copy()))
        return rule(positions, stamps, config)

    monkeypatch.setattr(hge.stage_detector, "estimate_frequency", recording)
    for stream in streams:
        detect_stage2(stream)
    monkeypatch.undo()
    return windows


def _sign_changes(window):
    """A window's mean-removed principal-axis signal, as estimate_frequency forms it, and its count of sign changes."""
    centered, _, axes = _principal_axes(np.asarray(window[0], float))
    signal = centered @ axes[2]
    signal = signal - _mean_rows(signal)
    return signal, int(np.count_nonzero((signal[:-1] >= 0) != (signal[1:] >= 0)))


class TestFrequencyMatchesTheWholeArrayRule:
    """estimate_frequency interpolates each sign change in Python floats; reference_frequency does it as whole
    arrays. The two must agree to the bit, in None and in what they raise."""

    def test_rubs(self):
        windows = list(_rub_windows())
        assert len(windows) == 163
        assert np.count_nonzero(_sign_changes(windows[-1])[0] == 0.0) == 6
        for positions, stamps in windows:
            assert _outcome(estimate_frequency, positions, stamps) == _outcome(reference_frequency, positions, stamps)
        # the σ = 0 rubs hold samples a rounding away from zero, whose side the sign test must read the same
        assert any(np.any((0.0 < abs(signal)) & (abs(signal) < 1e-13)) for signal, _ in map(_sign_changes, windows))

    def test_noise(self):
        windows = list(_noise_windows())
        assert np.median([_sign_changes(window)[1] for window in windows]) >= 24
        outcomes = [_outcome(estimate_frequency, p, ts) for p, ts in windows]
        assert outcomes == [_outcome(reference_frequency, p, ts) for p, ts in windows]
        assert any(isinstance(o, float) for o in outcomes) and None in outcomes

    @pytest.mark.parametrize("fps", [50.0, 100.0, 200.0])
    def test_the_detectors_windows_with_dropped_frames(self, monkeypatch, fps):
        streams = [drop_frames(generate(make_canonical_script(noise_sigma=sigma, seed=seed, fps=fps))[0], rate, seed)
                   for sigma in (0.0, 1.0) for rate, seed in ((0.0, 4), (0.1, 5), (0.3, 6))]
        windows = _detector_windows(monkeypatch, streams)
        assert len(windows) > 100
        assert any(len(set(np.diff(ts).tolist())) > 2 for _, ts in windows)     # irregular spacing
        for positions, stamps in windows:
            assert _outcome(estimate_frequency, positions, stamps) == _outcome(reference_frequency, positions, stamps)

    def test_the_detectors_live_views(self, monkeypatch):
        """The detector passes offset views into its position buffer. The rule's outcome on each view, at the call,
        is the whole-array rule's on a copy, also on the first window after the buffer compacts or grows."""
        rule, kinds, last = hge.stage_detector.estimate_frequency, [], {}

        def checking(positions, stamps, config):
            base = positions.base
            offset = (positions.__array_interface__["data"][0] - base.__array_interface__["data"][0]) \
                // positions.strides[0]
            if last.get("base") is not base:
                kinds.append("first" if last.get("base") is None else "grown")
            else:
                kinds.append("compacted" if offset < last["offset"] else "shifted")
            last.update(base=base, offset=offset)
            assert not positions.flags.owndata and positions.flags.c_contiguous
            outcome = _outcome(rule, positions, stamps)
            assert outcome == _outcome(reference_frequency, positions.copy(), stamps.copy())
            return rule(positions, stamps, config)

        monkeypatch.setattr(hge.stage_detector, "estimate_frequency", checking)
        for fps in (50.0, 100.0, 200.0):
            for sigma, seed in ((0.0, 21), (1.0, 22)):
                last.clear()
                detect_stage2(generate(make_canonical_script(noise_sigma=sigma, seed=seed, fps=fps,
                                                             rub_duration_s=6.0))[0])
        assert {"first", "grown", "compacted", "shifted"} <= set(kinds)

    @pytest.mark.parametrize("positions, stamps", [
        (np.zeros((3, 3)), [0, 10]),
        (np.zeros((1, 3)), [0]),
        (np.zeros((3, 3)), [500, 500, 500]),
        sinusoid(2.0, 30.0, 0.5, 100.0),
        sinusoid(2.0, 30.0, 3.0, 25.0),
        (np.zeros((150, 3)), np.arange(150) * 10),
    ], ids=["lengths", "one_sample", "no_extent", "short", "sparse", "still"])
    def test_refusals(self, positions, stamps):
        outcome = _outcome(estimate_frequency, positions, stamps)
        assert outcome == _outcome(reference_frequency, positions, stamps)
        assert outcome is None or issubclass(outcome[0], (ValueError, TooFewSamples))


def assert_eigenpairs(a, evals, evecs):
    """np.linalg.eigh is the reference: values ascending and within 1e-12 of ||a|| of its, residuals as small."""
    a = np.asarray(a, float)
    tol = 1e-12 * np.linalg.norm(a, 2)
    values, vectors = np.array(evals), np.array(evecs)
    assert np.isfinite(values).all() and np.isfinite(vectors).all()
    assert values.tolist() == sorted(values.tolist())
    assert np.abs(values - np.linalg.eigh(a)[0]).max() <= tol
    for value, vector in zip(values, vectors):
        assert np.linalg.norm(a @ vector - value * vector) <= tol
    assert np.abs(vectors @ vectors.T - np.eye(3)).max() <= 1e-12


def random_symmetric(rng, kind):
    """A symmetric 3x3 matrix of the named kind, at a scale drawn from 1e-6 to 1e12."""
    scale = 10.0 ** rng.uniform(-6.0, 12.0)
    rotation, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    values = rng.normal(size=3)
    if kind == "repeated_pair":
        values[1] = values[rng.choice([0, 2])]
    elif kind == "nearly_repeated_pair":
        values[1] = values[0] * (1.0 + 10.0 ** rng.uniform(-16.0, -4.0))
    elif kind == "rank_one":
        values[:2] = 0.0
    elif kind == "near_identity":
        values = 1.0 + values * 10.0 ** rng.uniform(-17.0, -5.0)
    elif kind == "covariance":
        pts = rng.normal(size=(60, 3)) * rng.uniform(0.0, 5.0, 3) @ rotation.T + rng.uniform(-300.0, 300.0, 3)
        centered = pts - pts.mean(axis=0)
        return centered.T @ centered / 60 * scale
    a = (rotation * values) @ rotation.T * scale
    return (a + a.T) / 2.0


class TestSymmetricEigen3:
    @pytest.mark.parametrize("kind", ["general", "repeated_pair", "nearly_repeated_pair", "rank_one",
                                      "near_identity", "covariance"])
    def test_matches_lapack_on_random_matrices(self, kind):
        rng = np.random.default_rng(sum(map(ord, kind)))
        for _ in range(400):
            a = random_symmetric(rng, kind)
            assert_eigenpairs(a, *symmetric_eigen3(a.tolist()))

    @pytest.mark.parametrize("a", [
        np.zeros((3, 3)),
        *(c * np.eye(3) for c in (1e-6, -3.0, 1e12)),
        np.diag([2.0, -1.0, 2.0]),
        np.diag([5.0, 1.0, 3.0]),
        np.outer([1.0, 2.0, 2.0], [1.0, 2.0, 2.0]),
    ], ids=["zero", "1e-6_I", "-3_I", "1e12_I", "diagonal_repeated", "diagonal", "rank_one"])
    def test_degenerate_matrices(self, a):
        assert_eigenpairs(a, *symmetric_eigen3(a.tolist()))

    def test_zero_and_scalar_matrices_are_returned_as_they_are(self):
        for c in (0.0, 7.5):
            evals, evecs = symmetric_eigen3((c * np.eye(3)).tolist())
            assert evals == (c, c, c) and np.array_equal(evecs, np.eye(3))

    def test_spread_that_rounds_to_zero_goes_to_eigh(self):
        # coupled, so the matrix does not split, but hypot(...) / sqrt(6) of the smallest subnormal rounds to 0
        t = 5e-324
        for c in (0.0, 1.0):
            a = np.array([[c, t, 0.0], [t, c, t], [0.0, t, c]])
            evals, evecs = symmetric_eigen3(a.tolist())
            reference_evals, reference_evecs = np.linalg.eigh(a)
            assert evals == tuple(reference_evals.tolist()) and np.array_equal(evecs, reference_evecs.T)

    @pytest.mark.parametrize("uncoupled", [0, 2])
    def test_matrices_that_split_get_lapacks_bits(self, uncoupled):
        # exact synthetic motion in a coordinate plane gives such matrices, and its rotation sweeps can land
        # exactly on the threshold: the detector's events then depend on the last bit, as they did with eigh
        rng = np.random.default_rng(41 + uncoupled)
        others = [k for k in range(3) if k != uncoupled]
        for k in range(2400):
            m = rng.normal(size=(3, 3))
            # the last 400 lie where LAPACK scales a matrix before solving it, at 1e-150 and 1e150
            m *= 10.0 ** rng.uniform(-6.0, 12.0) if k < 2000 else (1e-150, 1e150)[k // 4 % 2]
            a = m + m.T
            a[uncoupled, others] = a[others, uncoupled] = 0.0
            if k % 4 == 1:      # a block LAPACK splits: near-equal diagonal, negligible coupling
                a[others[1], others[1]] = a[others[0], others[0]]
                a[others[0], others[1]] = a[others[1], others[0]] = a[others[0], others[0]] * 1e-17
            elif k % 4 == 2:    # diagonal, with a repeated value
                a = np.diag(rng.permutation([a[0, 0], a[0, 0], a[2, 2]]))
            elif k % 4 == 3:    # only the uncoupled axis moves, as on a line
                a[np.ix_(others, others)] = 0.0
            evals, evecs = symmetric_eigen3(a.tolist())
            reference_evals, reference_evecs = np.linalg.eigh(a)
            assert np.array(evals).tobytes() == reference_evals.tobytes()
            assert np.array(evecs).T.tobytes() == reference_evecs.tobytes()

    @pytest.mark.parametrize("u,v", [((1, 0, 0), (0, 0, 1)), ((0.6, 0.8, 0), (0, 0, 1)),
                                     ((1 / math.sqrt(3),) * 3, (1 / math.sqrt(2), -1 / math.sqrt(2), 0))])
    def test_noiseless_circle_covariance(self, u, v):
        # a sigma = 0 circle over whole turns: a repeated top pair and a zero in the normal direction
        _, evals, axes = _principal_axes(circle_points(50.0, n=150, u=u, v=v))
        centered = circle_points(50.0, n=150, u=u, v=v)
        centered = centered - centered.mean(axis=0)
        assert_eigenpairs(centered.T @ centered / 150, evals, axes)
        assert evals[2] == pytest.approx(1250.0, rel=1e-12) and evals[1] == pytest.approx(1250.0, rel=1e-12)
        assert abs(float(np.dot(axes[0], np.cross(u, v)))) == pytest.approx(1.0, rel=1e-12)


@settings(PROPERTY, max_examples=300)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(70, 400), lead=st.integers(0, 40),
       start_ms=st.one_of(st.integers(0, 10**6), st.integers(2**52, 2**53 - 10**5)),
       offset=st.sampled_from([0.0, 200.0, 1e6]), amplitude=st.sampled_from([0.0, 3.0, 30.0]),
       noise=st.sampled_from([0.05, 1.0]))
def test_frequency_of_a_buffer_view_is_that_of_row_copies(seed, n, lead, start_ms, offset, amplitude, noise):
    """The detector passes row-slice views of its window buffers; the rule gives the same bits as on fresh rows."""
    rng = np.random.default_rng(seed)
    stamps = (start_ms + np.cumsum(rng.integers(1, 25, n))).tolist()
    t = (np.array(stamps) - stamps[0]) / 1000.0
    wave = np.sin(2 * np.pi * rng.uniform(0.3, 5.0) * t)[:, None] * rng.normal(size=3)
    pts = offset + amplitude * wave + rng.normal(0.0, noise, (n, 3))
    # the window sits between rows of other values in larger buffers
    positions, times = rng.normal(size=(lead + n + 7, 3)), rng.normal(size=lead + n + 7)
    positions[lead:lead + n], times[lead:lead + n] = pts, stamps
    view, view_times = positions[lead:lead + n], times[lead:lead + n]

    def frequency(p, ts):
        try:
            return estimate_frequency(p, ts)
        except TooFewSamples as exc:
            return str(exc)

    rows = np.asarray([row.copy() for row in pts])
    assert frequency(view, view_times) == frequency(rows, stamps)
    centered, evals, axes = _principal_axes(view)
    row_centered, row_evals, row_axes = _principal_axes(rows)
    assert np.array_equal(centered, row_centered) and evals == row_evals and axes == row_axes
    reference = pts - pts.mean(axis=0)
    assert np.array_equal(centered, reference)
    # the closed form is not LAPACK bit for bit: it agrees with eigh to within 1e-12 of the covariance's norm
    assert_eigenpairs(reference.T @ reference / n, evals, axes)
    signal = centered @ axes[2]     # the 1-D mean estimate_frequency takes
    assert _mean_rows(signal) == signal.mean()


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


def _features(window):
    """A window's feature values, field by field, or the text of its InsufficientWindow."""
    try:
        v = extract_feature_vector(window)
    except InsufficientWindow as exc:
        return str(exc)
    return [getattr(v, f.name) for f in fields(FeatureVector)]


@settings(PROPERTY, max_examples=40)
@given(script=_SCRIPTS, drop_rate=st.sampled_from([0.0, 0.05, 0.3]), drop_seed=st.integers(0, 1000),
       untracked=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 1), st.integers(0, 4)), max_size=40),
       window_ms=st.sampled_from([700, 1000, 1500, 2500]))
def test_features_of_the_ingested_table_are_those_of_its_frames(script, drop_rate, drop_seed, untracked, window_ms):
    """extract_feature_vector reads a CSV pair's frame table as it reads the same frames built as objects."""
    stream = drop_frames(generate(script)[0], drop_rate, drop_seed)
    stream = _untrack(FrameStream([f for f in stream.frames if f.hands]), untracked)   # idle frames hold no hand
    ingested = parse_csv_stream(*write_csv_stream(stream))
    built = FrameStream(ingested.frames)
    if not len(ingested):
        return
    first, last = ingested.table.timestamps[[0, -1]].tolist()
    for start in range(first, last + 1, window_ms):
        assert _features(ingested.slice_ms(start, start + window_ms)) == _features(built.slice_ms(start, start + window_ms))


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
