"""Per-frame and windowed hand-feature extractors.

Five features describe a two-hand washing gesture: palm orientation, palm
shape, finger spread, hand trajectory, and rate of movement. Each extractor
is a pure function; thresholds come from EngineConfig.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .config import DEFAULT_CONFIG, EngineConfig
from .errors import GrabOutOfRange, InsufficientWindow, NonUnitNormal, TooFewSamples
from .frame_model import (
    _GRAB,
    _TIPS,
    DEVICE_FPS_MIN,
    NORMAL_TOLERANCE,
    SIDES,
    FrameStream,
    FrameTable,
    Handedness,
    row_dots,
    row_norms,
)


class PalmOrientation(str, Enum):
    FACING_EACH_OTHER = "FacingEachOther"
    ONE_PALM_OVER_OTHER = "OnePalmOverOther"
    OTHER = "Other"


class PalmShape(str, Enum):
    FLAT = "Flat"
    CURVED = "Curved"


class FingerSpread(str, Enum):
    OPEN = "Open"
    CLOSED = "Closed"
    UNKNOWN = "Unknown"


class TrajectoryKind(str, Enum):
    LINEAR = "Linear"
    CIRCULAR = "Circular"
    INDETERMINATE = "Indeterminate"


class OppositionResult(NamedTuple):
    """Magnitude of the summed palm normals and the facing verdict."""

    resultant_magnitude: float
    facing: bool


@dataclass(frozen=True)
class FeatureVector:
    """Windowed feature summary. Shape is None for a hand never observed.

    Curvature is a hand's mean grab strength, which its shape classifies;
    fingertip distance is the mean of finger_spread's minimum adjacent gap
    over its observations with a tracked adjacent pair. Each is None when
    the hand is absent or, for the distance, has no such observation.
    """

    palm_orientation: PalmOrientation
    palm_shape_left: Optional[PalmShape]
    palm_shape_right: Optional[PalmShape]
    finger_spread_left: FingerSpread
    finger_spread_right: FingerSpread
    trajectory: TrajectoryKind
    movement_frequency_hz: Optional[float]
    inter_palm_distance_mm: Optional[float]
    window_span_s: float
    hand_curvature_left: Optional[float] = None
    hand_curvature_right: Optional[float] = None
    fingertip_distance_left: Optional[float] = None
    fingertip_distance_right: Optional[float] = None

    def __post_init__(self):
        if self.window_span_s <= 0:
            raise ValueError("window_span_s must be positive")
        if self.movement_frequency_hz is not None and self.movement_frequency_hz < 0:
            raise ValueError("movement_frequency_hz must be non-negative")


@dataclass(frozen=True)
class StageSignature:
    """Expected feature values that identify one washing stage.

    Orientation and finger spread separate the stage from its neighbours;
    the palm shape, trajectories and frequency band must merely not be
    contradicted.
    """

    orientation: PalmOrientation
    palm_shape: PalmShape
    spread: FingerSpread
    trajectories: frozenset
    frequency_range_hz: Tuple[float, float]

    def __post_init__(self):
        lo, hi = self.frequency_range_hz
        if lo > hi:
            raise ValueError("signature frequency range is empty")


STAGE2_SIGNATURE = StageSignature(
    orientation=PalmOrientation.FACING_EACH_OTHER,
    palm_shape=PalmShape.FLAT,
    spread=FingerSpread.CLOSED,
    trajectories=frozenset({TrajectoryKind.LINEAR, TrajectoryKind.CIRCULAR}),
    frequency_range_hz=(DEFAULT_CONFIG.rub_freq_min_hz, DEFAULT_CONFIG.rub_freq_max_hz),
)

STAGE3_SIGNATURE = StageSignature(
    orientation=PalmOrientation.ONE_PALM_OVER_OTHER,
    palm_shape=PalmShape.FLAT,
    spread=FingerSpread.OPEN,
    trajectories=frozenset({TrajectoryKind.LINEAR}),
    frequency_range_hz=(1.0, 3.0),
)


def _check_unit_norm(name: str, norm: float):
    if not abs(norm - 1.0) <= NORMAL_TOLERANCE:     # a NaN norm fails too
        raise NonUnitNormal(f"{name} has norm {norm:.6f}, expected 1 within {NORMAL_TOLERANCE}")


def _unit_normals(normal_left, normal_right):
    """The left and right palm normals as float triples, after each one's unit check, the left one's first."""
    a, b = np.asarray(normal_left, float).tolist(), np.asarray(normal_right, float).tolist()
    (ax, ay, az), (bx, by, bz) = a, b
    left, right = math.sqrt(ax * ax + ay * ay + az * az), math.sqrt(bx * bx + by * by + bz * bz)
    # both within the tolerance, tested at once; a NaN norm fails the comparison, and the checks name the one off
    if not abs(left - 1.0) <= NORMAL_TOLERANCE >= abs(right - 1.0):
        _check_unit_norm("normal_left", left)
        _check_unit_norm("normal_right", right)
    return a, b


def palm_opposition(normal_left, normal_right, config: EngineConfig = DEFAULT_CONFIG) -> OppositionResult:
    """Resultant of the two palm normals, after each one's unit check; a small magnitude means opposed palms.

    Facing is the strict comparison |left + right| < facing_resultant_max.
    """
    (ax, ay, az), (bx, by, bz) = _unit_normals(normal_left, normal_right)
    sx, sy, sz = ax + bx, ay + by, az + bz
    magnitude = math.sqrt(sx * sx + sy * sy + sz * sz)
    return OppositionResult(magnitude, magnitude < config.facing_resultant_max)


def classify_palm_shape(grab_strength: float, config: EngineConfig = DEFAULT_CONFIG) -> PalmShape:
    """Flat at or below the grab threshold, curved above it."""
    g = float(grab_strength)
    if not 0.0 <= g <= 1.0:
        raise GrabOutOfRange(f"grab_strength {g} outside [0, 1]")
    return PalmShape.FLAT if g <= config.flat_grab_max else PalmShape.CURVED


def _tip_gaps(tips: np.ndarray):
    """Per (5, 3) row of tips: the minimum gap between adjacent tracked tips, NaN with none, and their count.

    Adjacent means thumb-index, index-middle, middle-ring, ring-pinky; a tip holding NaN is untracked.
    """
    tracked = ~np.isnan(tips).any(axis=2)
    adjacent = tracked[:, 1:] & tracked[:, :-1]
    pairs = adjacent.sum(axis=1)
    gaps = np.where(adjacent, row_norms(tips[:, 1:] - tips[:, :-1]), np.inf).min(axis=1)
    gaps[pairs == 0] = np.nan
    return gaps, pairs


def _majority_spread(gaps: np.ndarray, pairs: np.ndarray, config: EngineConfig) -> FingerSpread:
    """Majority of the verdicts that are not Unknown over _tip_gaps' rows; over one row, finger_spread's.

    A row with at least two tracked pairs is Open when its gap reaches open_spread_min_mm, else Closed.
    """
    known = pairs >= 2
    opens = int((gaps[known] >= config.open_spread_min_mm).sum())
    closed = int(known.sum()) - opens
    if not opens + closed:
        return FingerSpread.UNKNOWN
    return FingerSpread.OPEN if opens >= closed else FingerSpread.CLOSED


def finger_spread(fingertips, config: EngineConfig = DEFAULT_CONFIG):
    """Minimum adjacent fingertip gap and the open/closed verdict of one hand's (5, 3) tips.

    Returns (min_distance or None, spread): None without a tracked adjacent
    pair, and Unknown spread with fewer than two.
    """
    gaps, pairs = _tip_gaps(np.asarray(fingertips, float)[None])
    return (float(gaps[0]) if pairs[0] else None), _majority_spread(gaps, pairs, config)


def inter_palm_distance(palm_left, palm_right) -> float:
    """math.dist of the two palms: the one distance rule, which extract_feature_vector applies to each pair."""
    return math.dist(np.asarray(palm_left, float).tolist(), np.asarray(palm_right, float).tolist())


def _fit_circle_2d(uv: np.ndarray):
    """Algebraic least-squares circle fit. Returns (cx, cy, radius)."""
    x, y = uv[:, 0], uv[:, 1]
    a = np.column_stack([2 * x, 2 * y, np.ones(len(x))])
    b = x * x + y * y
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    cx, cy = float(sol[0]), float(sol[1])
    r_sq = float(sol[2]) + cx * cx + cy * cy
    return cx, cy, math.sqrt(r_sq) if r_sq > 0 else float("nan")


def _path_length(positions: np.ndarray) -> float:
    return float(np.linalg.norm(np.diff(positions, axis=0), axis=1).sum())


def _mean_rows(x: np.ndarray):
    """x.mean(axis=0), bit for bit: the sum and division ndarray.mean runs, without its Python wrapper."""
    return np.add.reduce(x, 0) / len(x)


_TWO_THIRDS_PI = 2.0 * math.pi / 3.0
_ROOT_2 = math.sqrt(2.0)
_ROOT_6 = math.sqrt(6.0)


def symmetric_eigen3(a):
    """Eigenvalues (ascending) and unit eigenvectors of a symmetric 3x3 matrix.

    `a` is the matrix as three rows of floats; only its lower triangle is
    read, as LAPACK's eigh reads it. Returns (evals, evecs), two 3-tuples:
    evecs[i] is the eigenvector of evals[i]. Each value is within about
    1e-15 of the matrix norm of the exact one, and so is each residual.

    A matrix that splits into a 1x1 and a 2x2 block (one axis uncoupled
    from the other two, as with motion confined to a coordinate plane) goes
    to LAPACK's eigh and gets its bits at any magnitude. Sums that land
    exactly on a threshold, which exact synthetic motion produces, then fall
    the same way.

    Any other matrix: with B = (A - qI) / p, q the mean eigenvalue and p the
    eigenvalues' RMS spread about it, B's eigenvalues are 2 cos(phi + 2k pi/3)
    with cos(3 phi) = det(B) / 2 (Smith, CACM 4(4) 1961). As in Eberly's robust
    solver (Geometric Tools, 2014), the eigenvalue farther from the other two
    is taken from that formula, where it is accurate, and its vector is the
    longest cross product of two rows of B - beta I. The other two come from one
    Jacobi rotation of B restricted to the plane orthogonal to it, so a
    repeated or nearly repeated pair gets accurate values and an orthonormal
    basis of its plane. Nothing is divided by zero: p is 0 for a multiple of
    the identity, which splits, and where every entry of A - qI is so near
    the smallest subnormal that the division by sqrt(6) rounds p to 0; that
    matrix goes to eigh as well.
    """
    (a00, _, _), (a01, a11, _), (a02, a12, a22) = a
    q = (a00 + a11 + a22) / 3.0
    b00, b11, b22 = a00 - q, a11 - q, a22 - q
    # hypot scales internally, so squares of tiny or huge entries neither underflow nor overflow
    p = math.hypot(b00, b11, b22, _ROOT_2 * a01, _ROOT_2 * a02, _ROOT_2 * a12) / _ROOT_6
    if a02 == 0.0 and (a01 == 0.0 or a12 == 0.0) or p == 0.0:
        evals, evecs = np.linalg.eigh(a)
        return tuple(evals.tolist()), tuple(map(tuple, evecs.T.tolist()))
    b00, b11, b22, b01, b02, b12 = b00 / p, b11 / p, b22 / p, a01 / p, a02 / p, a12 / p
    half_det = 0.5 * (b00 * (b11 * b22 - b12 * b12) - b01 * (b01 * b22 - b12 * b02) + b02 * (b01 * b12 - b11 * b02))
    if half_det >= 0.0:       # the largest eigenvalue is the isolated one; else the smallest
        beta = 2.0 * math.cos(math.acos(min(half_det, 1.0)) / 3.0)
    else:
        beta = 2.0 * math.cos(math.acos(max(half_det, -1.0)) / 3.0 + _TWO_THIRDS_PI)
    # B - beta I has rank 2; its null vector is the cross product of the two rows that are least parallel
    r00, r11, r22 = b00 - beta, b11 - beta, b22 - beta
    x0, x1, x2 = b01 * b12 - b02 * r11, b02 * b01 - r00 * b12, r00 * r11 - b01 * b01
    y0, y1, y2 = b01 * r22 - b02 * b12, b02 * b02 - r00 * r22, r00 * b12 - b01 * b02
    z0, z1, z2 = r11 * r22 - b12 * b12, b12 * b02 - b01 * r22, b01 * b12 - r11 * b02
    dx, dy, dz = x0 * x0 + x1 * x1 + x2 * x2, y0 * y0 + y1 * y1 + y2 * y2, z0 * z0 + z1 * z1 + z2 * z2
    if dx >= dy and dx >= dz:
        d = math.sqrt(dx)
        w0, w1, w2 = x0 / d, x1 / d, x2 / d
    elif dy >= dz:
        d = math.sqrt(dy)
        w0, w1, w2 = y0 / d, y1 / d, y2 / d
    else:
        d = math.sqrt(dz)
        w0, w1, w2 = z0 / d, z1 / d, z2 / d
    # u, v: an orthonormal basis of the plane orthogonal to w, u built from w's two largest components
    if abs(w0) > abs(w1):
        d = math.sqrt(w0 * w0 + w2 * w2)
        u0, u1, u2 = -w2 / d, 0.0, w0 / d
    else:
        d = math.sqrt(w1 * w1 + w2 * w2)
        u0, u1, u2 = 0.0, w2 / d, -w1 / d
    v0, v1, v2 = w1 * u2 - w2 * u1, w2 * u0 - w0 * u2, w0 * u1 - w1 * u0
    bv0, bv1, bv2 = b00 * v0 + b01 * v1 + b02 * v2, b01 * v0 + b11 * v1 + b12 * v2, b02 * v0 + b12 * v1 + b22 * v2
    s00 = u0 * (b00 * u0 + b01 * u1 + b02 * u2) + u1 * (b01 * u0 + b11 * u1 + b12 * u2) \
        + u2 * (b02 * u0 + b12 * u1 + b22 * u2)
    s01 = u0 * bv0 + u1 * bv1 + u2 * bv2
    s11 = v0 * bv0 + v1 * bv1 + v2 * bv2
    # the rotation by atan(t) that zeroes s01, with |t| <= 1 (Golub and Van Loan, section 8.5)
    t = 0.0
    if s01 != 0.0:
        tau = (s11 - s00) / (2.0 * s01)
        t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
    c = 1.0 / math.sqrt(1.0 + t * t)
    s = t * c
    lo, hi = s00 - t * s01, s11 + t * s01
    e_lo, e_hi = (c * u0 - s * v0, c * u1 - s * v1, c * u2 - s * v2), (s * u0 + c * v0, s * u1 + c * v1, s * u2 + c * v2)
    if lo > hi:
        lo, hi, e_lo, e_hi = hi, lo, e_hi, e_lo
    # beta lies above (or below) the pair, or a hair inside it where rounding blurs three near-equal values
    w = (w0, w1, w2)
    if beta >= hi:
        betas, evecs = (lo, hi, beta), (e_lo, e_hi, w)
    elif beta >= lo:
        betas, evecs = (lo, beta, hi), (e_lo, w, e_hi)
    else:
        betas, evecs = (beta, lo, hi), (w, e_lo, e_hi)
    return (q + p * betas[0], q + p * betas[1], q + p * betas[2]), evecs


def _principal_axes(pts):
    """Mean-removed points, with the eigenvalues (ascending) and unit eigenvectors of their covariance.

    The eigenpairs come from symmetric_eigen3 as tuples: axes[2] is the principal axis. On a C-ordered (n, 3)
    array, the last row of np.add.accumulate is the sequential column sum np.add.reduce runs, and ndarray.dot
    calls the BLAS routine the @ operator calls: the same bits as pts.mean(axis=0) and centered.T @ centered,
    with less of numpy's per-call overhead. The lower triangle, the entries symmetric_eigen3 reads, is divided
    by n in Python floats, the IEEE division numpy's elementwise loop runs.
    """
    n = len(pts)
    centered = pts - np.add.accumulate(pts, 0)[-1] / n
    (c00, _, _), (c01, c11, _), (c02, c12, c22) = centered.T.dot(centered).tolist()
    a01, a02, a12 = c01 / n, c02 / n, c12 / n
    evals, axes = symmetric_eigen3(((c00 / n, a01, a02), (a01, c11 / n, a12), (a02, a12, c22 / n)))
    return centered, evals, axes


def _axis_signal(pts):
    """The principal-axis projection of an (n, 3) float array's mean-removed points, re-centred."""
    centered, _, axes = _principal_axes(pts)
    signal = centered.dot(axes[2])
    # re-centred, though the rows are: where the covariance splits, the axis is LAPACK's to the bit, and
    # this step then rounds a sample whose exact projection is 0 to the side the eigh-based rule rounds it to
    signal -= _mean_rows(signal)
    return signal


def classify_trajectory(palm_positions, config: EngineConfig = DEFAULT_CONFIG) -> TrajectoryKind:
    """Label a short palm path as Linear, Circular, or Indeterminate.

    Linear when the best-fit line explains enough positional variance;
    circular when the circle fitted in the dominant plane has a small
    relative residual and a plausible radius. A nearly stationary path
    is Indeterminate.
    """
    pts = np.asarray(palm_positions, float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("palm_positions must be an (n, 3) array")
    if len(pts) < 10:
        raise TooFewSamples(f"need at least 10 samples, got {len(pts)}")

    if _path_length(pts) < config.stationary_path_mm:
        return TrajectoryKind.INDETERMINATE

    centered, evals, axes = _principal_axes(pts)
    if evals[2] / sum(evals) >= config.line_variance_min:
        return TrajectoryKind.LINEAR

    uv = centered @ np.array(axes[1:]).T     # coordinates along the middle and principal axes
    cx, cy, radius = _fit_circle_2d(uv)
    if not (config.circle_radius_min_mm <= radius <= config.circle_radius_max_mm):
        return TrajectoryKind.INDETERMINATE
    residual = np.hypot(uv[:, 0] - cx, uv[:, 1] - cy) - radius
    rms = float(np.sqrt(np.mean(residual ** 2)))
    if rms <= config.circle_residual_max * radius:
        return TrajectoryKind.CIRCULAR
    return TrajectoryKind.INDETERMINATE


def estimate_frequency(palm_positions, timestamps_ms, config: EngineConfig = DEFAULT_CONFIG) -> Optional[float]:
    """Dominant oscillation rate along the principal axis, in Hz.

    Counts zero crossings of the mean-removed principal-axis signal with
    sub-sample interpolation; the rate is the crossing count minus one over
    twice the first-to-last crossing span. None when the peak-to-peak
    amplitude is below the floor or no oscillation is visible.
    """
    pts = np.asarray(palm_positions, float)
    ts = np.asarray(timestamps_ms, float)
    n = len(pts)
    if n != len(ts):
        raise ValueError("positions and timestamps must have equal length")
    if n < 2:
        raise TooFewSamples("need at least 1 s of samples")
    raw_span = (ts.item(-1) - ts.item(0)) / 1000.0
    if raw_span <= 0:
        raise TooFewSamples("window has no time extent")
    span_s = raw_span * n / (n - 1)   # covered duration
    if span_s < 1.0:
        raise TooFewSamples(f"window spans {span_s:.3f} s, need at least 1 s")
    if (n - 1) / raw_span < DEVICE_FPS_MIN:
        raise TooFewSamples(f"sampling rate below {DEVICE_FPS_MIN:g} FPS")

    signal = _axis_signal(pts)
    if float(np.maximum.reduce(signal) - np.minimum.reduce(signal)) < config.min_oscillation_amplitude_mm:
        return None

    positive = signal >= 0
    changes = (positive[:-1] != positive[1:]).nonzero()[0].tolist()
    if len(changes) < 2:
        return None

    # each sign change's interpolated time in Python floats: a rub window holds a handful of changes, for which
    # a dozen whole-array calls cost more than the arithmetic. A float runs the IEEE operations of numpy's
    # elementwise loop in the same order, so every bit is kept. A change lies between a sample >= 0 and one < 0,
    # so the denominator is never 0
    crossings = []
    for k in changes:
        before, after, t0 = signal.item(k), signal.item(k + 1), ts.item(k) / 1000.0
        z = t0 + before / (before - after) * (ts.item(k + 1) / 1000.0 - t0)
        if not crossings or z - crossings[-1] >= config.min_crossing_gap_s:
            crossings.append(z)
    if len(crossings) < 2:
        return None
    return (len(crossings) - 1) / (2.0 * (crossings[-1] - crossings[0]))


class _HandSamples(NamedTuple):
    """One hand's samples over a window, one row per frame that holds it."""

    timestamps: np.ndarray     # (m,) ms
    positions: np.ndarray      # (m, 3) palm positions
    grabs: np.ndarray          # (m,)
    gaps: np.ndarray           # (m,) minimum adjacent gap, NaN without a tracked pair
    gap_pairs: np.ndarray      # (m,) tracked adjacent pairs behind each gap


def _hand_samples(table: FrameTable, side: int) -> _HandSamples:
    """A hand's samples; its gaps and gap pairs are _tip_gaps', which finger_spread reads too."""
    held = table.rows[:, side] >= 0
    rows, block = table.rows[held, side], table.blocks[side]
    gaps, gap_pairs = _tip_gaps(block[rows, _TIPS:].reshape(-1, 5, 3))
    return _HandSamples(
        timestamps=table.timestamps[held].astype(float),
        positions=block[rows, 0:3],
        grabs=block[rows, _GRAB],
        gaps=gaps,
        gap_pairs=gap_pairs,
    )


def _resultants(left: np.ndarray, right: np.ndarray):
    """palm_opposition's magnitude for each pair of rows of two (m, 3) normal arrays, bit for bit, and their sums.

    Raises _check_unit_norm's NonUnitNormal for the first pair with a normal
    off unit length or NaN, its left normal checked before its right.
    """
    norms = [np.sqrt(v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1] + v[:, 2] * v[:, 2]) for v in (left, right)]
    off = ~((np.abs(norms[0] - 1.0) <= NORMAL_TOLERANCE) & (np.abs(norms[1] - 1.0) <= NORMAL_TOLERANCE))
    if off.any():
        k = int(np.argmax(off))
        for name, norm in zip(("normal_left", "normal_right"), norms):
            _check_unit_norm(name, float(norm[k]))
    summed = left + right
    return summed, np.sqrt(summed[:, 0] * summed[:, 0] + summed[:, 1] * summed[:, 1] + summed[:, 2] * summed[:, 2])


def _mean(values: np.ndarray) -> Optional[float]:
    return float(np.mean(values)) if len(values) else None


def extract_feature_vector(window: FrameStream, config: EngineConfig = DEFAULT_CONFIG) -> FeatureVector:
    """Summarize a frame window into one FeatureVector.

    Requires a span of at least 1 s with a hand visible in at least 80% of
    frames. Orientation is a majority vote over two-hand frames; trajectory
    and frequency come from the hand that moved the most.
    """
    table = window.table
    stamps, rows = table.timestamps, table.rows
    if len(stamps) < 2:
        raise InsufficientWindow("window has fewer than 2 frames")
    # covered duration: first-to-last plus one mean frame gap
    raw_span = stamps[-1].item() - stamps[0].item()
    span_s = (raw_span + raw_span / (len(stamps) - 1)) / 1000.0
    if span_s < 1.0:
        raise InsufficientWindow(f"window spans {span_s:.3f} s, need at least 1 s")
    held = rows >= 0
    if held.any(axis=1).sum() / len(stamps) < 0.8:
        raise InsufficientWindow("a hand is visible in fewer than 80% of frames")

    hands = {side: _hand_samples(table, k) for k, side in enumerate(SIDES)}
    pairs = rows[held.all(axis=1)]
    two_hand = len(pairs)
    facing_votes = stacked_votes = 0
    if two_hand:
        left_block, right_block = table.blocks
        left_rows, right_rows = pairs.T
        summed, magnitude = _resultants(left_block[left_rows, 3:6], right_block[right_rows, 3:6])
        disp = right_block[right_rows, 0:3] - left_block[left_rows, 0:3]
        # math.hypot of a difference is math.dist bit for bit, at half its cost here
        distances = np.array(list(map(math.hypot, *disp.T.tolist())))
        facing = magnitude < config.facing_resultant_max
        facing_votes = int(facing.sum())
        # stacked: near-parallel normals with the palms displaced along them
        near_parallel = ~facing & (magnitude > config.stacked_resultant_min) & (distances > 1e-9)
        shared = summed[near_parallel] / magnitude[near_parallel, None]
        along = np.abs(row_dots(disp[near_parallel], shared)) / distances[near_parallel]
        stacked_votes = int((along >= math.cos(math.radians(config.stacked_angle_max_deg))).sum())

    if two_hand and facing_votes / two_hand >= config.orientation_vote_fraction:
        orientation = PalmOrientation.FACING_EACH_OTHER
    elif two_hand and stacked_votes / two_hand >= config.orientation_vote_fraction:
        orientation = PalmOrientation.ONE_PALM_OVER_OTHER
    else:
        orientation = PalmOrientation.OTHER

    curvatures = {h: _mean(hands[h].grabs) for h in Handedness}
    shapes = {h: None if c is None else classify_palm_shape(c, config) for h, c in curvatures.items()}
    fingertip_distances = {h: _mean(hands[h].gaps[hands[h].gap_pairs > 0]) for h in Handedness}
    spreads = {h: _majority_spread(hands[h].gaps, hands[h].gap_pairs, config) for h in Handedness}

    mover = max(Handedness, key=lambda h: (_path_length(hands[h].positions), h == Handedness.RIGHT))
    positions, stamps = hands[mover].positions, hands[mover].timestamps

    trajectory = TrajectoryKind.INDETERMINATE
    if len(positions) >= 10:
        # a trajectory is a short path: classify the trailing 5 s
        cut = stamps >= stamps[-1] - 5000.0
        try:
            trajectory = classify_trajectory(positions[cut], config)
        except TooFewSamples:
            pass

    frequency = None
    try:
        frequency = estimate_frequency(positions, stamps, config)
    except TooFewSamples:
        pass

    return FeatureVector(
        palm_orientation=orientation,
        palm_shape_left=shapes[Handedness.LEFT],
        palm_shape_right=shapes[Handedness.RIGHT],
        finger_spread_left=spreads[Handedness.LEFT],
        finger_spread_right=spreads[Handedness.RIGHT],
        trajectory=trajectory,
        movement_frequency_hz=frequency,
        inter_palm_distance_mm=float(np.mean(distances)) if two_hand else None,
        window_span_s=span_s,
        hand_curvature_left=curvatures[Handedness.LEFT],
        hand_curvature_right=curvatures[Handedness.RIGHT],
        fingertip_distance_left=fingertip_distances[Handedness.LEFT],
        fingertip_distance_right=fingertip_distances[Handedness.RIGHT],
    )


def match_signature(vector: FeatureVector, signature: StageSignature):
    """Compare a feature vector to a stage signature.

    Returns (match, score). Match requires the signature's orientation and
    its spread on both hands, and that no observed palm shape, determinate
    trajectory or measured frequency contradicts it; score is the fraction
    of orientation and spread that agree.
    """
    s, v = signature, vector
    orientation = v.palm_orientation == s.orientation
    spread = v.finger_spread_left == s.spread and v.finger_spread_right == s.spread
    lo, hi = s.frequency_range_hz
    contradicted = (
        any(x is not None and x != s.palm_shape for x in (v.palm_shape_left, v.palm_shape_right))
        or v.trajectory != TrajectoryKind.INDETERMINATE and v.trajectory not in s.trajectories
        or v.movement_frequency_hz is not None and not lo <= v.movement_frequency_hz <= hi
    )
    return orientation and spread and not contradicted, (orientation + spread) / 2
