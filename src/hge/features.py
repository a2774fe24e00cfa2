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
from .frame_model import DEVICE_FPS_MIN, NORMAL_TOLERANCE, FrameStream, Handedness, row_dots, row_norms


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


@dataclass(frozen=True)
class OppositionResult:
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
    if abs(norm - 1.0) > NORMAL_TOLERANCE:
        raise NonUnitNormal(f"{name} has norm {norm:.6f}, expected 1 within {NORMAL_TOLERANCE}")


def palm_opposition(normal_left, normal_right, config: EngineConfig = DEFAULT_CONFIG) -> OppositionResult:
    """Resultant of the two palm normals; a small magnitude means opposed palms.

    Facing is the strict comparison |left + right| < facing_resultant_max.
    """
    ax, ay, az = np.asarray(normal_left, float).tolist()
    bx, by, bz = np.asarray(normal_right, float).tolist()
    _check_unit_norm("normal_left", math.sqrt(ax * ax + ay * ay + az * az))
    _check_unit_norm("normal_right", math.sqrt(bx * bx + by * by + bz * bz))
    sx, sy, sz = ax + bx, ay + by, az + bz
    magnitude = math.sqrt(sx * sx + sy * sy + sz * sz)
    return OppositionResult(magnitude, magnitude < config.facing_resultant_max)


def classify_palm_shape(grab_strength: float, config: EngineConfig = DEFAULT_CONFIG) -> PalmShape:
    """Flat at or below the grab threshold, curved above it."""
    g = float(grab_strength)
    if not 0.0 <= g <= 1.0:
        raise GrabOutOfRange(f"grab_strength {g} outside [0, 1]")
    return PalmShape.FLAT if g <= config.flat_grab_max else PalmShape.CURVED


def finger_spread(fingertips, config: EngineConfig = DEFAULT_CONFIG):
    """Minimum adjacent fingertip gap and the open/closed verdict.

    Adjacent means thumb-index, index-middle, middle-ring, ring-pinky over the
    tracked tips; a row holding NaN is untracked. Returns (min_distance or
    None, spread); spread is Unknown when fewer than two adjacent tracked
    pairs exist.
    """
    tips = np.asarray(fingertips, float)
    distances = [float(np.linalg.norm(a - b)) for a, b in zip(tips, tips[1:])
                 if not (np.isnan(a).any() or np.isnan(b).any())]
    if not distances:
        return None, FingerSpread.UNKNOWN
    min_distance = min(distances)
    if len(distances) < 2:
        return min_distance, FingerSpread.UNKNOWN
    spread = FingerSpread.OPEN if min_distance >= config.open_spread_min_mm else FingerSpread.CLOSED
    return min_distance, spread


def inter_palm_distance(palm_left, palm_right) -> float:
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


def _principal_axes(pts):
    """Mean-removed points, with the eigenvalues (ascending) and eigenvectors of their covariance."""
    centered = pts - pts.mean(axis=0)
    evals, evecs = np.linalg.eigh(centered.T @ centered / len(pts))
    return centered, evals, evecs


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

    centered, evals, evecs = _principal_axes(pts)
    total = float(evals.sum())
    if total <= 0:
        return TrajectoryKind.INDETERMINATE
    if float(evals[2]) / total >= config.line_variance_min:
        return TrajectoryKind.LINEAR

    uv = centered @ evecs[:, 1:3]
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
    if len(pts) != len(ts):
        raise ValueError("positions and timestamps must have equal length")
    if len(pts) < 2:
        raise TooFewSamples("need at least 1 s of samples")
    raw_span = (ts[-1] - ts[0]) / 1000.0
    if raw_span <= 0:
        raise TooFewSamples("window has no time extent")
    span_s = raw_span * len(pts) / (len(pts) - 1)   # covered duration
    if span_s < 1.0:
        raise TooFewSamples(f"window spans {span_s:.3f} s, need at least 1 s")
    if (len(pts) - 1) / raw_span < DEVICE_FPS_MIN:
        raise TooFewSamples(f"sampling rate below {DEVICE_FPS_MIN:g} FPS")

    centered, _, evecs = _principal_axes(pts)
    signal = centered @ evecs[:, 2]
    signal = signal - signal.mean()

    if float(signal.max() - signal.min()) < config.min_oscillation_amplitude_mm:
        return None

    positive = signal >= 0
    change = np.nonzero(positive[:-1] != positive[1:])[0]
    if change.size < 2:
        return None

    t_s = ts / 1000.0
    crossings = []
    for k in change:
        frac = signal[k] / (signal[k] - signal[k + 1])
        z = t_s[k] + frac * (t_s[k + 1] - t_s[k])
        if not crossings or z - crossings[-1] >= config.min_crossing_gap_s:
            crossings.append(z)
    if len(crossings) < 2:
        return None
    return (len(crossings) - 1) / (2.0 * (crossings[-1] - crossings[0]))


class _HandSamples(NamedTuple):
    """One hand's samples over a window, one row per frame that holds it."""

    timestamps: np.ndarray     # (m,) ms
    positions: np.ndarray      # (m, 3) palm positions
    normals: np.ndarray        # (m, 3) palm normals
    grabs: np.ndarray          # (m,)
    gaps: np.ndarray           # (m,) finger_spread's minimum adjacent gap, NaN without a tracked pair
    gap_pairs: np.ndarray      # (m,) tracked adjacent pairs behind each gap


def _hand_samples(observations, timestamps) -> _HandSamples:
    vectors = [np.empty(0)]     # keeps the concatenation defined for a hand never seen
    for o in observations:
        vectors += (o.palm_position, o.palm_normal, o.fingertips.reshape(-1))
    block = np.concatenate(vectors, dtype=float).reshape(-1, 7, 3)
    tips = block[:, 2:]
    tracked = ~np.isnan(tips).any(axis=2)
    adjacent = tracked[:, 1:] & tracked[:, :-1]
    gaps = np.where(adjacent, row_norms(tips[:, 1:] - tips[:, :-1]), np.inf).min(axis=1)
    gap_pairs = adjacent.sum(axis=1)
    gaps[gap_pairs == 0] = np.nan
    return _HandSamples(
        timestamps=np.array(timestamps, float),
        positions=block[:, 0],
        normals=block[:, 1],
        grabs=np.array([o.grab_strength for o in observations], float),
        gaps=gaps,
        gap_pairs=gap_pairs,
    )


def _window_hands(frames):
    """Each hand's samples, and for every two-hand frame the rows of its left and right hand."""
    seen = {h: ([], []) for h in Handedness}
    pairs = []
    for f in frames:
        rows = {}
        for obs in f.hands:
            observations, stamps = seen[obs.handedness]
            rows.setdefault(obs.handedness, len(observations))
            observations.append(obs)
            stamps.append(f.timestamp)
        if len(rows) == 2:
            pairs.append((rows[Handedness.LEFT], rows[Handedness.RIGHT]))
    return {h: _hand_samples(*seen[h]) for h in Handedness}, np.array(pairs, int).reshape(-1, 2)


def _mean(values: np.ndarray) -> Optional[float]:
    return float(np.mean(values)) if len(values) else None


def _majority_spread(hand: _HandSamples, config: EngineConfig) -> FingerSpread:
    """Majority of the per-frame finger_spread verdicts that are not Unknown."""
    known = hand.gap_pairs >= 2
    opens = int((hand.gaps[known] >= config.open_spread_min_mm).sum())
    closed = int(known.sum()) - opens
    if not opens + closed:
        return FingerSpread.UNKNOWN
    return FingerSpread.OPEN if opens >= closed else FingerSpread.CLOSED


def extract_feature_vector(window: FrameStream, config: EngineConfig = DEFAULT_CONFIG) -> FeatureVector:
    """Summarize a frame window into one FeatureVector.

    Requires a span of at least 1 s with a hand visible in at least 80% of
    frames. Orientation is a majority vote over two-hand frames; trajectory
    and frequency come from the hand that moved the most.
    """
    frames = window.frames
    if len(frames) < 2:
        raise InsufficientWindow("window has fewer than 2 frames")
    # covered duration: first-to-last plus one mean frame gap
    raw_span = frames[-1].timestamp - frames[0].timestamp
    span_s = (raw_span + raw_span / (len(frames) - 1)) / 1000.0
    if span_s < 1.0:
        raise InsufficientWindow(f"window spans {span_s:.3f} s, need at least 1 s")
    with_hand = sum(1 for f in frames if f.hand_count >= 1)
    if with_hand / len(frames) < 0.8:
        raise InsufficientWindow("a hand is visible in fewer than 80% of frames")

    hands, pairs = _window_hands(frames)
    two_hand = len(pairs)
    facing_votes = stacked_votes = 0
    if two_hand:
        left, right = hands[Handedness.LEFT], hands[Handedness.RIGHT]
        left_normals, right_normals = left.normals[pairs[:, 0]], right.normals[pairs[:, 1]]
        # palm_opposition's unit check; row-major argmax names the first bad frame, its left hand first
        normal_norms = np.stack([row_norms(left_normals), row_norms(right_normals)], axis=1)
        off = np.abs(normal_norms - 1.0) > NORMAL_TOLERANCE
        if off.any():
            i, side = divmod(int(np.argmax(off)), 2)
            _check_unit_norm(("normal_left", "normal_right")[side], float(normal_norms[i, side]))
        disp = right.positions[pairs[:, 1]] - left.positions[pairs[:, 0]]
        distances = row_norms(disp)
        summed = left_normals + right_normals
        magnitude = row_norms(summed)
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
    spreads = {h: _majority_spread(hands[h], config) for h in Handedness}

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
