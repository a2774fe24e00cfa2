"""Per-frame and windowed hand-feature extractors.

Five features describe a two-hand washing gesture: palm orientation, palm
shape, finger spread, hand trajectory, and rate of movement. Each extractor
is a pure function; thresholds come from EngineConfig.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

import numpy as np

from .config import DEFAULT_CONFIG, EngineConfig
from .errors import GrabOutOfRange, InsufficientWindow, NonUnitNormal, TooFewSamples
from .frame_model import NORMAL_TOLERANCE, FrameStream, Handedness


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


class StageId(str, Enum):
    STAGE2 = "Stage2"
    STAGE3 = "Stage3"


@dataclass(frozen=True)
class OppositionResult:
    """Magnitude of the summed palm normals and the facing verdict."""

    resultant_magnitude: float
    facing: bool


@dataclass(frozen=True)
class FeatureVector:
    """Windowed feature summary. Shape is None for a hand never observed."""

    palm_orientation: PalmOrientation
    palm_shape_left: Optional[PalmShape]
    palm_shape_right: Optional[PalmShape]
    finger_spread_left: FingerSpread
    finger_spread_right: FingerSpread
    trajectory: TrajectoryKind
    movement_frequency_hz: Optional[float]
    inter_palm_distance_mm: Optional[float]
    window_span_s: float

    def __post_init__(self):
        if self.window_span_s <= 0:
            raise ValueError("window_span_s must be positive")
        if self.movement_frequency_hz is not None and self.movement_frequency_hz < 0:
            raise ValueError("movement_frequency_hz must be non-negative")


@dataclass(frozen=True)
class StageSignature:
    """Expected feature values that identify one washing stage.

    `discriminative` lists the features that alone separate this stage from
    its neighbours; the rest must merely not be contradicted.
    """

    stage_id: StageId
    orientation: PalmOrientation
    palm_shape: PalmShape
    spread: FingerSpread
    trajectories: frozenset
    frequency_range_hz: Tuple[float, float]
    duration_range_s: Tuple[float, float]
    discriminative: frozenset

    def __post_init__(self):
        for lo, hi in (self.frequency_range_hz, self.duration_range_s):
            if lo > hi:
                raise ValueError("signature range is empty")


STAGE2_SIGNATURE = StageSignature(
    stage_id=StageId.STAGE2,
    orientation=PalmOrientation.FACING_EACH_OTHER,
    palm_shape=PalmShape.FLAT,
    spread=FingerSpread.CLOSED,
    trajectories=frozenset({TrajectoryKind.LINEAR, TrajectoryKind.CIRCULAR}),
    frequency_range_hz=(0.8, 3.6),
    duration_range_s=(2.0, 7.0),
    discriminative=frozenset({"orientation", "spread"}),
)

STAGE3_SIGNATURE = StageSignature(
    stage_id=StageId.STAGE3,
    orientation=PalmOrientation.ONE_PALM_OVER_OTHER,
    palm_shape=PalmShape.FLAT,
    spread=FingerSpread.OPEN,
    trajectories=frozenset({TrajectoryKind.LINEAR}),
    frequency_range_hz=(1.0, 3.0),
    duration_range_s=(1.0, 10.0),
    discriminative=frozenset({"orientation", "spread"}),
)


def _require_unit(v: np.ndarray, name: str) -> np.ndarray:
    v = np.asarray(v, float)
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > NORMAL_TOLERANCE:
        raise NonUnitNormal(f"{name} has norm {norm:.6f}, expected 1 within {NORMAL_TOLERANCE}")
    return v


def palm_opposition(normal_left, normal_right, config: EngineConfig = DEFAULT_CONFIG) -> OppositionResult:
    """Resultant of the two palm normals; a small magnitude means opposed palms.

    Facing is the strict comparison |left + right| < facing_resultant_max.
    """
    a = _require_unit(normal_left, "normal_left")
    b = _require_unit(normal_right, "normal_right")
    magnitude = float(np.linalg.norm(a + b))
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
    tracked tips. Returns (min_distance or None, spread); spread is Unknown
    when fewer than two adjacent tracked pairs exist.
    """
    tips = list(fingertips)
    distances = []
    for a, b in zip(tips, tips[1:]):
        if a is not None and b is not None:
            distances.append(float(np.linalg.norm(np.asarray(a, float) - np.asarray(b, float))))
    if not distances:
        return None, FingerSpread.UNKNOWN
    min_distance = min(distances)
    if len(distances) < 2:
        return min_distance, FingerSpread.UNKNOWN
    spread = FingerSpread.OPEN if min_distance >= config.open_spread_min_mm else FingerSpread.CLOSED
    return min_distance, spread


def inter_palm_distance(palm_left, palm_right) -> float:
    return float(np.linalg.norm(np.asarray(palm_left, float) - np.asarray(palm_right, float)))


def _fit_circle_2d(uv: np.ndarray):
    """Algebraic least-squares circle fit. Returns (cx, cy, radius)."""
    x, y = uv[:, 0], uv[:, 1]
    a = np.column_stack([2 * x, 2 * y, np.ones(len(x))])
    b = x * x + y * y
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    cx, cy = float(sol[0]), float(sol[1])
    r_sq = float(sol[2]) + cx * cx + cy * cy
    return cx, cy, math.sqrt(r_sq) if r_sq > 0 else float("nan")


def classify_trajectory(palm_positions, window_span_s: float, config: EngineConfig = DEFAULT_CONFIG) -> TrajectoryKind:
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
    if not 0.25 <= window_span_s <= 5.0:
        raise ValueError(f"window_span_s {window_span_s} outside [0.25, 5]")

    if float(np.linalg.norm(np.diff(pts, axis=0), axis=1).sum()) < config.stationary_path_mm:
        return TrajectoryKind.INDETERMINATE

    centered = pts - pts.mean(axis=0)
    cov = centered.T @ centered / len(pts)
    evals, evecs = np.linalg.eigh(cov)
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
    if (len(pts) - 1) / raw_span < 50.0:
        raise TooFewSamples("sampling rate below 50 FPS")

    centered = pts - pts.mean(axis=0)
    cov = centered.T @ centered / len(pts)
    _, evecs = np.linalg.eigh(cov)
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


def _majority_spread(votes) -> FingerSpread:
    known = [v for v in votes if v != FingerSpread.UNKNOWN]
    if not known:
        return FingerSpread.UNKNOWN
    opens = sum(1 for v in known if v == FingerSpread.OPEN)
    return FingerSpread.OPEN if opens >= len(known) - opens else FingerSpread.CLOSED


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

    facing_votes = 0
    stacked_votes = 0
    distances = []
    two_hand = 0
    cos_limit = math.cos(math.radians(config.stacked_angle_max_deg))

    per_hand = {h: {"grab": [], "spread": [], "pos": [], "ts": []} for h in Handedness}
    for f in frames:
        left, right = f.hand(Handedness.LEFT), f.hand(Handedness.RIGHT)
        for obs in f.hands:
            rec = per_hand[obs.handedness]
            rec["grab"].append(obs.grab_strength)
            rec["spread"].append(finger_spread(obs.fingertips, config)[1])
            rec["pos"].append(obs.palm_position)
            rec["ts"].append(f.timestamp)
        if left is None or right is None:
            continue
        two_hand += 1
        opposition = palm_opposition(left.palm_normal, right.palm_normal, config)
        distances.append(inter_palm_distance(left.palm_position, right.palm_position))
        if opposition.facing:
            facing_votes += 1
        elif opposition.resultant_magnitude > config.stacked_resultant_min:
            shared = (left.palm_normal + right.palm_normal) / opposition.resultant_magnitude
            disp = right.palm_position - left.palm_position
            norm = float(np.linalg.norm(disp))
            if norm > 1e-9 and abs(float(disp @ shared)) / norm >= cos_limit:
                stacked_votes += 1

    if two_hand and facing_votes / two_hand >= config.orientation_vote_fraction:
        orientation = PalmOrientation.FACING_EACH_OTHER
    elif two_hand and stacked_votes / two_hand >= config.orientation_vote_fraction:
        orientation = PalmOrientation.ONE_PALM_OVER_OTHER
    else:
        orientation = PalmOrientation.OTHER

    shapes = {}
    spreads = {}
    for h in Handedness:
        rec = per_hand[h]
        shapes[h] = classify_palm_shape(float(np.mean(rec["grab"])), config) if rec["grab"] else None
        spreads[h] = _majority_spread(rec["spread"])

    def path_length(h):
        pos = per_hand[h]["pos"]
        if len(pos) < 2:
            return 0.0
        return float(np.linalg.norm(np.diff(np.asarray(pos), axis=0), axis=1).sum())

    mover = max(Handedness, key=lambda h: (path_length(h), h == Handedness.RIGHT))
    positions = np.asarray(per_hand[mover]["pos"], float) if per_hand[mover]["pos"] else np.empty((0, 3))
    stamps = np.asarray(per_hand[mover]["ts"], float)

    trajectory = TrajectoryKind.INDETERMINATE
    if len(positions) >= 10:
        # trim to the trailing 5 s so the classifier precondition holds
        cut = stamps >= stamps[-1] - 5000.0
        traj_span = min(span_s, 5.0)
        if traj_span >= 0.25:
            try:
                trajectory = classify_trajectory(positions[cut], traj_span, config)
            except TooFewSamples:
                pass

    frequency = None
    if len(positions) >= 2:
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
        inter_palm_distance_mm=float(np.mean(distances)) if distances else None,
        window_span_s=span_s,
    )


_SATISFIED, _CONTRADICTED, _NO_INFO = "satisfied", "contradicted", "no_info"


def _evaluate_feature(name: str, v: FeatureVector, s: StageSignature) -> str:
    if name == "orientation":
        return _SATISFIED if v.palm_orientation == s.orientation else _CONTRADICTED
    if name == "shape":
        present = [x for x in (v.palm_shape_left, v.palm_shape_right) if x is not None]
        if not present:
            return _NO_INFO
        return _SATISFIED if all(x == s.palm_shape for x in present) else _CONTRADICTED
    if name == "spread":
        pair = (v.finger_spread_left, v.finger_spread_right)
        if all(x == s.spread for x in pair):
            return _SATISFIED
        if any(x != FingerSpread.UNKNOWN and x != s.spread for x in pair):
            return _CONTRADICTED
        return _NO_INFO
    if name == "trajectory":
        if v.trajectory == TrajectoryKind.INDETERMINATE:
            return _NO_INFO
        return _SATISFIED if v.trajectory in s.trajectories else _CONTRADICTED
    if name == "frequency":
        if v.movement_frequency_hz is None:
            return _NO_INFO
        lo, hi = s.frequency_range_hz
        return _SATISFIED if lo <= v.movement_frequency_hz <= hi else _CONTRADICTED
    raise ValueError(f"unknown feature {name!r}")


def match_signature(vector: FeatureVector, signature: StageSignature):
    """Compare a feature vector to a stage signature.

    Returns (match, score): match requires every discriminative feature to be
    satisfied and no other feature to be contradicted; score is the fraction
    of discriminative features satisfied.
    """
    names = ("orientation", "shape", "spread", "trajectory", "frequency")
    satisfied_disc = 0
    match = True
    for name in names:
        verdict = _evaluate_feature(name, vector, signature)
        if name in signature.discriminative:
            if verdict == _SATISFIED:
                satisfied_disc += 1
            else:
                match = False
        elif verdict == _CONTRADICTED:
            match = False
    score = satisfied_disc / len(signature.discriminative) if signature.discriminative else 1.0
    return match, score
