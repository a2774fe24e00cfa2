"""Labeled two-hand feature datasets for classifier training elsewhere.

One row per labeled window: per-hand curvature and fingertip spacing plus
the windowed orientation/trajectory codes, frequency, and palm distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .config import DEFAULT_CONFIG, EngineConfig
from .errors import InsufficientWindow
from .features import PalmOrientation, TrajectoryKind, _window_hands, extract_feature_vector
from .frame_model import Handedness

DATASET_HEADER = "sample_no,curv_l,curv_r,ftd_l,ftd_r,orient,traj,freq_hz,ipd_mm,label"

ORIENTATION_CODES = {
    PalmOrientation.FACING_EACH_OTHER: 0,
    PalmOrientation.ONE_PALM_OVER_OTHER: 1,
    PalmOrientation.OTHER: 2,
}

TRAJECTORY_CODES = {
    TrajectoryKind.LINEAR: 0,
    TrajectoryKind.CIRCULAR: 1,
    TrajectoryKind.INDETERMINATE: 2,
}


@dataclass(frozen=True)
class DatasetRow:
    sample_no: int
    hand_curvature_left: Optional[float]
    hand_curvature_right: Optional[float]
    fingertip_distance_left: Optional[float]
    fingertip_distance_right: Optional[float]
    orientation_code: int
    trajectory_code: int
    frequency_hz: Optional[float]
    inter_palm_distance_mm: Optional[float]
    gesture_class: str


def _aggregate(values: np.ndarray, how: str) -> Optional[float]:
    if not len(values):
        return None
    return float(np.median(values) if how == "median" else np.mean(values))


def build_dataset(labeled_windows: Sequence, config: EngineConfig = DEFAULT_CONFIG,
                  aggregate: str = "mean"):
    """Turn (FrameStream window, label) pairs into dataset rows.

    Numeric per-frame values are reduced with the chosen aggregate (mean by
    default, median available). Rows keep the input order, numbered from 1.
    """
    if aggregate not in ("mean", "median"):
        raise ValueError(f"aggregate must be 'mean' or 'median', got {aggregate!r}")
    rows = []
    for index, (window, label) in enumerate(labeled_windows):
        if not label:
            raise ValueError(f"window {index}: empty gesture label")
        try:
            vector = extract_feature_vector(window, config)
        except InsufficientWindow as exc:
            raise InsufficientWindow(f"window {index}: {exc}") from None

        hands, _ = _window_hands(window.frames)
        left, right = hands[Handedness.LEFT], hands[Handedness.RIGHT]

        rows.append(DatasetRow(
            sample_no=index + 1,
            hand_curvature_left=_aggregate(left.grabs, aggregate),
            hand_curvature_right=_aggregate(right.grabs, aggregate),
            fingertip_distance_left=_aggregate(left.gaps[left.gap_pairs > 0], aggregate),
            fingertip_distance_right=_aggregate(right.gaps[right.gap_pairs > 0], aggregate),
            orientation_code=ORIENTATION_CODES[vector.palm_orientation],
            trajectory_code=TRAJECTORY_CODES[vector.trajectory],
            frequency_hz=vector.movement_frequency_hz,
            inter_palm_distance_mm=vector.inter_palm_distance_mm,
            gesture_class=label,
        ))
    return rows


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def rows_to_csv(rows) -> str:
    lines = [DATASET_HEADER]
    for r in rows:
        lines.append(",".join([
            str(r.sample_no),
            _cell(r.hand_curvature_left),
            _cell(r.hand_curvature_right),
            _cell(r.fingertip_distance_left),
            _cell(r.fingertip_distance_right),
            str(r.orientation_code),
            str(r.trajectory_code),
            _cell(r.frequency_hz),
            _cell(r.inter_palm_distance_mm),
            r.gesture_class,
        ]))
    return "\n".join(lines) + "\n"
