"""Labeled two-hand feature datasets for classifier training elsewhere.

One row per labeled window, read off the window's FeatureVector: per-hand
curvature and fingertip spacing plus the orientation/trajectory codes,
frequency, and palm distance.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Optional, Sequence

from .config import DEFAULT_CONFIG, EngineConfig
from .errors import InsufficientWindow
from .features import PalmOrientation, TrajectoryKind, extract_feature_vector

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


def build_dataset(labeled_windows: Sequence, config: EngineConfig = DEFAULT_CONFIG):
    """Turn (FrameStream window, label) pairs into dataset rows.

    Per-frame values are the window means that extract_feature_vector
    reports. Rows keep the input order, numbered from 1.
    """
    rows = []
    for index, (window, label) in enumerate(labeled_windows):
        if not label:
            raise ValueError(f"window {index}: empty gesture label")
        try:
            vector = extract_feature_vector(window, config)
        except InsufficientWindow as exc:
            raise InsufficientWindow(f"window {index}: {exc}") from None
        rows.append(DatasetRow(
            sample_no=index + 1,
            hand_curvature_left=vector.hand_curvature_left,
            hand_curvature_right=vector.hand_curvature_right,
            fingertip_distance_left=vector.fingertip_distance_left,
            fingertip_distance_right=vector.fingertip_distance_right,
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
    """The dataset as CSV text; a label holding a comma, quote or newline is quoted."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(DATASET_HEADER.split(","))
    for r in rows:
        writer.writerow([
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
        ])
    return out.getvalue()
