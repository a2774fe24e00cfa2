"""Labeled two-hand feature datasets for classifier training elsewhere.

One row per labeled window, read off the window's FeatureVector: per-hand
curvature and fingertip spacing (the window means extract_feature_vector
reports) plus the orientation/trajectory codes, frequency, and palm distance.
"""

from __future__ import annotations

import csv
import io
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


def build_dataset(labeled_windows: Sequence, config: EngineConfig = DEFAULT_CONFIG):
    """Turn (FrameStream window, label) pairs into (FeatureVector, label) pairs, in input order."""
    rows = []
    for index, (window, label) in enumerate(labeled_windows):
        if not label:
            raise ValueError(f"window {index}: empty gesture label")
        try:
            vector = extract_feature_vector(window, config)
        except InsufficientWindow as exc:
            raise InsufficientWindow(f"window {index}: {exc}") from exc
        rows.append((vector, label))
    return rows


def _cell(value: Optional[float]) -> str:
    return "" if value is None else f"{value:.6g}"


def rows_to_csv(rows) -> str:
    """The dataset as CSV text, rows numbered from 1; a label holding a comma, quote or newline is quoted."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(DATASET_HEADER.split(","))
    for sample_no, (v, label) in enumerate(rows, 1):
        writer.writerow([
            sample_no,
            _cell(v.hand_curvature_left),
            _cell(v.hand_curvature_right),
            _cell(v.fingertip_distance_left),
            _cell(v.fingertip_distance_right),
            ORIENTATION_CODES[v.palm_orientation],
            TRAJECTORY_CODES[v.trajectory],
            _cell(v.movement_frequency_hz),
            _cell(v.inter_palm_distance_mm),
            label,
        ])
    return out.getvalue()
