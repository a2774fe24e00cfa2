"""Threshold configuration.

Every tunable constant used by the feature extractors and the stage
detector lives in one record so it can be inspected, overridden from a
key-value text file, and reported alongside results.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .errors import ConfigError


@dataclass(frozen=True)
class EngineConfig:
    # palm orientation
    facing_resultant_max: float = 0.4      # |A+B| below this means palms face each other
    stacked_resultant_min: float = 1.6     # |A+B| above this means normals near-parallel
    stacked_angle_max_deg: float = 30.0    # palm displacement vs shared normal
    orientation_vote_fraction: float = 0.70

    # palm shape
    flat_grab_max: float = 0.3             # grab strength at or below is a flat hand

    # finger spread
    open_spread_min_mm: float = 17.0       # min adjacent fingertip gap of an open hand

    # trajectory
    stationary_path_mm: float = 10.0
    line_variance_min: float = 0.95
    circle_residual_max: float = 0.10      # RMS residual as a fraction of fitted radius
    circle_radius_min_mm: float = 5.0
    circle_radius_max_mm: float = 200.0

    # frequency
    min_oscillation_amplitude_mm: float = 5.0
    min_crossing_gap_s: float = 0.04       # debounce between zero crossings

    # stage detector
    facing_dwell_s: float = 0.3
    not_facing_alert_s: float = 2.0
    approach_window_s: float = 0.5
    approach_slope_mm_s: float = -20.0
    contact_distance_mm: float = 30.0
    contact_margin_mm: float = 5.0         # one frame of closing at the slowest rate
    rotation_sweep_deg: float = 180.0
    sweep_min_speed_mm_s: float = 5.0
    sweep_max_step_deg: float = 150.0      # larger per-frame jumps are reversals, not rotation
    lost_hands_timeout_s: float = 1.0
    rub_freq_min_hz: float = 0.8
    rub_freq_max_hz: float = 3.6
    rub_freq_tolerance_hz: float = 0.1     # allowance for estimator error at the band edges
    rub_freq_window_s: float = 1.5
    rub_sustain_fraction: float = 0.8
    stage_min_s: float = 2.0
    stage_max_s: float = 7.0
    stage_max_slack_s: float = 0.5         # covers the occlusion-before-rub lead-in

    def validate(self) -> "EngineConfig":
        for name, (lo, hi) in _VALID_RANGES.items():
            v = getattr(self, name)
            if not (lo <= v <= hi):
                raise ConfigError(f"{name}={v} outside valid range [{lo}, {hi}]")
        if self.circle_radius_min_mm >= self.circle_radius_max_mm:
            raise ConfigError("circle radius band is empty")
        if self.rub_freq_min_hz >= self.rub_freq_max_hz:
            raise ConfigError("rub frequency band is empty")
        if self.stage_min_s >= self.stage_max_s:
            raise ConfigError("stage duration band is empty")
        return self


_VALID_RANGES = {
    "facing_resultant_max": (0.01, 2.0),
    "stacked_resultant_min": (1.0, 2.0),
    "stacked_angle_max_deg": (1.0, 90.0),
    "orientation_vote_fraction": (0.5, 1.0),
    "flat_grab_max": (0.0, 1.0),
    "open_spread_min_mm": (0.1, 100.0),
    "stationary_path_mm": (0.1, 100.0),
    "line_variance_min": (0.5, 1.0),
    "circle_residual_max": (0.01, 1.0),
    "circle_radius_min_mm": (0.1, 1000.0),
    "circle_radius_max_mm": (0.1, 1000.0),
    "min_oscillation_amplitude_mm": (0.1, 100.0),
    "min_crossing_gap_s": (0.0, 0.5),
    "facing_dwell_s": (0.01, 5.0),
    "not_facing_alert_s": (0.1, 30.0),
    "approach_window_s": (0.1, 5.0),
    "approach_slope_mm_s": (-10000.0, -0.1),
    "contact_distance_mm": (1.0, 200.0),
    "contact_margin_mm": (0.0, 50.0),
    "rotation_sweep_deg": (10.0, 1080.0),
    "sweep_min_speed_mm_s": (0.1, 1000.0),
    "sweep_max_step_deg": (90.0, 179.0),
    "lost_hands_timeout_s": (0.1, 30.0),
    "rub_freq_min_hz": (0.05, 50.0),
    "rub_freq_max_hz": (0.05, 50.0),
    "rub_freq_tolerance_hz": (0.0, 1.0),
    "rub_freq_window_s": (1.0, 5.0),
    "rub_sustain_fraction": (0.1, 1.0),
    "stage_min_s": (0.1, 60.0),
    "stage_max_s": (0.1, 60.0),
    "stage_max_slack_s": (0.0, 5.0),
}

_FIELD_NAMES = {f.name for f in fields(EngineConfig)}

DEFAULT_CONFIG = EngineConfig().validate()


def parse_config_text(text: str, base: EngineConfig | None = None) -> EngineConfig:
    """Parse `key value` lines ('#' starts a comment) into an EngineConfig.

    Unknown keys and out-of-range values raise ConfigError with the line number.
    """
    overrides = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ConfigError(f"line {lineno}: expected 'key value', got {raw!r}")
        key, value = parts
        if key not in _FIELD_NAMES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            overrides[key] = float(value)
        except ValueError:
            raise ConfigError(f"line {lineno}: {key} value {value!r} is not numeric") from None
    cfg = replace(base or DEFAULT_CONFIG, **overrides)
    return cfg.validate()


def load_config(path: str, base: EngineConfig | None = None) -> EngineConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), base=base)


def config_to_text(cfg: EngineConfig) -> str:
    return "\n".join(f"{f.name} {getattr(cfg, f.name)}" for f in fields(EngineConfig)) + "\n"
