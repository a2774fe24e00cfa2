"""Threshold configuration.

Every tunable constant used by the feature extractors and the stage
detector lives in one record so it can be inspected, overridden from a
key-value text file, and reported alongside results.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from .errors import ConfigError


def _ranged(default: float, lo: float, hi: float):
    """A threshold field with its valid range [lo, hi], which _check_range enforces."""
    return field(default=default, metadata={"range": (lo, hi)})


@dataclass(frozen=True)
class EngineConfig:
    # palm orientation
    facing_resultant_max: float = _ranged(0.4, 0.01, 2.0)    # |A+B| below this means palms face each other
    stacked_resultant_min: float = _ranged(1.6, 1.0, 2.0)    # |A+B| above this means normals near-parallel
    stacked_angle_max_deg: float = _ranged(30.0, 1.0, 90.0)  # palm displacement vs shared normal
    orientation_vote_fraction: float = _ranged(0.70, 0.5, 1.0)

    # palm shape
    flat_grab_max: float = _ranged(0.3, 0.0, 1.0)            # grab strength at or below is a flat hand

    # finger spread
    open_spread_min_mm: float = _ranged(17.0, 0.1, 100.0)    # min adjacent fingertip gap of an open hand

    # trajectory
    stationary_path_mm: float = _ranged(10.0, 0.1, 100.0)
    line_variance_min: float = _ranged(0.95, 0.5, 1.0)
    circle_residual_max: float = _ranged(0.10, 0.01, 1.0)    # RMS residual as a fraction of fitted radius
    circle_radius_min_mm: float = _ranged(5.0, 0.1, 1000.0)
    circle_radius_max_mm: float = _ranged(200.0, 0.1, 1000.0)

    # frequency
    min_oscillation_amplitude_mm: float = _ranged(5.0, 0.1, 100.0)
    min_crossing_gap_s: float = _ranged(0.04, 0.0, 0.5)      # debounce between zero crossings

    # stage detector
    facing_dwell_s: float = _ranged(0.3, 0.01, 5.0)
    not_facing_alert_s: float = _ranged(2.0, 0.1, 30.0)
    approach_window_s: float = _ranged(0.5, 0.1, 5.0)
    approach_slope_mm_s: float = _ranged(-20.0, -10000.0, -0.1)
    # palms close enough to touch (30 mm), plus one frame of closing at the slowest frame rate
    contact_distance_mm: float = _ranged(35.0, 1.0, 250.0)
    rotation_sweep_deg: float = _ranged(180.0, 10.0, 1080.0)
    sweep_min_speed_mm_s: float = _ranged(5.0, 0.1, 1000.0)
    sweep_max_step_deg: float = _ranged(150.0, 90.0, 179.0)  # larger per-frame jumps are reversals, not rotation
    lost_hands_timeout_s: float = _ranged(1.0, 0.1, 30.0)
    rub_freq_min_hz: float = _ranged(0.8, 0.05, 50.0)
    rub_freq_max_hz: float = _ranged(3.6, 0.05, 50.0)
    rub_freq_tolerance_hz: float = _ranged(0.1, 0.0, 1.0)    # allowance for estimator error at the band edges
    rub_freq_window_s: float = _ranged(1.5, 1.0, 5.0)
    rub_sustain_fraction: float = _ranged(0.8, 0.1, 1.0)
    stage_min_s: float = _ranged(2.0, 0.1, 60.0)
    stage_max_s: float = _ranged(7.0, 0.1, 60.0)
    stage_max_slack_s: float = _ranged(0.5, 0.0, 5.0)        # covers the occlusion-before-rub lead-in

    def validate(self) -> "EngineConfig":
        for name in _RANGES:
            _check_range(name, getattr(self, name))
        if self.circle_radius_min_mm >= self.circle_radius_max_mm:
            raise ConfigError("circle radius band is empty")
        if self.rub_freq_min_hz >= self.rub_freq_max_hz:
            raise ConfigError("rub frequency band is empty")
        if self.stage_min_s >= self.stage_max_s:
            raise ConfigError("stage duration band is empty")
        return self


_RANGES = {f.name: f.metadata["range"] for f in fields(EngineConfig)}


def _check_range(name: str, value: float, where: str = ""):
    lo, hi = _RANGES[name]
    if not (lo <= value <= hi):
        raise ConfigError(f"{where}{name}={value} outside valid range [{lo}, {hi}]")


DEFAULT_CONFIG = EngineConfig().validate()


def parse_config_text(text: str) -> EngineConfig:
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
        if key not in _RANGES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in overrides:
            raise ConfigError(f"line {lineno}: repeated key {key!r}")
        try:
            overrides[key] = float(value)
        except ValueError:
            raise ConfigError(f"line {lineno}: {key} value {value!r} is not numeric") from None
        _check_range(key, overrides[key], f"line {lineno}: ")
    return replace(DEFAULT_CONFIG, **overrides).validate()


def config_to_text(cfg: EngineConfig) -> str:
    return "\n".join(f"{f.name} {getattr(cfg, f.name)}" for f in fields(EngineConfig)) + "\n"
