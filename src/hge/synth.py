"""Deterministic synthetic frame-stream generator.

Scripts describe a gesture as a list of timed phases (hold, approach, rub,
stacked-palms oscillation, primitives). Streams come with per-frame phase
labels, so generated data doubles as ground truth for the detector and the
feature extractors. Everything is a pure function of the script and its seed.
A PhaseSpec or GestureScript checks its values when built, from a file or in
code, and raises InvalidScript.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from enum import Enum
from itertools import accumulate, islice
from numbers import Real
from typing import Optional

import numpy as np

from .frame_model import (DEVICE_FPS_MAX, DEVICE_FPS_MIN, MAX_MAGNITUDE, Frame, FrameStream, HandObservation,
                          Handedness, row_norms)
from .errors import InvalidScript, UnknownPhase

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])

PALM_HEIGHT_MM = 200.0        # resting palm height above the sensor
FINGER_REACH_MM = 80.0        # palm center to fingertip row
OCCLUSION_DISTANCE_MM = 30.0  # one hand disappears below this separation
RUB_CONTACT_GAP_MM = 20.0     # palm-center separation while palms touch
FLAT_GRAB = 0.1
CLOSED_TIP_SPACING_MM = 10.0
OPEN_TIP_SPACING_MM = 20.0
STAGE3_STACK_GAP_MM = 40.0
MAX_SCRIPT_S = 600.0          # longest script: generate holds every frame in memory


class PhaseKind(str, Enum):
    IDLE = "idle"
    FACING_HOLD = "facing_hold"
    APPROACH = "approach"
    RUB_CIRCULAR = "rub_circular"
    STAGE3_LINEAR = "stage3_linear"
    PRIMITIVE = "primitive"


class OcclusionModel(str, Enum):
    DROP_ONE_HAND_ON_CONTACT = "drop_on_contact"
    NONE = "none"


class PrimitiveKind(str, Enum):
    SINUSOID_1D = "sinusoid_1d"
    CIRCLE = "circle"
    LINE = "line"
    STATIC = "static"


def _check_number(what: str, value):
    """A decimal value of a script: a real number, finite and below MAX_MAGNITUDE in magnitude."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise InvalidScript(f"{what} {value!r} is not a number")
    if not isinstance(value, int) and not math.isfinite(value):
        raise InvalidScript(f"{what} {value} is not finite")
    if not abs(value) < MAX_MAGNITUDE:
        raise InvalidScript(f"{what} {value} is not below {MAX_MAGNITUDE:g} in magnitude")


def _check_member(what: str, value, enum):
    if not isinstance(value, enum):
        raise InvalidScript(f"{what} {value!r} is not one of {', '.join(m.value for m in enum)}")


@dataclass(frozen=True)
class PhaseSpec:
    kind: PhaseKind
    duration_s: float
    separation_mm: float = 150.0          # facing_hold
    start_separation_mm: float = 150.0    # approach
    end_separation_mm: float = RUB_CONTACT_GAP_MM
    rub_frequency_hz: float = 2.0
    rub_radius_mm: float = 30.0
    oscillation_frequency_hz: float = 2.0
    oscillation_amplitude_mm: float = 15.0   # keeps the stacked palms within the 30 degree cone
    opposed_normals: bool = True          # False keeps both palms pointing one way
    primitive_kind: Optional[PrimitiveKind] = None

    def __post_init__(self):
        _check_member("phase kind", self.kind, PhaseKind)
        for f in fields(self):
            if f.type == "float":
                _check_number(f"{self.kind.value} {f.name}", getattr(self, f.name))
        if not isinstance(self.opposed_normals, bool):
            raise InvalidScript(f"{self.kind.value} opposed_normals {self.opposed_normals!r} is not a bool")
        if self.primitive_kind is not None:
            _check_member("unknown primitive kind", self.primitive_kind, PrimitiveKind)
        if self.duration_s <= 0:
            raise InvalidScript(f"{self.kind.value} duration must be positive")
        if self.kind == PhaseKind.APPROACH and not 0 <= self.end_separation_mm < self.start_separation_mm:
            raise InvalidScript("approach must reduce separation toward a non-negative value")
        if self.kind == PhaseKind.FACING_HOLD and self.separation_mm <= 0:
            raise InvalidScript("facing_hold separation must be positive, or the palms face away")
        if self.kind == PhaseKind.RUB_CIRCULAR and self.rub_radius_mm < 0:
            raise InvalidScript("rub radius must be non-negative")
        if self.kind == PhaseKind.PRIMITIVE and self.primitive_kind is None:
            raise InvalidScript("primitive phase needs a primitive_kind")


@dataclass(frozen=True)
class GestureScript:
    phases: tuple
    fps: float = 100.0
    noise_sigma: float = 0.0
    occlusion_model: OcclusionModel = OcclusionModel.DROP_ONE_HAND_ON_CONTACT
    surviving_hand: Handedness = Handedness.RIGHT
    seed: int = 0

    def __post_init__(self):
        if not self.phases:
            raise InvalidScript("script has no phases")
        if not isinstance(self.phases, tuple) or not all(isinstance(spec, PhaseSpec) for spec in self.phases):
            raise InvalidScript("phases must be a tuple of PhaseSpec")
        for f in fields(self)[1:]:      # the settings after `phases`
            _check_setting(f.name, getattr(self, f.name))
        total_s = sum(spec.duration_s for spec in self.phases)
        if total_s > MAX_SCRIPT_S:
            raise InvalidScript(f"script lasts {total_s:g} s, more than {MAX_SCRIPT_S:g} s")


_ENUM_SETTINGS = {"occlusion_model": OcclusionModel, "surviving_hand": Handedness}


def _check_setting(name: str, value):
    """Type and range check of one GestureScript setting."""
    if name in _ENUM_SETTINGS:
        _check_member(name, value, _ENUM_SETTINGS[name])
    elif name != "seed":
        _check_number(name, value)
    elif isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidScript(f"seed {value!r} is not an integer")
    if name == "fps" and not DEVICE_FPS_MIN <= value <= DEVICE_FPS_MAX:
        raise InvalidScript(f"fps {value} outside [{DEVICE_FPS_MIN:g}, {DEVICE_FPS_MAX:g}]")
    if name in ("noise_sigma", "seed") and value < 0:
        raise InvalidScript(f"{name} must be non-negative")


# rows of a hand block, in noise draw order, with the exact velocity last
_NORMAL, _PALM, _TIPS, _VELOCITY = 0, 1, slice(2, 7), 7
_PAIR = (Handedness.LEFT, Handedness.RIGHT)
_BLOCK_FRAMES = 256     # frames per render pass: blocks under 100 KB, whose freed copies do not raise peak memory


def _fill_hand(rows, palm, normal, velocity, forward, lateral, spacing):
    """Write the (m, 8, 3) rows of one hand over m frames from (m, 3) palm positions."""
    rows[:, _NORMAL] = normal
    rows[:, _PALM] = palm
    rows[:, _TIPS] = (palm + FINGER_REACH_MM * forward)[:, None, :] + np.array(
        [(k - 2) * spacing * lateral for k in range(5)])
    rows[:, _VELOCITY] = velocity


def _cos_sin(angles):
    """(m, 1) cosine and sine columns, from `math` so they match on every CPU."""
    angles = angles.tolist()
    return (np.array([math.cos(a) for a in angles])[:, None],
            np.array([math.sin(a) for a in angles])[:, None])


def _phase_block(spec: PhaseSpec, t_in):
    """(handedness per hand, (m, hands, 8, 3) block) of a phase at in-phase times t_in."""
    if spec.kind == PhaseKind.IDLE:
        return (), np.empty((len(t_in), 0, 8, 3))
    if spec.kind == PhaseKind.PRIMITIVE:
        block = np.empty((len(t_in), 1, 8, 3))
        pos, vel = _primitive_point(spec.primitive_kind, t_in)
        _fill_hand(block[:, 0], pos, Y, vel, Z, X, CLOSED_TIP_SPACING_MM)
        return (Handedness.RIGHT,), block
    block = np.empty((len(t_in), 2, 8, 3))
    left, right = block[:, 0], block[:, 1]
    center = PALM_HEIGHT_MM * Y
    right_normal = -X if spec.opposed_normals else X
    if spec.kind in (PhaseKind.FACING_HOLD, PhaseKind.APPROACH):
        # two palms on the x axis; opposed normals point at each other
        if spec.kind == PhaseKind.FACING_HOLD:
            speed, separation = 0.0, np.full((len(t_in), 1), spec.separation_mm)
        else:
            speed = (spec.start_separation_mm - spec.end_separation_mm) / spec.duration_s
            separation = spec.start_separation_mm - speed * t_in[:, None]
        _fill_hand(left, center - separation / 2.0 * X, X, speed / 2.0 * X, Z, Y, CLOSED_TIP_SPACING_MM)
        _fill_hand(right, center + separation / 2.0 * X, right_normal, -speed / 2.0 * X,
                   Z, Y, CLOSED_TIP_SPACING_MM)
    elif spec.kind == PhaseKind.RUB_CIRCULAR:
        omega = 2.0 * math.pi * spec.rub_frequency_hz
        cos, sin = _cos_sin(omega * t_in)
        offset = spec.rub_radius_mm * (cos * Y + sin * Z)
        vel = spec.rub_radius_mm * omega * (-sin * Y + cos * Z)
        _fill_hand(left, center - RUB_CONTACT_GAP_MM / 2.0 * X + offset, X, vel, Z, Y, CLOSED_TIP_SPACING_MM)
        _fill_hand(right, center + RUB_CONTACT_GAP_MM / 2.0 * X + offset, right_normal, vel,
                   Z, Y, CLOSED_TIP_SPACING_MM)
    else:
        # stage 3: right palm stacked over the left hand's back, oscillating along x
        omega = 2.0 * math.pi * spec.oscillation_frequency_hz
        cos, sin = _cos_sin(omega * t_in)
        top = center + STAGE3_STACK_GAP_MM * Y + spec.oscillation_amplitude_mm * sin * X
        top_vel = spec.oscillation_amplitude_mm * omega * cos * X
        _fill_hand(left, np.broadcast_to(center, top.shape), -Y, np.zeros(3), Z, X, OPEN_TIP_SPACING_MM)
        _fill_hand(right, top, -Y, top_vel, Z, X, OPEN_TIP_SPACING_MM)
    return _PAIR, block


def generate(script: GestureScript):
    """Render a script into (FrameStream, per-frame phase labels).

    Deterministic for a given seed. Each phase renders its frames in array
    passes, up to 256 frames at a time, into one block of hand rows per pass.
    With the drop-on-contact occlusion model, one hand vanishes for good from
    the first frame whose palm separation falls below 30 mm. Noise is drawn
    for the kept rows in frame order: Gaussian on palm and fingertip
    positions, and a matching small angular jitter on the palm normals, which
    are renormalized. Velocities and grab values stay exact. Observations
    hold writeable, non-overlapping row views of their block.
    """
    rng = np.random.default_rng(script.seed)
    sigma = script.noise_sigma
    scales = np.array([sigma / 100.0] * 3 + [sigma] * 18)     # normal, palm, tips
    bounds = list(accumulate((spec.duration_s for spec in script.phases), initial=0.0))
    index = np.arange(int(round(bounds[-1] * script.fps)))
    t = index / script.fps
    stamps = np.rint(index * 1000.0 / script.fps).astype(int).tolist()
    cuts = np.searchsorted(t, bounds[:-1]).tolist() + [len(t)]    # first frame of each phase
    drop = script.occlusion_model == OcclusionModel.DROP_ONE_HAND_ON_CONTACT
    hidden = 0 if script.surviving_hand == Handedness.RIGHT else 1    # _PAIR column of the hidden hand
    contact = None      # first frame whose two palms are closer than OCCLUSION_DISTANCE_MM

    blocks = [(spec, start, lo, min(lo + _BLOCK_FRAMES, end))
              for spec, start, first, end in zip(script.phases, bounds, cuts, cuts[1:])
              for lo in range(first, end, _BLOCK_FRAMES)]
    frames, labels = [], []
    for spec, start, lo, hi in blocks:
        who, block = _phase_block(spec, t[lo:hi] - start)
        keep = np.ones(block.shape[:2], bool)
        if drop and len(who) == 2:
            if contact is None:
                gap = row_norms(block[:, 0, _PALM] - block[:, 1, _PALM])
                close = np.flatnonzero(gap < OCCLUSION_DISTANCE_MM)
                contact = lo + int(close[0]) if len(close) else None
            if contact is not None:
                keep[max(contact - lo, 0):, hidden] = False
        rows = block[keep]
        if sigma > 0:
            rows[:, :_VELOCITY] += rng.normal(0.0, scales, (len(rows), 21)).reshape(-1, 7, 3)
            rows[:, _NORMAL] /= row_norms(rows[:, _NORMAL])[:, None]
        palms, normals, vels, tips = (list(rows[:, k]) for k in (_PALM, _NORMAL, _VELOCITY, _TIPS))
        observations = iter([HandObservation(who[h], palms[r], normals[r], vels[r], FLAT_GRAB, tips[r])
                             for r, h in enumerate(np.nonzero(keep)[1].tolist())])
        frames += [Frame(ts, tuple(islice(observations, n)))
                   for ts, n in zip(stamps[lo:hi], keep.sum(axis=1).tolist())]
        labels += [spec.kind.value] * (hi - lo)
    return FrameStream(frames), labels


# -- primitives ------------------------------------------------------------

def _primitive_point(kind: PrimitiveKind, t):
    """(m, 3) positions and velocities of a primitive at the m times in t.

    Each kind has one geometry, centred 200 mm above the sensor: sinusoid_1d
    swings 30 mm along x at 2 Hz, circle turns at 50 mm radius and 1 Hz in the
    x-z plane, line moves at 50 mm/s along x, and static stays put.
    """
    base = PALM_HEIGHT_MM * Y
    if kind == PrimitiveKind.SINUSOID_1D:
        omega = 2.0 * math.pi * 2.0
        cos, sin = _cos_sin(omega * t)
        return base + 30.0 * sin * X, 30.0 * omega * cos * X
    if kind == PrimitiveKind.CIRCLE:
        omega = 2.0 * math.pi
        cos, sin = _cos_sin(omega * t)
        return base + 50.0 * (cos * X + sin * Z), 50.0 * omega * (-sin * X + cos * Z)
    if kind == PrimitiveKind.LINE:
        return base + 50.0 * t[:, None] * X, np.broadcast_to(50.0 * X, (len(t), 3))
    return np.broadcast_to(base, (len(t), 3)), np.zeros((len(t), 3))     # static


# -- perturbations ----------------------------------------------------------

def drop_frames(stream: FrameStream, rate: float, seed: int = 0) -> FrameStream:
    """Remove frames independently with the given probability, keeping order."""
    if not 0.0 <= rate < 1.0:
        raise ValueError("rate must be in [0, 1)")
    rng = np.random.default_rng(seed)
    keep = rng.random(len(stream.frames)) >= rate
    return FrameStream([f for f, k in zip(stream.frames, keep) if k])


# -- script text format -------------------------------------------------------

_SCRIPT_KEYS = {   # global key -> (GestureScript field, converter)
    "fps": ("fps", float),
    "noise_sigma": ("noise_sigma", float),
    "seed": ("seed", int),
    "occlusion": ("occlusion_model", OcclusionModel),
    "surviving_hand": ("surviving_hand", lambda v: Handedness(v.capitalize())),
}
_PHASE_KEYS = {   # phase kind -> the keys its rendering reads
    PhaseKind.IDLE: ("duration_s",),
    PhaseKind.FACING_HOLD: ("duration_s", "separation_mm", "opposed_normals"),
    PhaseKind.APPROACH: ("duration_s", "start_separation_mm", "end_separation_mm", "opposed_normals"),
    PhaseKind.RUB_CIRCULAR: ("duration_s", "rub_frequency_hz", "rub_radius_mm", "opposed_normals"),
    PhaseKind.STAGE3_LINEAR: ("duration_s", "oscillation_frequency_hz", "oscillation_amplitude_mm"),
    PhaseKind.PRIMITIVE: ("duration_s", "primitive_kind"),
}
_FLAGS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}   # any case
# phase keys read by anything but float
_PHASE_CONVERTERS = {"opposed_normals": lambda v: _FLAGS[v.lower()], "primitive_kind": PrimitiveKind}


def _script_value(key: str, value: str, convert=float):
    """The value as `convert` reads it; the record it goes into checks its range."""
    try:
        return convert(value)
    except (ValueError, KeyError):
        raise InvalidScript(f"{key} value {value!r} is not {'numeric' if convert is float else 'valid'}") from None


def _read_line(parts, settings: dict, phases: list):
    """Add one script line's setting or phase; a fault raises InvalidScript without the line number."""
    key = parts[0]
    if key == "phase":
        if len(parts) < 3:
            raise InvalidScript("phase needs a kind and a duration")
        try:
            kind = PhaseKind(parts[1])
        except ValueError:
            raise InvalidScript(f"unknown phase kind {parts[1]!r}") from None
        kwargs = {}
        for token in parts[2:]:
            if "=" not in token:
                raise InvalidScript(f"expected k=v, got {token!r}")
            k, v = token.split("=", 1)
            if k not in _PHASE_KEYS[kind]:
                raise InvalidScript(f"phase {kind.value} reads no key {k!r}, only {', '.join(_PHASE_KEYS[kind])}")
            if k in kwargs:
                raise InvalidScript(f"repeated key {k!r}")
            kwargs[k] = _script_value(k, v, _PHASE_CONVERTERS.get(k, float))
        if "duration_s" not in kwargs:
            raise InvalidScript("phase needs duration_s")
        phases.append(PhaseSpec(kind=kind, **kwargs))
    elif key in _SCRIPT_KEYS:
        if len(parts) != 2:
            raise InvalidScript(f"expected '{key} value'")
        name, convert = _SCRIPT_KEYS[key]
        if name in settings:
            raise InvalidScript(f"repeated key {key!r}")
        settings[name] = _script_value(key, parts[1], convert)
        _check_setting(name, settings[name])
    else:
        raise InvalidScript(f"unknown key {key!r}")


def parse_script_text(text: str) -> GestureScript:
    """Parse the key-value script format.

    Global lines are `key value`; each `phase <kind> k=v ...` line appends a
    phase. A fault in one line is reported with that line. Example::

        fps 100
        seed 7
        phase facing_hold duration_s=1.0 separation_mm=150
        phase approach duration_s=1.0 start_separation_mm=150
        phase rub_circular duration_s=3.0 rub_frequency_hz=2.0
    """
    settings, phases = {}, []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            try:
                _read_line(line.split(), settings, phases)
            except InvalidScript as err:
                raise InvalidScript(f"line {lineno}: {err}") from None
    return GestureScript(phases=tuple(phases), **settings)


# -- canonical scripts -------------------------------------------------------

def make_canonical_script(rub_frequency_hz: float = 2.0, rub_duration_s: float = 3.0,
                          noise_sigma: float = 0.0, seed: int = 0, fps: float = 100.0,
                          hold_s: float = 1.0) -> GestureScript:
    """Hold facing palms 150 mm apart, approach for 1 s, then rub in a circle until the stream ends."""
    return GestureScript(
        phases=(
            PhaseSpec(PhaseKind.FACING_HOLD, hold_s),
            PhaseSpec(PhaseKind.APPROACH, 1.0),
            PhaseSpec(PhaseKind.RUB_CIRCULAR, rub_duration_s, rub_frequency_hz=rub_frequency_hz),
        ),
        fps=fps,
        noise_sigma=noise_sigma,
        seed=seed,
    )


def make_stage3_script(seed: int = 0) -> GestureScript:
    """Three seconds of stage-3 stacked palms oscillating along a line at 2 Hz."""
    return GestureScript(phases=(PhaseSpec(PhaseKind.STAGE3_LINEAR, 3.0),), seed=seed)


ABLATIONS = ("no_facing", "no_approach", "no_occlusion", "no_rotation", "short_rub")


def make_ablation_stream(name: str, rub_frequency_hz: float = 2.0, rub_duration_s: float = 3.0,
                         noise_sigma: float = 0.0, seed: int = 0, fps: float = 100.0):
    """Canonical stream with exactly one stage requirement removed.

    Each variant must leave the detector short of completion: palms that never
    face, a missing approach, no occlusion dropout, no rotation after contact,
    or a rub shorter than the minimum stage duration.
    """
    if name not in ABLATIONS:
        raise UnknownPhase(f"unknown ablation {name!r}")
    if name == "short_rub":
        rub_duration_s = min(rub_duration_s, 1.2)
    script = make_canonical_script(rub_frequency_hz, rub_duration_s, noise_sigma, seed, fps,
                                   hold_s=2.5 if name == "no_facing" else 1.0)
    if name == "no_facing":
        script = replace(script, phases=tuple(replace(p, opposed_normals=False) for p in script.phases))
    elif name == "no_occlusion":
        script = replace(script, occlusion_model=OcclusionModel.NONE)
    elif name == "no_rotation":
        script = replace(script, phases=tuple(
            replace(p, rub_radius_mm=0.0) if p.kind == PhaseKind.RUB_CIRCULAR else p for p in script.phases))
    stream, labels = generate(script)
    if name == "no_approach":
        stream = FrameStream([f for f, label in zip(stream.frames, labels) if label != PhaseKind.APPROACH.value])
    return stream
