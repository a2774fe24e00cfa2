"""Deterministic synthetic frame-stream generator.

Scripts describe a gesture as a list of timed phases (hold, approach, rub,
stacked-palms oscillation, primitives). Streams come with per-frame phase
labels, so generated data doubles as ground truth for the detector and the
feature extractors. Everything is a pure function of the script and its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

import numpy as np

from .frame_model import DEVICE_FPS_MAX, DEVICE_FPS_MIN, Frame, FrameStream, HandObservation, Handedness
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


@dataclass(frozen=True)
class PhaseSpec:
    kind: PhaseKind
    duration_s: float
    separation_mm: float = 150.0          # facing_hold
    start_separation_mm: float = 150.0    # approach
    end_separation_mm: float = RUB_CONTACT_GAP_MM
    approach_speed_mm_s: Optional[float] = None
    rub_frequency_hz: float = 2.0
    rub_radius_mm: float = 30.0
    oscillation_frequency_hz: float = 2.0
    oscillation_amplitude_mm: float = 15.0   # keeps the stacked palms within the 30 degree cone
    opposed_normals: bool = True          # False keeps both palms pointing one way
    primitive_kind: Optional[PrimitiveKind] = None


@dataclass(frozen=True)
class GestureScript:
    phases: tuple
    fps: float = 100.0
    noise_sigma: float = 0.0
    occlusion_model: OcclusionModel = OcclusionModel.DROP_ONE_HAND_ON_CONTACT
    surviving_hand: Handedness = Handedness.RIGHT
    seed: int = 0


def _validate_script(script: GestureScript):
    if not script.phases:
        raise InvalidScript("script has no phases")
    if not DEVICE_FPS_MIN <= script.fps <= DEVICE_FPS_MAX:
        raise InvalidScript(f"fps {script.fps} outside [{DEVICE_FPS_MIN:g}, {DEVICE_FPS_MAX:g}]")
    if script.noise_sigma < 0:
        raise InvalidScript("noise_sigma must be non-negative")
    if script.seed < 0:
        raise InvalidScript("seed must be non-negative")
    for spec in script.phases:
        if spec.duration_s <= 0:
            raise InvalidScript(f"{spec.kind.value} duration must be positive")
        if spec.kind == PhaseKind.APPROACH:
            end = _approach_end(spec)
            if end < 0 or end >= spec.start_separation_mm:
                raise InvalidScript("approach must reduce separation toward a non-negative value")
        if spec.kind == PhaseKind.RUB_CIRCULAR and spec.rub_radius_mm < 0:
            raise InvalidScript("rub radius must be non-negative")
        if spec.kind == PhaseKind.PRIMITIVE and spec.primitive_kind is None:
            raise InvalidScript("primitive phase needs a primitive_kind")
    total_s = sum(spec.duration_s for spec in script.phases)
    if total_s > MAX_SCRIPT_S:
        raise InvalidScript(f"script lasts {total_s:g} s, more than {MAX_SCRIPT_S:g} s")


def _approach_end(spec: PhaseSpec) -> float:
    if spec.approach_speed_mm_s is not None:
        return spec.start_separation_mm - spec.approach_speed_mm_s * spec.duration_s
    return spec.end_separation_mm


def _fingertips(palm, forward, lateral, spacing):
    row = palm + FINGER_REACH_MM * forward
    return np.array([row + (k - 2) * spacing * lateral for k in range(5)])


def _hand(handedness, palm, normal, velocity, forward, lateral, spacing, grab=FLAT_GRAB):
    return HandObservation(
        handedness=handedness,
        palm_position=np.asarray(palm, float),
        palm_normal=np.asarray(normal, float),
        palm_velocity=np.asarray(velocity, float),
        grab_strength=grab,
        fingertips=_fingertips(np.asarray(palm, float), forward, lateral, spacing),
    )


def _facing_pair(separation, closing_speed, spacing, opposed):
    """Two palms on the x axis; opposed normals point at each other."""
    center = PALM_HEIGHT_MM * Y
    left_palm = center - separation / 2.0 * X
    right_palm = center + separation / 2.0 * X
    left_normal = X
    right_normal = -X if opposed else X
    left_vel = closing_speed / 2.0 * X
    right_vel = -closing_speed / 2.0 * X
    left = _hand(Handedness.LEFT, left_palm, left_normal, left_vel, Z, Y, spacing)
    right = _hand(Handedness.RIGHT, right_palm, right_normal, right_vel, Z, Y, spacing)
    return left, right


def _rub_pair(spec, t_in_phase, opposed):
    center = PALM_HEIGHT_MM * Y
    omega = 2.0 * math.pi * spec.rub_frequency_hz
    ang = omega * t_in_phase
    offset = spec.rub_radius_mm * (math.cos(ang) * Y + math.sin(ang) * Z)
    vel = spec.rub_radius_mm * omega * (-math.sin(ang) * Y + math.cos(ang) * Z)
    left_palm = center - RUB_CONTACT_GAP_MM / 2.0 * X + offset
    right_palm = center + RUB_CONTACT_GAP_MM / 2.0 * X + offset
    left_normal = X
    right_normal = -X if opposed else X
    left = _hand(Handedness.LEFT, left_palm, left_normal, vel, Z, Y, CLOSED_TIP_SPACING_MM)
    right = _hand(Handedness.RIGHT, right_palm, right_normal, vel, Z, Y, CLOSED_TIP_SPACING_MM)
    return left, right


def _stage3_pair(spec, t_in_phase):
    """Right palm stacked over the left hand's back, oscillating along x."""
    omega = 2.0 * math.pi * spec.oscillation_frequency_hz
    base = PALM_HEIGHT_MM * Y
    bottom = base
    top = base + STAGE3_STACK_GAP_MM * Y + spec.oscillation_amplitude_mm * math.sin(omega * t_in_phase) * X
    top_vel = spec.oscillation_amplitude_mm * omega * math.cos(omega * t_in_phase) * X
    left = _hand(Handedness.LEFT, bottom, -Y, np.zeros(3), Z, X, OPEN_TIP_SPACING_MM)
    right = _hand(Handedness.RIGHT, top, -Y, top_vel, Z, X, OPEN_TIP_SPACING_MM)
    return left, right


def _primitive_hand(spec, t_in_phase):
    pos, vel = _primitive_point(spec.primitive_kind, {}, t_in_phase)
    return _hand(Handedness.RIGHT, pos, Y, vel, Z, X, CLOSED_TIP_SPACING_MM)


def generate(script: GestureScript):
    """Render a script into (FrameStream, per-frame phase labels).

    Deterministic for a given seed. Positional noise is Gaussian on palm and
    fingertip positions; palm normals get a matching small angular jitter and
    are renormalized. Velocities and grab values stay exact. With the
    drop-on-contact occlusion model, one hand vanishes for good once the
    palm separation falls below 30 mm.
    """
    _validate_script(script)
    rng = np.random.default_rng(script.seed)
    starts = []
    t0 = 0.0
    for spec in script.phases:
        starts.append(t0)
        t0 += spec.duration_s
    total_s = t0
    n_frames = int(round(total_s * script.fps))

    frames = []
    labels = []
    occluded = False
    drop = script.occlusion_model == OcclusionModel.DROP_ONE_HAND_ON_CONTACT
    hidden = Handedness.LEFT if script.surviving_hand == Handedness.RIGHT else Handedness.RIGHT

    for i in range(n_frames):
        t = i / script.fps
        k = 0
        while k + 1 < len(script.phases) and t >= starts[k + 1]:
            k += 1
        spec = script.phases[k]
        t_in = t - starts[k]

        if spec.kind == PhaseKind.IDLE:
            hands = ()
        elif spec.kind == PhaseKind.FACING_HOLD:
            hands = _facing_pair(spec.separation_mm, 0.0, CLOSED_TIP_SPACING_MM, spec.opposed_normals)
        elif spec.kind == PhaseKind.APPROACH:
            end = _approach_end(spec)
            speed = (spec.start_separation_mm - end) / spec.duration_s
            separation = spec.start_separation_mm - speed * t_in
            hands = _facing_pair(separation, speed, CLOSED_TIP_SPACING_MM, spec.opposed_normals)
        elif spec.kind == PhaseKind.RUB_CIRCULAR:
            hands = _rub_pair(spec, t_in, spec.opposed_normals)
        elif spec.kind == PhaseKind.STAGE3_LINEAR:
            hands = _stage3_pair(spec, t_in)
        else:
            hands = (_primitive_hand(spec, t_in),)

        if drop and len(hands) == 2:
            separation = float(np.linalg.norm(hands[0].palm_position - hands[1].palm_position))
            if occluded or separation < OCCLUSION_DISTANCE_MM:
                occluded = True
                hands = tuple(h for h in hands if h.handedness != hidden)

        if script.noise_sigma > 0:
            hands = tuple(_jitter(h, script.noise_sigma, rng) for h in hands)

        frames.append(Frame(int(round(i * 1000.0 / script.fps)), tuple(hands)))
        labels.append(spec.kind.value)

    return FrameStream(frames), labels


def _jitter(obs: HandObservation, sigma: float, rng) -> HandObservation:
    normal = obs.palm_normal + rng.normal(0.0, sigma / 100.0, 3)
    return HandObservation(
        handedness=obs.handedness,
        palm_position=obs.palm_position + rng.normal(0.0, sigma, 3),
        palm_normal=normal / np.linalg.norm(normal),
        palm_velocity=obs.palm_velocity,
        grab_strength=obs.grab_strength,
        fingertips=obs.fingertips + rng.normal(0.0, sigma, (5, 3)),
    )


# -- primitives ------------------------------------------------------------

def _primitive_point(kind: PrimitiveKind, params: dict, t: float):
    if kind == PrimitiveKind.SINUSOID_1D:
        f = params.get("frequency_hz", 2.0)
        amp = params.get("amplitude_mm", 30.0)
        axis = np.asarray(params.get("axis", X), float)
        base = np.asarray(params.get("base", PALM_HEIGHT_MM * Y), float)
        omega = 2.0 * math.pi * f
        return base + amp * math.sin(omega * t) * axis, amp * omega * math.cos(omega * t) * axis
    if kind == PrimitiveKind.CIRCLE:
        r = params.get("radius_mm", 50.0)
        f = params.get("frequency_hz", 1.0)
        u = np.asarray(params.get("u", X), float)
        v = np.asarray(params.get("v", Z), float)
        center = np.asarray(params.get("center", PALM_HEIGHT_MM * Y), float)
        omega = 2.0 * math.pi * f
        ang = omega * t
        pos = center + r * (math.cos(ang) * u + math.sin(ang) * v)
        vel = r * omega * (-math.sin(ang) * u + math.cos(ang) * v)
        return pos, vel
    if kind == PrimitiveKind.LINE:
        direction = np.asarray(params.get("direction", X), float)
        direction = direction / np.linalg.norm(direction)
        speed = params.get("speed_mm_s", 50.0)
        base = np.asarray(params.get("base", PALM_HEIGHT_MM * Y), float)
        return base + speed * t * direction, speed * direction
    if kind == PrimitiveKind.STATIC:
        base = np.asarray(params.get("base", PALM_HEIGHT_MM * Y), float)
        return base, np.zeros(3)
    raise InvalidScript(f"unknown primitive kind {kind!r}")


def generate_primitive(kind: PrimitiveKind, **params):
    """Exact analytic trajectory for extractor tests.

    Returns (positions (n, 3), timestamps_ms). Common params: duration_s,
    fps, plus the per-kind geometry (frequency_hz, amplitude_mm, radius_mm,
    u/v plane basis, direction, speed_mm_s, base).
    """
    duration_s = params.pop("duration_s", 3.0)
    fps = params.pop("fps", 100.0)
    if duration_s <= 0 or fps <= 0:
        raise InvalidScript("duration_s and fps must be positive")
    n = int(round(duration_s * fps))
    positions = np.empty((n, 3))
    timestamps = np.empty(n, dtype=int)
    for i in range(n):
        t = i / fps
        positions[i], _ = _primitive_point(PrimitiveKind(kind), params, t)
        timestamps[i] = int(round(i * 1000.0 / fps))
    return positions, timestamps


def random_plane_basis(rng):
    """Orthonormal (u, v) spanning a uniformly random plane."""
    while True:
        u = rng.normal(size=3)
        nu = np.linalg.norm(u)
        if nu > 1e-6:
            u = u / nu
            break
    while True:
        w = rng.normal(size=3)
        v = w - (w @ u) * u
        nv = np.linalg.norm(v)
        if nv > 1e-6:
            return u, v / nv


# -- perturbations ----------------------------------------------------------

def remove_phase_frames(stream: FrameStream, labels, phase):
    """Drop every frame labeled with the given phase kind."""
    try:
        kind = PhaseKind(phase).value
    except ValueError:
        raise UnknownPhase(f"unknown phase {phase!r}") from None
    if len(labels) != len(stream.frames):
        raise ValueError("labels must parallel the stream frames")
    kept = [(f, lab) for f, lab in zip(stream.frames, labels) if lab != kind]
    return FrameStream([f for f, _ in kept]), [lab for _, lab in kept]


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
_PHASE_FLOAT_KEYS = {
    "duration_s", "separation_mm", "start_separation_mm", "end_separation_mm",
    "approach_speed_mm_s", "rub_frequency_hz", "rub_radius_mm",
    "oscillation_frequency_hz", "oscillation_amplitude_mm",
}


def _script_value(key: str, value: str, lineno: int, convert=float):
    """The value as `convert` reads it; a float must also be finite."""
    try:
        x = convert(value)
    except ValueError:
        what = "numeric" if convert is float else "valid"
        raise InvalidScript(f"line {lineno}: {key} value {value!r} is not {what}") from None
    if convert is float and not math.isfinite(x):
        raise InvalidScript(f"line {lineno}: {key} value {value!r} is not finite")
    return x


def parse_script_text(text: str) -> GestureScript:
    """Parse the key-value script format.

    Global lines are `key value`; each `phase <kind> k=v ...` line appends a
    phase. Example::

        fps 100
        seed 7
        phase facing_hold duration_s=1.0 separation_mm=150
        phase approach duration_s=1.0 start_separation_mm=150
        phase rub_circular duration_s=3.0 rub_frequency_hz=2.0
    """
    fields = {}
    phases = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key = parts[0]
        if key == "phase":
            if len(parts) < 3:
                raise InvalidScript(f"line {lineno}: phase needs a kind and a duration")
            try:
                kind = PhaseKind(parts[1])
            except ValueError:
                raise InvalidScript(f"line {lineno}: unknown phase kind {parts[1]!r}") from None
            kwargs = {}
            for token in parts[2:]:
                if "=" not in token:
                    raise InvalidScript(f"line {lineno}: expected k=v, got {token!r}")
                k, v = token.split("=", 1)
                if k in _PHASE_FLOAT_KEYS:
                    kwargs[k] = _script_value(k, v, lineno)
                elif k == "opposed_normals":
                    kwargs[k] = v.lower() in ("1", "true", "yes")
                elif k == "primitive_kind":
                    kwargs[k] = _script_value(k, v, lineno, PrimitiveKind)
                else:
                    raise InvalidScript(f"line {lineno}: unknown phase key {k!r}")
            if "duration_s" not in kwargs:
                raise InvalidScript(f"line {lineno}: phase needs duration_s")
            phases.append(PhaseSpec(kind=kind, **kwargs))
        elif key in _SCRIPT_KEYS:
            if len(parts) != 2:
                raise InvalidScript(f"line {lineno}: expected '{key} value'")
            name, convert = _SCRIPT_KEYS[key]
            fields[name] = _script_value(key, parts[1], lineno, convert)
        else:
            raise InvalidScript(f"line {lineno}: unknown key {key!r}")

    script = GestureScript(phases=tuple(phases), **fields)
    _validate_script(script)
    return script


# -- canonical scripts -------------------------------------------------------

def make_canonical_script(rub_frequency_hz: float = 2.0, rub_duration_s: float = 3.0,
                          noise_sigma: float = 0.0, seed: int = 0, fps: float = 100.0,
                          hold_s: float = 1.0, approach_s: float = 1.0,
                          start_separation_mm: float = 150.0) -> GestureScript:
    """Hold facing palms, approach, then rub in a circle until the stream ends."""
    return GestureScript(
        phases=(
            PhaseSpec(PhaseKind.FACING_HOLD, hold_s, separation_mm=start_separation_mm),
            PhaseSpec(PhaseKind.APPROACH, approach_s, start_separation_mm=start_separation_mm),
            PhaseSpec(PhaseKind.RUB_CIRCULAR, rub_duration_s, rub_frequency_hz=rub_frequency_hz),
        ),
        fps=fps,
        noise_sigma=noise_sigma,
        seed=seed,
    )


def make_stage3_script(duration_s: float = 3.0, frequency_hz: float = 2.0,
                       noise_sigma: float = 0.0, seed: int = 0, fps: float = 100.0) -> GestureScript:
    return GestureScript(
        phases=(PhaseSpec(PhaseKind.STAGE3_LINEAR, duration_s, oscillation_frequency_hz=frequency_hz),),
        fps=fps,
        noise_sigma=noise_sigma,
        seed=seed,
    )


ABLATIONS = ("no_facing", "no_approach", "no_occlusion", "no_rotation", "short_rub")


def make_ablation_stream(name: str, rub_frequency_hz: float = 2.0, rub_duration_s: float = 3.0,
                         noise_sigma: float = 0.0, seed: int = 0, fps: float = 100.0):
    """Canonical stream with exactly one stage requirement removed.

    Each variant must leave the detector short of completion: palms that never
    face, a missing approach, no occlusion dropout, no rotation after contact,
    or a rub shorter than the minimum stage duration.
    """
    base = dict(rub_frequency_hz=rub_frequency_hz, rub_duration_s=rub_duration_s,
                noise_sigma=noise_sigma, seed=seed, fps=fps)
    if name == "no_facing":
        script = make_canonical_script(hold_s=2.5, **base)
        script = replace(script, phases=tuple(replace(p, opposed_normals=False) for p in script.phases))
        stream, _ = generate(script)
        return stream
    if name == "no_approach":
        stream, labels = generate(make_canonical_script(**base))
        stream, _ = remove_phase_frames(stream, labels, PhaseKind.APPROACH)
        return stream
    if name == "no_occlusion":
        script = replace(make_canonical_script(**base), occlusion_model=OcclusionModel.NONE)
        stream, _ = generate(script)
        return stream
    if name == "no_rotation":
        script = make_canonical_script(**base)
        script = replace(script, phases=tuple(
            replace(p, rub_radius_mm=0.0) if p.kind == PhaseKind.RUB_CIRCULAR else p
            for p in script.phases))
        stream, _ = generate(script)
        return stream
    if name == "short_rub":
        base["rub_duration_s"] = min(rub_duration_s, 1.2)
        stream, _ = generate(make_canonical_script(**base))
        return stream
    raise UnknownPhase(f"unknown ablation {name!r}")
