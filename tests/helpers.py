"""Shared builders and independent oracles for the test suite."""

import math
from functools import lru_cache

import numpy as np

from hge import DEFAULT_CONFIG, Frame, FrameStream, HandObservation, Handedness, HandRecords, TooFewSamples
from hge.features import symmetric_eigen3
from hge.frame_model import DEVICE_FPS_MIN


NAN_ROW = (np.nan, np.nan, np.nan)   # an untracked fingertip


def make_hand(handedness, palm=(0.0, 200.0, 0.0), normal=(0.0, 1.0, 0.0),
              velocity=(0.0, 0.0, 0.0), grab=0.1, tip_spacing=20.0, tips=None):
    """Hand observation with evenly spaced fingertips unless five tip rows are given."""
    palm = np.asarray(palm, float)
    if tips is None:
        tips = [palm + np.array([0.0, 0.0, 80.0]) + (k - 2) * tip_spacing * np.array([1.0, 0.0, 0.0])
                for k in range(5)]
    return HandObservation(
        handedness=handedness,
        palm_position=palm,
        palm_normal=np.asarray(normal, float),
        palm_velocity=np.asarray(velocity, float),
        grab_strength=grab,
        fingertips=np.array(tips, float),
    )


def hand_records(handedness, timestamps) -> HandRecords:
    """Records of make_hand's values, each palm's x set to its record's timestamp so a frame names its records."""
    obs = make_hand(handedness)
    values = np.concatenate([obs.palm_position, obs.palm_normal, obs.palm_velocity, [obs.grab_strength],
                             obs.fingertips.reshape(-1)])
    block = np.tile(values, (len(timestamps), 1))
    block[:, 0] = timestamps
    return HandRecords(handedness, np.array(timestamps, np.int64), block)


def facing_frames(n, dt_ms=10, t0=0, separation=150.0, closing_mm_s=0.0, opposed=True):
    """Two static or closing palms on the x axis, normals facing when opposed."""
    frames = []
    for i in range(n):
        t = t0 + i * dt_ms
        sep = separation - closing_mm_s * (i * dt_ms) / 1000.0
        left = make_hand(Handedness.LEFT, palm=(-sep / 2.0, 200.0, 0.0), normal=(1.0, 0.0, 0.0),
                         velocity=(closing_mm_s / 2.0, 0.0, 0.0))
        right = make_hand(Handedness.RIGHT, palm=(sep / 2.0, 200.0, 0.0),
                          normal=(-1.0, 0.0, 0.0) if opposed else (1.0, 0.0, 0.0),
                          velocity=(-closing_mm_s / 2.0, 0.0, 0.0))
        frames.append(Frame(t, (left, right)))
    return frames


def sinusoid(frequency_hz, amplitude_mm, duration_s, fps):
    """Closed-form palm path swinging along x about (0, 200, 0) mm.

    Returns (n, 3) positions and whole-ms timestamps, one sample every 1/fps s.
    """
    index = np.arange(int(round(duration_s * fps)))
    swing = amplitude_mm * np.sin(2.0 * np.pi * frequency_hz * index / fps)
    positions = np.outer(swing, [1.0, 0.0, 0.0]) + [0.0, 200.0, 0.0]
    return positions, np.rint(index * 1000.0 / fps).astype(int)


def chord_oracle(a, b):
    """|a + b| for unit vectors equals the chord length 2*sin(theta/2),
    theta being the angle between a and -b."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    cos_theta = float(np.clip(a @ (-b), -1.0, 1.0))
    return 2.0 * math.sin(math.acos(cos_theta) / 2.0)


def brute_force_max_pairs(left_ts, right_ts, window):
    """Maximum number of order-preserving record pairs within the window,
    found by exhaustive subproblem search."""
    left_ts = tuple(left_ts)
    right_ts = tuple(right_ts)

    @lru_cache(maxsize=None)
    def best(i, j):
        if i == len(left_ts) or j == len(right_ts):
            return 0
        options = [best(i + 1, j), best(i, j + 1)]
        if abs(left_ts[i] - right_ts[j]) <= window:
            options.append(1 + best(i + 1, j + 1))
        return max(options)

    return best(0, 0)


def random_unit(rng):
    while True:
        v = rng.normal(size=3)
        n = np.linalg.norm(v)
        if n > 1e-9:
            return v / n


def random_plane_basis(rng):
    """Orthonormal (u, v) spanning a uniformly random plane."""
    u = random_unit(rng)
    while True:
        w = rng.normal(size=3)
        v = w - (w @ u) * u
        nv = np.linalg.norm(v)
        if nv > 1e-6:
            return u, v / nv


def random_rotation(rng):
    """Uniform proper rotation matrix via QR with sign correction."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def stream_scalars(stream):
    """Flatten every scalar in a stream, or in a sequence of frames, for exact comparisons."""
    out = []
    for f in stream.frames if isinstance(stream, FrameStream) else stream:
        out.append(float(f.timestamp))
        for obs in sorted(f.hands, key=lambda o: o.handedness.value):
            out.extend(obs.palm_position.tolist())
            out.extend(obs.palm_normal.tolist())
            out.extend(obs.palm_velocity.tolist())
            out.append(obs.grab_strength)
            out.extend(obs.fingertips.reshape(-1).tolist())
    return np.array(out)


def reference_signal(positions):
    """estimate_frequency's re-centred principal-axis signal of an (n, 3) window, as whole-array operators: the
    means as np.add.reduce, the covariance and projection with @. Frozen here, so that a faster window fit in
    features is held to these bits."""
    pts = np.asarray(positions, float)
    centered = pts - np.add.reduce(pts, 0) / len(pts)
    _, axes = symmetric_eigen3((centered.T @ centered / len(pts)).tolist())
    signal = centered @ axes[2]
    return signal - np.add.reduce(signal, 0) / len(signal)


def reference_frequency(palm_positions, timestamps_ms, config=DEFAULT_CONFIG):
    """estimate_frequency as whole arrays: reference_signal's window fit, and the crossing times interpolated with
    flatnonzero, gathers and .max()/.min()."""
    pts = np.asarray(palm_positions, float)
    ts = np.asarray(timestamps_ms, float)
    if len(pts) != len(ts):
        raise ValueError("positions and timestamps must have equal length")
    if len(pts) < 2:
        raise TooFewSamples("need at least 1 s of samples")
    raw_span = (ts[-1] - ts[0]) / 1000.0
    if raw_span <= 0:
        raise TooFewSamples("window has no time extent")
    span_s = raw_span * len(pts) / (len(pts) - 1)
    if span_s < 1.0:
        raise TooFewSamples(f"window spans {span_s:.3f} s, need at least 1 s")
    if (len(pts) - 1) / raw_span < DEVICE_FPS_MIN:
        raise TooFewSamples(f"sampling rate below {DEVICE_FPS_MIN:g} FPS")
    signal = reference_signal(pts)
    if float(signal.max() - signal.min()) < config.min_oscillation_amplitude_mm:
        return None
    positive = signal >= 0
    change = np.flatnonzero(positive[:-1] != positive[1:])
    if change.size < 2:
        return None
    before, after = signal[change], signal[change + 1]
    t0 = ts[change] / 1000.0
    crossings = []
    for z in (t0 + before / (before - after) * (ts[change + 1] / 1000.0 - t0)).tolist():
        if not crossings or z - crossings[-1] >= config.min_crossing_gap_s:
            crossings.append(z)
    if len(crossings) < 2:
        return None
    return (len(crossings) - 1) / (2.0 * (crossings[-1] - crossings[0]))


def reference_sweeps(velocities, config=DEFAULT_CONFIG):
    """Stage2Detector._update_sweep's return for each velocity in turn, with np.linalg.norm, @, np.diff and .sum."""
    kept, sweeps = [], []
    for v in velocities:
        v = np.asarray(v, float)
        if float(np.linalg.norm(v)) < config.sweep_min_speed_mm_s:
            sweeps.append(None)
            continue
        kept.append(v)
        if len(kept) < 10:
            sweeps.append(None)
            continue
        sample = np.array(kept)
        _, (_, middle, principal) = symmetric_eigen3((sample.T @ sample).tolist())
        angles = np.degrees(np.arctan2(sample @ middle, sample @ principal))
        deltas = np.diff(angles)
        deltas = (deltas + 180.0) % 360.0 - 180.0
        smooth = np.abs(deltas) <= config.sweep_max_step_deg
        sweeps.append(float(deltas[smooth].sum()))
    return sweeps


def reference_slope(samples):
    """DistanceWindow.slope's rule before its sums were scaled to the window: every distance times 2**1074."""
    t0, n, st, stt, sd, std = samples[0][0], 0, 0, 0, 0, 0
    for ts, d in samples:
        num, den = d.as_integer_ratio()
        t, big = ts - t0, num << (1075 - den.bit_length())
        n, st, stt, sd, std = n + 1, st + t, stt + t * t, sd + big, std + t * big
    return 1000 * (n * std - st * sd) / ((n * stt - st * st) << 1074)
