"""Shared builders and independent oracles for the test suite."""

import math
from functools import lru_cache

import numpy as np

from hge import Frame, FrameStream, HandObservation, Handedness


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


def stream_scalars(stream: FrameStream):
    """Flatten every scalar in a stream for exact comparisons."""
    out = []
    for f in stream.frames:
        out.append(float(f.timestamp))
        for obs in sorted(f.hands, key=lambda o: o.handedness.value):
            out.extend(obs.palm_position.tolist())
            out.extend(obs.palm_normal.tolist())
            out.extend(obs.palm_velocity.tolist())
            out.append(obs.grab_strength)
            out.extend(obs.fingertips.reshape(-1).tolist())
    return np.array(out)
