"""Finite-state detection of the palm-to-palm rub stage.

A detection run walks one frame stream through the phase sequence

    AwaitingTwoHands -> PalmsFacing -> Approaching -> ContactOccluded
        -> Rubbing -> Completed

with Failed reachable from every phase. Contact is inferred from the hand
count dropping from two to one while the palms were close, because trackers
lose one hand to occlusion the moment the hands touch. Rotation of the
surviving hand's velocity direction, then a sustained in-band rub
oscillation, complete the stage.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .config import DEFAULT_CONFIG, EngineConfig
from .errors import EngineError, OutOfOrderFrame, TooFewSamples
from .features import _unit_normals, estimate_frequency, palm_opposition, symmetric_eigen3
from .frame_model import (DEVICE_FPS_MIN, MAX_TIMESTAMP_MS, Frame, FrameStream, HandObservation, Handedness,
                          _repeated_side)


class Phase(str, Enum):
    AWAITING_TWO_HANDS = "AwaitingTwoHands"
    PALMS_FACING = "PalmsFacing"
    APPROACHING = "Approaching"
    CONTACT_OCCLUDED = "ContactOccluded"
    RUBBING = "Rubbing"
    COMPLETED = "Completed"
    FAILED = "Failed"


WORKING_PHASES = (
    Phase.AWAITING_TWO_HANDS,
    Phase.PALMS_FACING,
    Phase.APPROACHING,
    Phase.CONTACT_OCCLUDED,
    Phase.RUBBING,
)
TERMINAL_PHASES = (Phase.COMPLETED, Phase.FAILED)
# step tests the phase and a side several times a frame: a global read costs a third of the enum class's lookup
_AWAITING_TWO_HANDS, _PALMS_FACING, _APPROACHING, _CONTACT_OCCLUDED, _RUBBING = WORKING_PHASES
_COMPLETED, _FAILED = TERMINAL_PHASES
_LEFT = Handedness.LEFT
_ENTRY_NAMES = frozenset(p.value for p in WORKING_PHASES)
RUB_GRID_MS = 1000.0 / DEVICE_FPS_MIN   # the rub is scored at most this often: every frame at the slowest device rate


class AlertKind(str, Enum):
    PALMS_NOT_FACING = "PalmsNotFacing"


_ALERT_NAMES = frozenset(k.value for k in AlertKind)


class Verdict(str, Enum):
    COMPLETED = "Completed"
    NOT_COMPLETED = "NotCompleted"


@dataclass(frozen=True)
class Event:
    """One machine-readable detector event (phase entry, alert, or outcome)."""

    timestamp_ms: int
    name: str
    detail: str = ""

    def to_line(self) -> str:
        return f"{self.timestamp_ms} {self.name} {self.detail}".rstrip()


class Trail:
    """(timestamp, 3-vector) samples over a trailing time span, held in two arrays.

    Rows [start, end) of `times` and `values` are the samples, oldest
    first. A sample is written into the next row in place, and trimming
    advances `start`. A full buffer is compacted, or grown to one and a
    half times the sample count while the samples fill more than two
    thirds of it. So the capacity stays within 1.5 times the most samples
    held (16 rows at least), and a compaction copies at most three rows
    per sample pushed since the previous one. `last` is the newest
    timestamp as an int.
    """

    def __init__(self):
        self.times, self.values = np.empty(16), np.empty((16, 3))
        self.start = self.end = 0
        self.last: Optional[int] = None

    def __len__(self) -> int:
        return self.end - self.start

    def push(self, ts: int, value, span_s: float):
        """Append a sample and drop those older than span_s before ts; an infinite span drops none."""
        if self.end == len(self.times):
            n = len(self)
            size = max(n + n // 2, 16)
            if size > len(self.times):
                times, values = np.empty(size), np.empty((size, 3))
            else:
                times, values = self.times, self.values
            times[:n], values[:n] = self.times[self.start:self.end], self.values[self.start:self.end]
            self.times, self.values, self.start, self.end = times, values, 0, n
        self.times[self.end] = ts
        self.values[self.end] = value
        self.end += 1
        self.last = ts
        horizon, start = ts - span_s * 1000.0, self.start
        while self.times.item(start) < horizon:     # a Python float compares faster than a numpy scalar
            start += 1
        self.start = start


class DistanceWindow:
    """(timestamp, inter-palm distance) samples over a trailing time span, with their exact least-squares slope.

    `samples` holds the (ts, distance) pairs, oldest first; a push trims
    those older than the span. The first slope() call builds five sums over
    them as exact integers: the count, and the sums of t, t**2, D and t*D,
    with t the whole ms since `anchor` (the oldest sample then held) and D
    the distance times 2**shift, 2**-shift being the finest power of two in
    the as_integer_ratio() of a distance counted. A finer distance shifts the
    D sums and `terms`, each counted sample's t, t**2, D and t*D, left. Every
    later push adds its terms to the sums and takes each trimmed sample's
    out, so slope() costs the same at any window length and rounds only once,
    in its final integer division. Until the first slope() call, and after
    drop_sums(), a push is a deque append and trim.
    """

    def __init__(self):
        self.samples: deque = deque()
        self.sums: Optional[list] = None    # [n, sum t, sum t**2, sum D, sum t*D]
        self.terms: deque = deque()
        self.anchor = self.shift = 0

    def __len__(self) -> int:
        return len(self.samples)

    def push(self, ts: int, d: float, span_s: float):
        """Append a sample and drop those older than span_s before ts."""
        samples = self.samples
        samples.append((ts, d))
        horizon = ts - span_s * 1000.0
        if self.sums is None:
            while samples[0][0] < horizon:
                samples.popleft()
            return
        self._count(ts, d)
        while samples[0][0] < horizon:
            samples.popleft()
            t, tt, big, tbig = self.terms.popleft()
            n, st, stt, sd, std = self.sums
            self.sums = [n - 1, st - t, stt - tt, sd - big, std - tbig]

    def _count(self, ts: int, d: float):
        """Add a sample to the sums, first rescaling them if its distance is finer than every one counted."""
        num, den = d.as_integer_ratio()
        fine = den.bit_length() - 1
        n, st, stt, sd, std = self.sums
        if fine > self.shift:
            up, self.shift = fine - self.shift, fine
            sd, std = sd << up, std << up
            self.terms = deque((t, tt, big << up, tbig << up) for t, tt, big, tbig in self.terms)
        t, big = ts - self.anchor, num << (self.shift - fine)
        tt, tbig = t * t, t * big
        self.terms.append((t, tt, big, tbig))
        self.sums = [n + 1, st + t, stt + tt, sd + big, std + tbig]

    def drop_sums(self):
        """Stop keeping the sums; pushes go back to an append and a trim."""
        self.sums = None
        self.terms.clear()

    def slope(self) -> float:
        """Least-squares slope of distance over time in mm/s, the exact value rounded once; needs two timestamps."""
        if self.sums is None:
            self.anchor, self.shift, self.sums = self.samples[0][0], 0, [0, 0, 0, 0, 0]
            for ts, d in self.samples:
                self._count(ts, d)
        n, st, stt, sd, std = self.sums
        return 1000 * (n * std - st * sd) / ((n * stt - st * st) << self.shift)


@dataclass
class DetectorState:
    """Everything a detection run remembers between frames.

    The distance window keeps the exact sums behind the approach slope only
    while the run is in PalmsFacing, the one phase that reads the slope, and
    only AwaitingTwoHands computes the palms' opposition, into `facing`.
    """

    phase: Phase = Phase.AWAITING_TWO_HANDS
    last_ts: Optional[int] = None
    prev_hand_count: int = 0
    zero_since: Optional[int] = None       # start of the current run of handless frames after a hand
    # AwaitingTwoHands: the current run of frames with one palm-facing value
    facing: Optional[bool] = None          # None: the frame has no left-right pair
    run_since: Optional[int] = None
    # two-hand frames before contact; its slope sums are kept only in PalmsFacing
    dist_window: DistanceWindow = field(default_factory=DistanceWindow)   # approach_window_s long
    # ContactOccluded and Rubbing: the surviving hand
    contact_ts: Optional[int] = None
    surviving: Optional[Handedness] = None
    vel_history: Trail = field(default_factory=Trail)   # fast palm velocities since contact, untrimmed
    pos_window: Trail = field(default_factory=Trail)    # palm positions, rub_freq_window_s long
    # Rubbing: the window is scored on a RUB_GRID_MS grid of the surviving hand's samples
    last_scored: Optional[int] = None      # timestamp of the last grid point
    rub_evals: int = 0                     # grid points whose window gave a frequency
    rub_ok: int = 0                        # of those, frequencies in the rub band
    rub_none_streak: int = 0               # grid points in a row without a frequency, after an in-band one


@dataclass(frozen=True)
class StageReport:
    verdict: Verdict
    phase_timeline: tuple            # (phase, start_ms, end_ms) entries
    stage_duration_s: Optional[float]
    alerts: tuple                    # (timestamp_ms, AlertKind) entries
    events: tuple                    # every Event of the run, in order

    def to_text(self) -> str:
        lines = [f"verdict {self.verdict.value}"]
        if self.stage_duration_s is not None:
            lines.append(f"stage_duration_s {self.stage_duration_s:.3f}")
        for phase, start, end in self.phase_timeline:
            lines.append(f"phase {phase.value} {start} {end}")
        for ts, kind in self.alerts:
            lines.append(f"alert {ts} {kind.value}")
        return "\n".join(lines) + "\n"


class Stage2Detector:
    """Sequential detector; feed frames in timestamp order via step()."""

    def __init__(self, config: EngineConfig = DEFAULT_CONFIG):
        self.config = config
        self.state = DetectorState()
        self.events: list[Event] = []

    def _enter(self, phase: Phase, ts: int, detail: str = ""):
        self.state.phase = phase
        self.events.append(Event(ts, phase.value, detail))

    # -- per-phase helpers ------------------------------------------------

    def _update_two_hand_tracking(self, hands, ts: int, opposition: bool = False):
        """On a two-hand frame at ts: push the palms' distance, then return the palms' facing verdict if asked.

        AwaitingTwoHands, the one phase that reads it, asks; the other phases only check both normals' unit
        length. Raises EngineError for a distance that is not finite, which the slope's exact sums cannot hold.
        """
        a, b = hands
        left, right = (a, b) if a.handedness == _LEFT else (b, a)
        # math.dist of the palms, inter_palm_distance's rule
        d = math.dist(left.palm_position.tolist(), right.palm_position.tolist())
        if not math.isfinite(d):
            raise EngineError(f"frame at {ts} ms: the palms' distance {d} is not finite")
        self.state.dist_window.push(ts, d, self.config.approach_window_s)
        if opposition:
            return palm_opposition(left.palm_normal, right.palm_normal, self.config).facing
        _unit_normals(left.palm_normal, right.palm_normal)

    def _approach_slope(self) -> Optional[float]:
        """The distance window's exact least-squares slope in mm/s, once it holds five samples over 90% of its span.

        O(1) per frame: the window keeps integer sums from its first slope on.
        """
        samples = self.state.dist_window.samples
        if len(samples) < 5 or (samples[-1][0] - samples[0][0]) / 1000.0 < 0.9 * self.config.approach_window_s:
            return None
        return self.state.dist_window.slope()

    def _update_sweep(self, ts: int, obs: HandObservation) -> Optional[float]:
        """Net sweep of the surviving hand's velocity direction in its dominant plane.

        The plane and the whole angle history are recomputed from every
        fast velocity sample since contact, so early non-rotational samples
        (the approach tail) cannot lock in a bad plane estimate; the stage
        time limit bounds that history. None until ten samples are held, and
        on a frame too slow to add one. Raises EngineError for a velocity
        whose squared length is not finite, which no plane can be fitted to.
        """
        v = np.asarray(obs.palm_velocity, float)
        x, y, z = v.tolist()
        # checked in Python floats first: they overflow to inf without the warning numpy's dot gives
        if not math.isfinite(x * x + y * y + z * z):
            raise EngineError(f"frame at {ts} ms: the {obs.handedness.value} hand's palm velocity {[x, y, z]} "
                              f"has a squared length that is not finite")
        # the dot product and square root np.linalg.norm runs for a 1-D vector
        if math.sqrt(v.dot(v)) < self.config.sweep_min_speed_mm_s:
            return None
        trail = self.state.vel_history
        trail.push(ts, v, float("inf"))
        if len(trail) < 10:
            return None
        sample = trail.values[trail.start:trail.end]
        # ndarray.dot and the in-place steps give the bits of sample.T @ sample, sample @ axis and the
        # out-of-place arithmetic, with less of numpy's per-call overhead
        _, (_, middle, principal) = symmetric_eigen3(sample.T.dot(sample).tolist())
        angles = np.degrees(np.arctan2(sample.dot(middle), sample.dot(principal)))
        deltas = angles[1:] - angles[:-1]     # what np.diff subtracts
        deltas += 180.0
        deltas %= 360.0
        deltas -= 180.0
        # direction reversals show as near-180 jumps; only smooth rotation counts
        smooth = np.abs(deltas) <= self.config.sweep_max_step_deg
        return float(np.add.reduce(deltas[smooth]))     # the reduction ndarray.sum runs

    def _rub_frequency(self) -> Optional[float]:
        """The position window's oscillation rate; None until it spans the window, or if it is too sparse or still."""
        cfg = self.config
        trail = self.state.pos_window     # holds at least the contact frame's sample
        # wait for a full-length window; short windows miscount crossings
        if (trail.last - trail.times.item(trail.start)) / 1000.0 < 0.95 * cfg.rub_freq_window_s:
            return None
        try:
            return estimate_frequency(trail.values[trail.start:trail.end], trail.times[trail.start:trail.end], cfg)
        except TooFewSamples:
            return None

    def _score_rub(self, ts: int):
        """Score the rub frequency over the position window at a grid point.

        A grid point is a sample of the surviving hand at least RUB_GRID_MS
        after the previous one: every frame at 50 FPS, every second at 100
        and every fourth at 200, and under 2 * RUB_GRID_MS apart at any rate
        in between. After an in-band window, three grid points in a row
        without a frequency end the rub, 60 ms after the last window that
        gave one at 50, 100 and 200 FPS.
        """
        cfg, s = self.config, self.state
        s.last_scored = ts
        freq = self._rub_frequency()
        if freq is not None:
            s.rub_none_streak = 0
            s.rub_evals += 1
            lo = cfg.rub_freq_min_hz - cfg.rub_freq_tolerance_hz
            hi = cfg.rub_freq_max_hz + cfg.rub_freq_tolerance_hz
            if lo <= freq <= hi:
                s.rub_ok += 1
        elif s.rub_ok:     # an in-band rub was seen; three unscored grid points in a row end it
            s.rub_none_streak += 1
            if s.rub_none_streak >= 3:
                self._evaluate_completion(ts, "oscillation_stopped")

    def _stage_elapsed_s(self) -> float:
        """Time from contact to the surviving hand's last sample, where the rub ended."""
        return (self.state.pos_window.last - self.state.contact_ts) / 1000.0

    def _evaluate_completion(self, ts: int, why: str):
        cfg, s = self.config, self.state
        elapsed = self._stage_elapsed_s()
        ok_fraction = s.rub_ok / s.rub_evals if s.rub_evals else 0.0
        in_window = cfg.stage_min_s <= elapsed <= cfg.stage_max_s + cfg.stage_max_slack_s
        if ok_fraction >= cfg.rub_sustain_fraction and in_window:
            self._enter(Phase.COMPLETED, ts, f"stage_duration_s={elapsed:.3f}")
        else:
            self._enter(Phase.FAILED, ts, f"{why}_elapsed={elapsed:.2f}s_ok={ok_fraction:.2f}")

    # -- main state machine -----------------------------------------------

    def step(self, frame: Frame) -> list:
        """Advance the detector by one frame; returns the events it produced.

        The phase is read once: a terminal phase ignores the frame, ContactOccluded and Rubbing go to
        _step_contact, and the phases before contact first run the lost-hands timeout.
        """
        s, ts, prev_ts = self.state, frame.timestamp, self.state.last_ts
        if ts >= MAX_TIMESTAMP_MS:
            raise EngineError(f"timestamp {ts} is not below {MAX_TIMESTAMP_MS} ms")
        if prev_ts is not None and ts <= prev_ts:
            raise OutOfOrderFrame(f"timestamp {ts} not after previous {prev_ts}")
        hands = frame.hands
        hc = len(hands)
        if hc > 1 and (hc > 2 or hands[0].handedness == hands[1].handedness):
            raise _repeated_side(frame)
        if prev_ts is None:
            self._enter(_AWAITING_TWO_HANDS, ts)
        s.last_ts = ts
        phase = s.phase
        if phase is _COMPLETED or phase is _FAILED:
            return []

        events = self.events
        produced = len(events)
        if phase is _RUBBING or phase is _CONTACT_OCCLUDED:
            self._step_contact(hands, ts, hc)
            s.prev_hand_count = hc
            return events[produced:]

        cfg = self.config
        if hc:
            s.zero_since = None
        elif s.prev_hand_count:
            s.zero_since = ts
        elif s.zero_since is not None and (ts - s.zero_since) / 1000.0 > cfg.lost_hands_timeout_s:
            self._enter(Phase.FAILED, ts, "hands_lost")     # prev_hand_count is 0 already
            return events[produced:]

        if phase is _AWAITING_TWO_HANDS:
            facing = self._update_two_hand_tracking(hands, ts, opposition=True) if hc == 2 else None
            if facing is None or facing != s.facing:
                s.facing, s.run_since = facing, ts
            elif facing:
                if (ts - s.run_since) / 1000.0 >= cfg.facing_dwell_s:
                    self._enter(Phase.PALMS_FACING, ts, f"facing_held={cfg.facing_dwell_s:.2f}s")
            # an unopposed run alerts once, on the frame whose run time first reaches the limit
            elif (ts - s.run_since) / 1000.0 >= cfg.not_facing_alert_s > (prev_ts - s.run_since) / 1000.0:
                events.append(Event(ts, AlertKind.PALMS_NOT_FACING.value, "two_hands_not_facing"))

        elif phase is _PALMS_FACING:
            if hc == 2:
                self._update_two_hand_tracking(hands, ts)
                slope = self._approach_slope()
                if slope is not None and slope <= cfg.approach_slope_mm_s:
                    s.dist_window.drop_sums()       # Approaching reads only the newest distance
                    self._enter(Phase.APPROACHING, ts, f"slope_mm_s={slope:.1f}")

        elif hc == 2:       # Approaching
            self._update_two_hand_tracking(hands, ts)
        elif hc == 1 and s.prev_hand_count == 2:
            last_d = s.dist_window.samples[-1][1]
            if last_d < cfg.contact_distance_mm:
                s.surviving = hands[0].handedness
                s.contact_ts = ts
                self._enter(Phase.CONTACT_OCCLUDED, ts, f"distance_mm={last_d:.1f}")
                self._step_contact(hands, ts, hc)
        s.prev_hand_count = hc
        return events[produced:]

    def _step_contact(self, hands, ts: int, hand_count: int):
        """ContactOccluded and Rubbing, on a frame at ts: track the surviving hand and bound the stage in time.

        The stage is timed to the surviving hand's last sample, so a rub that
        ends with the hands leaving is judged by when it ended, not by when the
        timeout noticed.
        """
        s, cfg = self.state, self.config
        for obs in hands:       # frame.hand(s.surviving), without the call
            if obs.handedness == s.surviving:
                break
        else:
            obs = None
        if obs is not None:
            x, y, z = obs.palm_position.tolist()
            if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
                raise EngineError(f"frame at {ts} ms: the {obs.handedness.value} hand's palm position {[x, y, z]} "
                                  "is not finite")
            s.pos_window.push(ts, obs.palm_position, cfg.rub_freq_window_s)
        if (ts - s.pos_window.last) / 1000.0 > cfg.lost_hands_timeout_s:
            self._evaluate_completion(ts, "hands_lost")
        elif self._stage_elapsed_s() > cfg.stage_max_s + cfg.stage_max_slack_s:
            self._evaluate_completion(ts, "stage_too_long")
        elif s.phase is _CONTACT_OCCLUDED:
            sweep = self._update_sweep(ts, obs) if obs is not None else None
            if sweep is not None and abs(sweep) >= cfg.rotation_sweep_deg:
                self._enter(Phase.RUBBING, ts, f"sweep_deg={abs(sweep):.0f}")
        elif hand_count == 2:
            self._evaluate_completion(ts, "hands_reappeared")
        elif obs is not None and (s.last_scored is None or ts - s.last_scored >= RUB_GRID_MS):
            self._score_rub(ts)

    def finish(self) -> list:
        """Signal end of stream; evaluates the final phase. Idempotent."""
        s = self.state
        if s.phase in TERMINAL_PHASES or s.last_ts is None:
            return []
        produced = len(self.events)
        if s.phase == Phase.RUBBING:
            self._evaluate_completion(s.last_ts, "stream_ended")
        else:
            self._enter(Phase.FAILED, s.last_ts, f"stream_ended_in_{s.phase.value}")
        return self.events[produced:]

    def report(self) -> StageReport:
        self.finish()
        s = self.state
        completed = s.phase == Phase.COMPLETED
        alerts = [(ev.timestamp_ms, AlertKind(ev.name)) for ev in self.events if ev.name in _ALERT_NAMES]
        entries = [(Phase(ev.name), ev.timestamp_ms) for ev in self.events if ev.name in _ENTRY_NAMES]
        # a completed run stops at its Completed entry, the last event
        stops = [start for _, start in entries[1:]] + [self.events[-1].timestamp_ms if completed else s.last_ts]
        return StageReport(
            verdict=Verdict.COMPLETED if completed else Verdict.NOT_COMPLETED,
            phase_timeline=tuple((phase, start, stop) for (phase, start), stop in zip(entries, stops)),
            stage_duration_s=self._stage_elapsed_s() if completed else None,
            alerts=tuple(alerts),
            events=tuple(self.events),
        )


def detect_stage2(stream: FrameStream, config: EngineConfig = DEFAULT_CONFIG) -> StageReport:
    """Run the full detection pass over a stream and return the report; frames are built a chunk at a time."""
    detector = Stage2Detector(config)
    for index, frame in enumerate(stream.frames):
        try:
            detector.step(frame)
        except OutOfOrderFrame as exc:
            raise OutOfOrderFrame(f"frame {index}: {exc}") from None
    return detector.report()


def events_to_text(events) -> str:
    return "\n".join(ev.to_line() for ev in events) + ("\n" if events else "")
