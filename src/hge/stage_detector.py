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

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .config import DEFAULT_CONFIG, EngineConfig
from .errors import OutOfOrderFrame, TooFewSamples
from .features import estimate_frequency, inter_palm_distance, palm_opposition
from .frame_model import Frame, FrameStream, HandObservation, Handedness


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
CONTACT_PHASES = (Phase.CONTACT_OCCLUDED, Phase.RUBBING)
TERMINAL_PHASES = (Phase.COMPLETED, Phase.FAILED)
_ENTRY_NAMES = frozenset(p.value for p in WORKING_PHASES)


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


@dataclass
class DetectorState:
    """Everything a detection run remembers between frames."""

    phase: Phase = Phase.AWAITING_TWO_HANDS
    last_ts: Optional[int] = None
    prev_hand_count: int = 0
    seen_hand: bool = False
    zero_since: Optional[int] = None       # start of the current run of handless frames
    # AwaitingTwoHands
    facing_since: Optional[int] = None
    not_facing_since: Optional[int] = None
    alert_armed: bool = True
    # two-hand frames before contact
    dist_window: deque = field(default_factory=deque)   # (ts, distance), approach_window_s long
    # ContactOccluded and Rubbing: the surviving hand
    contact_ts: Optional[int] = None
    surviving: Optional[Handedness] = None
    vel_samples: list = field(default_factory=list)
    net_sweep_deg: float = 0.0             # net velocity-direction sweep
    pos_window: deque = field(default_factory=deque)    # (ts, palm position), rub_freq_window_s long
    rub_evals: int = 0
    rub_ok: int = 0
    rub_none_streak: int = 0


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


def _push(window: deque, ts: int, value, span_s: float):
    """Append (ts, value) and drop the samples older than span_s before ts."""
    window.append((ts, value))
    horizon = ts - span_s * 1000.0
    while window[0][0] < horizon:
        window.popleft()


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

    def _update_two_hand_tracking(self, frame: Frame):
        left, right = frame.hand(Handedness.LEFT), frame.hand(Handedness.RIGHT)
        if left is None or right is None:
            return None
        d = inter_palm_distance(left.palm_position, right.palm_position)
        _push(self.state.dist_window, frame.timestamp, d, self.config.approach_window_s)
        return palm_opposition(left.palm_normal, right.palm_normal, self.config)

    def _approach_slope(self) -> Optional[float]:
        window = self.state.dist_window
        if len(window) < 5:
            return None
        ts = np.array([t for t, _ in window], float) / 1000.0
        if ts[-1] - ts[0] < 0.9 * self.config.approach_window_s:
            return None
        dist = np.array([d for _, d in window], float)
        return float(np.polyfit(ts, dist, 1)[0])

    def _update_sweep(self, obs: HandObservation):
        """Net sweep of the surviving hand's velocity direction in its dominant plane.

        The plane and the whole angle history are recomputed from every
        post-contact velocity sample, so early non-rotational samples (the
        approach tail) cannot lock in a bad plane estimate.
        """
        v = np.asarray(obs.palm_velocity, float)
        if float(np.linalg.norm(v)) < self.config.sweep_min_speed_mm_s:
            return
        samples = self.state.vel_samples
        samples.append(v)
        if len(samples) < 10:
            return
        sample = np.asarray(samples)
        _, evecs = np.linalg.eigh(sample.T @ sample)
        angles = np.degrees(np.arctan2(sample @ evecs[:, 1], sample @ evecs[:, 2]))
        deltas = np.diff(angles)
        deltas = (deltas + 180.0) % 360.0 - 180.0
        # direction reversals show as near-180 jumps; only smooth rotation counts
        smooth = np.abs(deltas) <= self.config.sweep_max_step_deg
        self.state.net_sweep_deg = float(deltas[smooth].sum())

    def _rub_frequency(self) -> Optional[float]:
        cfg = self.config
        window = self.state.pos_window     # holds at least the contact frame's sample
        span_s = (window[-1][0] - window[0][0]) / 1000.0
        # wait for a full-length window; short windows miscount crossings
        if span_s < 0.95 * cfg.rub_freq_window_s:
            return None
        try:
            return estimate_frequency(
                np.asarray([p for _, p in window]), [t for t, _ in window], cfg
            )
        except TooFewSamples:
            return None

    def _score_rub(self, ts: int):
        """Score the rub frequency over the position window that just gained a sample."""
        cfg, s = self.config, self.state
        freq = self._rub_frequency()
        if freq is not None:
            s.rub_none_streak = 0
            s.rub_evals += 1
            lo = cfg.rub_freq_min_hz - cfg.rub_freq_tolerance_hz
            hi = cfg.rub_freq_max_hz + cfg.rub_freq_tolerance_hz
            if lo <= freq <= hi:
                s.rub_ok += 1
        elif s.rub_ok:     # an in-band rub was seen; three unscored windows in a row end it
            s.rub_none_streak += 1
            if s.rub_none_streak >= 3:
                self._evaluate_completion(ts, "oscillation_stopped")

    def _stage_elapsed_s(self) -> float:
        """Time from contact to the surviving hand's last sample, where the rub ended."""
        return (self.state.pos_window[-1][0] - self.state.contact_ts) / 1000.0

    def _evaluate_completion(self, ts: int, why: str):
        cfg, s = self.config, self.state
        elapsed = self._stage_elapsed_s()
        ok_fraction = s.rub_ok / s.rub_evals if s.rub_evals else 0.0
        sustained = s.rub_evals > 0 and ok_fraction >= cfg.rub_sustain_fraction
        in_window = cfg.stage_min_s <= elapsed <= cfg.stage_max_s + cfg.stage_max_slack_s
        if sustained and in_window:
            self._enter(Phase.COMPLETED, ts, f"stage_duration_s={elapsed:.3f}")
        else:
            self._enter(Phase.FAILED, ts, f"{why}_elapsed={elapsed:.2f}s_ok={ok_fraction:.2f}")

    # -- main state machine -----------------------------------------------

    def step(self, frame: Frame) -> list:
        """Advance the detector by one frame; returns the events it produced."""
        s, cfg, ts = self.state, self.config, frame.timestamp
        if s.last_ts is not None and ts <= s.last_ts:
            raise OutOfOrderFrame(f"timestamp {ts} not after previous {s.last_ts}")
        if s.last_ts is None:
            self._enter(Phase.AWAITING_TWO_HANDS, ts)
        s.last_ts = ts
        if s.phase in TERMINAL_PHASES:
            return []

        produced = len(self.events)
        hc = frame.hand_count
        if hc:
            s.seen_hand = True

        if s.phase not in CONTACT_PHASES:
            if hc == 0 and s.seen_hand:
                if s.zero_since is None:
                    s.zero_since = ts
                elif (ts - s.zero_since) / 1000.0 > cfg.lost_hands_timeout_s:
                    self._enter(Phase.FAILED, ts, "hands_lost")
            else:
                s.zero_since = None

        if s.phase == Phase.AWAITING_TWO_HANDS:
            opposition = self._update_two_hand_tracking(frame) if hc == 2 else None
            if opposition is None:
                s.facing_since = None
                s.not_facing_since = None
                s.alert_armed = True
            elif opposition.facing:
                s.not_facing_since = None
                s.alert_armed = True
                if s.facing_since is None:
                    s.facing_since = ts
                elif (ts - s.facing_since) / 1000.0 >= cfg.facing_dwell_s:
                    self._enter(Phase.PALMS_FACING, ts, f"facing_held={cfg.facing_dwell_s:.2f}s")
            else:
                s.facing_since = None
                if s.not_facing_since is None:
                    s.not_facing_since = ts
                elif s.alert_armed and (ts - s.not_facing_since) / 1000.0 >= cfg.not_facing_alert_s:
                    self.events.append(Event(ts, AlertKind.PALMS_NOT_FACING.value, "two_hands_not_facing"))
                    s.alert_armed = False

        elif s.phase == Phase.PALMS_FACING:
            if hc == 2:
                self._update_two_hand_tracking(frame)
                slope = self._approach_slope()
                if slope is not None and slope <= cfg.approach_slope_mm_s:
                    self._enter(Phase.APPROACHING, ts, f"slope_mm_s={slope:.1f}")

        elif s.phase == Phase.APPROACHING:
            if hc == 2:
                self._update_two_hand_tracking(frame)
            elif hc == 1 and s.prev_hand_count == 2 and s.dist_window:
                last_d = s.dist_window[-1][1]
                if last_d < cfg.contact_distance_mm:
                    s.surviving = frame.hands[0].handedness
                    s.contact_ts = ts
                    self._enter(Phase.CONTACT_OCCLUDED, ts, f"distance_mm={last_d:.1f}")

        if s.phase in CONTACT_PHASES:
            self._step_contact(frame)
        s.prev_hand_count = hc
        return self.events[produced:]

    def _step_contact(self, frame: Frame):
        """ContactOccluded and Rubbing: track the surviving hand and bound the stage in time.

        The stage is timed to the surviving hand's last sample, so a rub that
        ends with the hands leaving is judged by when it ended, not by when the
        timeout noticed.
        """
        s, cfg, ts = self.state, self.config, frame.timestamp
        obs = frame.hand(s.surviving)
        if obs is not None:
            _push(s.pos_window, ts, np.asarray(obs.palm_position, float), cfg.rub_freq_window_s)
        if (ts - s.pos_window[-1][0]) / 1000.0 > cfg.lost_hands_timeout_s:
            self._evaluate_completion(ts, "hands_lost")
        elif self._stage_elapsed_s() > cfg.stage_max_s + cfg.stage_max_slack_s:
            self._evaluate_completion(ts, "stage_too_long")
        elif s.phase == Phase.CONTACT_OCCLUDED:
            if obs is not None:
                self._update_sweep(obs)
            if abs(s.net_sweep_deg) >= cfg.rotation_sweep_deg:
                self._enter(Phase.RUBBING, ts, f"sweep_deg={abs(s.net_sweep_deg):.0f}")
        elif frame.hand_count == 2:
            self._evaluate_completion(ts, "hands_reappeared")
        elif obs is not None:
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
    """Run the full detection pass over a stream and return the report."""
    detector = Stage2Detector(config)
    for index, frame in enumerate(stream.frames):
        try:
            detector.step(frame)
        except OutOfOrderFrame as exc:
            raise OutOfOrderFrame(f"frame {index}: {exc}") from None
    return detector.report()


def events_to_text(events) -> str:
    return "\n".join(ev.to_line() for ev in events) + ("\n" if events else "")
