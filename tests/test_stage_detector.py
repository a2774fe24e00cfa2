import hashlib
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hge import (
    DEFAULT_CONFIG,
    AlertKind,
    EngineError,
    Frame,
    FrameStream,
    Handedness,
    OutOfOrderFrame,
    Phase,
    Stage2Detector,
    Verdict,
    detect_stage2,
    drop_frames,
    events_to_text,
    generate,
    make_ablation_stream,
    make_canonical_script,
)
from hge.stage_detector import WORKING_PHASES
from hge.synth import ABLATIONS, GestureScript, PhaseKind, PhaseSpec, PrimitiveKind

from helpers import facing_frames, make_hand
from test_ingest_properties import PROPERTY


def canonical_stream(seed=0, **kw):
    stream, _ = generate(make_canonical_script(seed=seed, **kw))
    return stream


class TestTransitions:
    def test_facing_dwell_enters_palms_facing(self):
        det = Stage2Detector()
        for frame in facing_frames(40):            # 0.4 s of facing hands
            det.step(frame)
        assert det.state.phase == Phase.PALMS_FACING
        entry = [ev.timestamp_ms for ev in det.events if ev.name == Phase.PALMS_FACING.value]
        assert entry == [300]                       # 0.3 s dwell at 100 fps

    def test_not_facing_two_seconds_alerts_and_remains(self):
        det = Stage2Detector()
        for frame in facing_frames(220, opposed=False):
            det.step(frame)
        assert det.state.phase == Phase.AWAITING_TWO_HANDS
        alerts = det.report().alerts
        assert [kind for _, kind in alerts] == [AlertKind.PALMS_NOT_FACING]
        ts = alerts[0][0]
        assert ts == 2000

    def test_approach_slope_enters_approaching(self):
        det = Stage2Detector()
        frames = facing_frames(50)                                        # hold 0.5 s
        frames += facing_frames(60, t0=500, separation=150, closing_mm_s=100.0)
        for frame in frames:
            det.step(frame)
        assert det.state.phase == Phase.APPROACHING

    def test_contact_below_threshold_enters_occluded(self):
        det = Stage2Detector()
        frames = facing_frames(50)
        frames += facing_frames(125, t0=500, separation=150, closing_mm_s=100.0)
        for frame in frames:
            det.step(frame)
        assert det.state.phase == Phase.APPROACHING
        assert det.state.dist_window[-1][1] == pytest.approx(26.0, abs=0.1)
        det.step(Frame(1750, (make_hand(Handedness.RIGHT, palm=(12.5, 200, 0), normal=(-1, 0, 0)),)))
        assert det.state.phase == Phase.CONTACT_OCCLUDED

    def test_drop_while_far_apart_is_not_contact(self):
        det = Stage2Detector()
        frames = facing_frames(50)
        frames += facing_frames(60, t0=500, separation=150, closing_mm_s=100.0)  # down to ~90 mm
        for frame in frames:
            det.step(frame)
        assert det.state.phase == Phase.APPROACHING
        det.step(Frame(1100, (make_hand(Handedness.RIGHT, palm=(45, 200, 0), normal=(-1, 0, 0)),)))
        assert det.state.phase == Phase.APPROACHING

    def test_out_of_order_frame_raises(self):
        det = Stage2Detector()
        det.step(Frame(100, ()))
        with pytest.raises(OutOfOrderFrame):
            det.step(Frame(100, ()))

    @pytest.mark.parametrize("ts", [2**53, 2**63, 10**400], ids=["2**53", "2**63", "10**400"])
    def test_timestamp_of_2_53_or_more_raises(self, ts):
        # float times and windows are exact only below 2**53; past it a window horizon can pass its newest sample
        det = Stage2Detector()
        det.step(Frame(2**53 - 1, ()))
        with pytest.raises(EngineError, match=f"timestamp {ts} is not below {2**53} ms"):
            det.step(Frame(ts, ()))
        assert det.state.last_ts == 2**53 - 1

    def test_detect_stage2_reports_frame_index(self):
        frames = [Frame(0, ()), Frame(10, ()), Frame(10, ())]
        with pytest.raises(OutOfOrderFrame) as err:
            detect_stage2(FrameStream(frames))
        assert "frame 2" in str(err.value)

    def test_hands_lost_over_one_second_fails(self):
        det = Stage2Detector()
        for frame in facing_frames(40):
            det.step(frame)
        for t in range(400, 1600, 10):
            det.step(Frame(t, ()))
            if det.state.phase == Phase.FAILED:
                break
        assert det.state.phase == Phase.FAILED

    def test_two_same_handed_hands_are_not_a_pair(self):
        det = Stage2Detector()
        for frame in facing_frames(300):
            det.step(Frame(frame.timestamp, (frame.hands[0], replace(frame.hands[1], handedness=Handedness.LEFT))))
        assert [ev.name for ev in det.report().events] == [Phase.AWAITING_TWO_HANDS.value, Phase.FAILED.value]
        assert det.state.facing is None and not det.state.dist_window

    def test_leading_empty_frames_do_not_fail(self):
        det = Stage2Detector()
        for t in range(0, 2000, 10):
            det.step(Frame(t, ()))
        assert det.state.phase == Phase.AWAITING_TWO_HANDS


class TestBoundedVerdict:
    @pytest.mark.parametrize("rub_s,last_line", [
        (4.0, "6000 Completed stage_duration_s=4.070"),
        (1.5, "3500 Failed hands_reappeared_elapsed=1.57s_ok=1.00"),    # shorter than stage_min_s
    ])
    def test_both_hands_reappearing_ends_the_rub(self, rub_s, last_line):
        stream = canonical_stream(rub_duration_s=rub_s)
        end = stream.frames[-1].timestamp
        report = detect_stage2(FrameStream(list(stream.frames) + facing_frames(50, t0=end + 10)))
        assert report.events[-2].name == Phase.RUBBING.value
        assert report.events[-1].to_line() == last_line    # decided on the first two-hand frame

    @pytest.mark.parametrize("rub_s,cut_s,phase,verdict", [
        (4.0, 4.07, Phase.RUBBING, Phase.COMPLETED),          # walk away after a 4 s rub
        (4.0, 0.3, Phase.CONTACT_OCCLUDED, Phase.FAILED),
        (4.0, 1.6, Phase.RUBBING, Phase.FAILED),              # rubbed for less than stage_min_s
        (8.0, 6.8, Phase.RUBBING, Phase.COMPLETED),           # ended inside stage_max_s + slack
    ])
    def test_hands_lost_after_contact_ends_the_run(self, rub_s, cut_s, phase, verdict):
        stream = canonical_stream(rub_duration_s=rub_s, noise_sigma=1.0, seed=2)
        contact = next(ev.timestamp_ms for ev in detect_stage2(stream).events
                       if ev.name == Phase.CONTACT_OCCLUDED.value)
        frames = [f for f in stream.frames if f.timestamp < contact + cut_s * 1000]
        last = frames[-1].timestamp
        frames += [Frame(t, ()) for t in range(last + 10, last + 20000, 10)]
        det = Stage2Detector()
        for frame in frames:
            det.step(frame)
        assert det.events[-2].name == phase.value
        # decided on the first frame more than lost_hands_timeout_s after the surviving
        # hand's last sample, but timed to that sample
        end, rubbed_s = det.events[-1], (last - contact) / 1000.0
        assert (end.timestamp_ms, end.name) == (last + 1010, verdict.value)
        if verdict == Phase.COMPLETED:
            assert end.detail == f"stage_duration_s={rubbed_s:.3f}"
            assert det.report().stage_duration_s == pytest.approx(rubbed_s)
        else:
            assert end.detail.startswith(f"hands_lost_elapsed={rubbed_s:.2f}s")

    def test_over_long_rub_fails_on_time(self):
        det = Stage2Detector()
        for frame in canonical_stream(rub_duration_s=30.0, noise_sigma=1.0).frames:
            det.step(frame)
        contact = next(ev.timestamp_ms for ev in det.events if ev.name == Phase.CONTACT_OCCLUDED.value)
        end = det.events[-1]
        assert end.name == Phase.FAILED.value and end.detail.startswith("stage_too_long")
        assert 0 < end.timestamp_ms - (contact + 7500) <= 10

    @pytest.mark.parametrize("fps", [100.0, 200.0])
    def test_windows_stay_bounded_over_a_long_rub(self, fps):
        config = replace(DEFAULT_CONFIG, stage_max_s=60.0)
        det = Stage2Detector(config)
        pos_max = config.rub_freq_window_s * fps + 1
        for frame in canonical_stream(rub_duration_s=30.0, noise_sigma=1.0, fps=fps).frames:
            det.step(frame)
            trail = det.state.pos_window
            assert len(trail) <= pos_max
            # the buffers the window's rows live in, not only the rows in use
            assert len(trail.times) == len(trail.values) <= 1.5 * pos_max
            assert len(det.state.dist_window) <= config.approach_window_s * fps + 1
        assert det.state.phase == Phase.RUBBING     # rubbing to the end of the stream

    def test_velocity_history_holds_the_fast_samples_since_contact(self):
        config = replace(DEFAULT_CONFIG, stage_max_s=60.0)
        # 20 s of a lone hand on a line, with a 1 s pause whose zero velocities the history skips
        line = PhaseSpec(PhaseKind.PRIMITIVE, 10.5, primitive_kind=PrimitiveKind.LINE)
        pause = PhaseSpec(PhaseKind.PRIMITIVE, 1.0, primitive_kind=PrimitiveKind.STATIC)
        script = GestureScript((PhaseSpec(PhaseKind.FACING_HOLD, 1.0), PhaseSpec(PhaseKind.APPROACH, 1.0),
                                line, pause, line), fps=200.0)
        frames = generate(script)[0].frames
        det = Stage2Detector(config)
        times, velocities = np.empty(len(frames)), np.empty((len(frames), 3))
        n = slow = 0
        for frame in frames:
            det.step(frame)
            if det.state.phase != Phase.CONTACT_OCCLUDED:
                continue
            v = frame.hand(det.state.surviving).palm_velocity
            if np.linalg.norm(v) >= config.sweep_min_speed_mm_s:
                times[n], velocities[n] = frame.timestamp, v
                n += 1
            else:
                slow += 1
            trail = det.state.vel_history
            assert len(trail) == n
            np.testing.assert_array_equal(trail.times[trail.start:trail.end], times[:n])
            np.testing.assert_array_equal(trail.values[trail.start:trail.end], velocities[:n])
            # the buffers the samples live in, not only the rows in use
            assert len(trail.times) == len(trail.values) <= max(16, 1.5 * n)
        assert det.state.phase == Phase.CONTACT_OCCLUDED     # a line never sweeps 180 degrees
        assert (frames[-1].timestamp - det.state.contact_ts) / 1000.0 >= 20.0 and slow >= 190


class TestDetectStage2:
    def test_canonical_completes_with_scripted_duration(self):
        report = detect_stage2(canonical_stream(rub_frequency_hz=2.0, rub_duration_s=3.0))
        assert report.verdict == Verdict.COMPLETED
        assert report.stage_duration_s == pytest.approx(3.0, abs=0.3)
        assert 2.0 <= report.stage_duration_s <= 7.0
        assert [p for p, *_ in report.phase_timeline] == list(WORKING_PHASES)

    def test_parallel_palms_never_complete_and_alert(self):
        report = detect_stage2(make_ablation_stream("no_facing"))
        assert report.verdict == Verdict.NOT_COMPLETED
        assert AlertKind.PALMS_NOT_FACING in [k for _, k in report.alerts]

    def test_truncated_during_approach(self):
        stream = canonical_stream()
        cut = FrameStream([f for f in stream.frames if f.timestamp < 1700])
        report = detect_stage2(cut)
        assert report.verdict == Verdict.NOT_COMPLETED
        assert report.phase_timeline[-1][0] == Phase.APPROACHING

    def test_timeline_contiguous_and_ordered(self):
        report = detect_stage2(canonical_stream())
        phases = [p for p, *_ in report.phase_timeline]
        indices = [WORKING_PHASES.index(p) for p in phases]
        assert indices == sorted(indices)
        for (_, _, end), (_, start, _) in zip(report.phase_timeline, report.phase_timeline[1:]):
            assert end == start

    def test_completion_requires_full_prefix(self):
        for seed in range(5):
            report = detect_stage2(canonical_stream(seed=seed, noise_sigma=1.0))
            assert report.verdict == Verdict.COMPLETED
            assert [p for p, *_ in report.phase_timeline] == list(WORKING_PHASES)

    def test_oracle_equivalence_on_ablations(self):
        for name in ABLATIONS:
            report = detect_stage2(make_ablation_stream(name, seed=3))
            assert report.verdict == Verdict.NOT_COMPLETED, name

    def test_determinism_byte_for_byte(self):
        a = detect_stage2(canonical_stream(noise_sigma=1.5, seed=4)).to_text()
        b = detect_stage2(canonical_stream(noise_sigma=1.5, seed=4)).to_text()
        assert a == b

    def test_time_shift_invariance(self):
        stream = canonical_stream(noise_sigma=1.0, seed=5)
        base = detect_stage2(stream)
        shift = 12345
        shifted = FrameStream([Frame(f.timestamp + shift, f.hands) for f in stream.frames])
        moved = detect_stage2(shifted)
        assert moved.verdict == base.verdict
        assert moved.stage_duration_s == pytest.approx(base.stage_duration_s, abs=1e-9)
        for (p1, s1, e1), (p2, s2, e2) in zip(base.phase_timeline, moved.phase_timeline):
            assert p1 == p2 and s2 - s1 == shift and e2 - e1 == shift

    def test_survivor_below_50_fps_is_never_scored(self):
        stream = canonical_stream(rub_duration_s=4.0)
        contact = next(ev.timestamp_ms for ev in detect_stage2(stream).events
                       if ev.name == Phase.CONTACT_OCCLUDED.value)
        # the surviving hand at 33 FPS: rub windows fail estimate_frequency's rate check
        det = Stage2Detector()
        for frame in stream.frames:
            if frame.timestamp < contact or (frame.timestamp - contact) % 30 == 0:
                det.step(frame)
        report = det.report()
        assert Phase.RUBBING.value in [ev.name for ev in report.events] and det.state.rub_evals == 0
        assert report.events[-1].detail.startswith("stream_ended") and report.events[-1].detail.endswith("ok=0.00")

    def test_short_rub_not_completed(self):
        report = detect_stage2(canonical_stream(rub_duration_s=1.2))
        assert report.verdict == Verdict.NOT_COMPLETED

    def test_report_text_shape(self):
        text = detect_stage2(canonical_stream()).to_text()
        lines = text.strip().splitlines()
        assert lines[0].startswith("verdict ")
        assert lines[1].startswith("stage_duration_s ")
        assert all(l.split()[0] in ("phase", "alert") for l in lines[2:])

    def test_empty_stream_not_completed(self):
        report = detect_stage2(FrameStream([]))
        assert report.verdict == Verdict.NOT_COMPLETED
        assert report.phase_timeline == ()
        assert report.stage_duration_s is None


def _slope(stamps, distances, window_s):
    # a stand-in config: the windows below are shorter than a real config's 0.1 s floor
    det = Stage2Detector(SimpleNamespace(approach_window_s=window_s))
    det.state.dist_window.extend(zip(stamps, distances))
    return det._approach_slope()


class TestApproachSlope:
    def test_matches_polyfit(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            n, fps = int(rng.integers(5, 101)), rng.uniform(50.0, 200.0)
            gaps = np.maximum(1, np.rint(1000.0 / fps * rng.uniform(0.7, 1.3, n - 1)))
            stamps = int(rng.integers(0, 60_000)) + np.concatenate([[0], np.cumsum(gaps)]).astype(int)
            elapsed_s = (stamps - stamps[0]) / 1000.0
            distances = 150.0 + rng.uniform(-300.0, 50.0) * elapsed_s + rng.normal(0.0, 1.0, n)
            # a window as long as the samples span, so the span gate passes at any count
            slope = _slope(stamps.tolist(), distances.tolist(), elapsed_s[-1])
            assert slope == pytest.approx(float(np.polyfit(stamps / 1000.0, distances, 1)[0]), rel=1e-9)

    @pytest.mark.parametrize("t0", [0, 1, 7, 990, 123457, 987654321])
    def test_span_gate_counts_whole_ms_at_any_start(self, t0):
        stamps = [t0 + 10 * k for k in range(46)]          # 450 ms, exactly 90% of the 0.5 s window
        distances = [150.0 - 0.5 * k for k in range(46)]
        assert _slope(stamps, distances, 0.5) == pytest.approx(-50.0, rel=1e-12)
        assert _slope(stamps[:-1], distances[:-1], 0.5) is None
        assert _slope(stamps[:4], distances[:4], 0.01) is None     # fewer than five samples


_DURATION = st.floats(0.1, 3.0)
_PHASE = st.one_of(
    st.builds(PhaseSpec, st.sampled_from([k for k in PhaseKind if k != PhaseKind.PRIMITIVE]), _DURATION,
              opposed_normals=st.booleans()),
    st.builds(PhaseSpec, st.just(PhaseKind.PRIMITIVE), _DURATION, primitive_kind=st.sampled_from(PrimitiveKind)))
# the canonical hold, approach and rub with drawn durations, so some runs complete,
# and maybe one more phase, so some complete before the stream ends
_CANONICAL = st.builds(lambda hold, approach, rub, tail: (PhaseSpec(PhaseKind.FACING_HOLD, hold),
                                                          PhaseSpec(PhaseKind.APPROACH, approach),
                                                          PhaseSpec(PhaseKind.RUB_CIRCULAR, rub)) + tuple(tail),
                       st.floats(0.2, 1.0), st.floats(0.3, 1.0), st.floats(0.5, 4.0),
                       st.lists(_PHASE, max_size=1))
_SCRIPTS = st.builds(GestureScript, st.one_of(_CANONICAL, st.lists(_PHASE, min_size=1, max_size=4).map(tuple)),
                     fps=st.floats(50.0, 200.0), noise_sigma=st.sampled_from([0.0, 0.5, 2.0]),
                     surviving_hand=st.sampled_from(Handedness), seed=st.integers(0, 1000))


@settings(PROPERTY, max_examples=60)
@given(script=_SCRIPTS, drop_rate=st.sampled_from([0.0, 0.0, 0.05, 0.3]), drop_seed=st.integers(0, 1000))
def test_detector_invariants_on_drawn_scripts(script, drop_rate, drop_seed):
    """Detection never raises, its windows stay bounded, and its report agrees with its events."""
    stream, _ = generate(script)
    frames = drop_frames(stream, drop_rate, drop_seed).frames
    det = Stage2Detector()
    # timestamps are rounded to whole ms, so a window can hold one sample more than span_s * fps + 1
    dist_max = math.ceil(DEFAULT_CONFIG.approach_window_s * script.fps) + 1
    pos_max = math.ceil(DEFAULT_CONFIG.rub_freq_window_s * script.fps) + 1
    for frame in frames:
        det.step(frame)
        assert len(det.state.dist_window) <= dist_max and len(det.state.pos_window) <= pos_max
    report = det.report()
    if not frames:
        assert report.phase_timeline == () and report.verdict == Verdict.NOT_COMPLETED
        return
    timeline = report.phase_timeline
    assert timeline[0][1] == frames[0].timestamp
    for (_, _, end), (_, start, _) in zip(timeline, timeline[1:]):
        assert end == start
    terminal = [k for k, ev in enumerate(report.events) if ev.name in (Phase.COMPLETED.value, Phase.FAILED.value)]
    assert terminal == [len(report.events) - 1]
    last = report.events[-1]
    completed = last.name == Phase.COMPLETED.value
    assert report.verdict == (Verdict.COMPLETED if completed else Verdict.NOT_COMPLETED)
    assert timeline[-1][2] == (last.timestamp_ms if completed else frames[-1].timestamp)


SHIFT_MS = 123457


def _shifted(stream, ms):
    return FrameStream([Frame(f.timestamp + ms, f.hands) for f in stream.frames])


# a drawn start moves the streams off t = 0, where times taken to seconds before subtracting stay exact
@settings(PROPERTY, max_examples=60)
@given(script=_SCRIPTS, start_ms=st.integers(0, 999))
def test_time_shift_moves_every_event_through_contact(script, start_ms):
    """Shifted timestamps shift each event up to ContactOccluded by the same amount, name and detail kept."""
    stream = _shifted(generate(script)[0], start_ms)
    base = detect_stage2(stream).events
    moved = detect_stage2(_shifted(stream, SHIFT_MS)).events
    names = [ev.name for ev in base]
    end = names.index(Phase.CONTACT_OCCLUDED.value) + 1 if Phase.CONTACT_OCCLUDED.value in names else len(base)
    assert [(ev.timestamp_ms - SHIFT_MS, ev.name, ev.detail) for ev in moved[:end]] == \
        [(ev.timestamp_ms, ev.name, ev.detail) for ev in base[:end]]


def _walk_away():
    """A 3 s rub, then 3 s without hands."""
    script = make_canonical_script(noise_sigma=1.0, seed=6)
    return generate(replace(script, phases=script.phases + (PhaseSpec(PhaseKind.IDLE, 3.0),)))[0]


def _flicker():
    """The surviving hand missing from one frame in the middle of the rub."""
    frames = list(canonical_stream(noise_sigma=1.0, seed=7).frames)
    frames[350] = Frame(frames[350].timestamp, ())
    return FrameStream(frames)


def _alternating_runs():
    """Unopposed runs of 2.5, 2.0 and 2.05 s, split by a short facing run and a one-hand run, then facing."""
    frames, t0 = [], 0
    for opposed, n in ((False, 250), (True, 20), (False, 201), (None, 10), (False, 205), (True, 40)):
        chunk = facing_frames(n, t0=t0, opposed=bool(opposed))
        frames += [Frame(f.timestamp, f.hands[:1]) for f in chunk] if opposed is None else chunk
        t0 += 10 * n
    return FrameStream(frames)


def _handless_gap(start_s, gap_s):
    """The canonical stream with no hands from start_s for gap_s."""
    lo, hi = start_s * 1000, (start_s + gap_s) * 1000
    return FrameStream([Frame(f.timestamp, ()) if lo <= f.timestamp < hi else f
                        for f in canonical_stream(noise_sigma=1.0, seed=8).frames])


def _leading_gap():
    """1.5 s of handless frames before the canonical stream."""
    return FrameStream([Frame(t, ()) for t in range(0, 1500, 10)] + _shifted(canonical_stream(seed=9), 1500).frames)


def _lone_line_after_contact():
    """A facing hold and an approach, then 8 s of a lone hand on `primitive line`, which never sweeps 180 degrees."""
    return generate(GestureScript((PhaseSpec(PhaseKind.FACING_HOLD, 1.0), PhaseSpec(PhaseKind.APPROACH, 1.0),
                                   PhaseSpec(PhaseKind.PRIMITIVE, 8.0, primitive_kind=PrimitiveKind.LINE))))[0]


# rub_0.3hz_6s sweeps for longer than rub_freq_window_s before Rubbing, so it pins the sweep over every
# fast sample since contact; lone_line_after_contact never sweeps enough and ends at the stage limit
GOLDEN_SESSIONS = {
    **{f"rub_{hz}hz": (lambda hz=hz: canonical_stream(rub_frequency_hz=float(hz))) for hz in (1, 2, 3)},
    "rub_0.3hz_6s": lambda: canonical_stream(rub_frequency_hz=0.3, rub_duration_s=6.0),
    "lone_line_after_contact": _lone_line_after_contact,
    **{f"{name}_{fps}fps": (lambda name=name, fps=fps: make_ablation_stream(name, fps=float(fps), seed=1))
       for name in ABLATIONS for fps in (50, 100, 200)},
    **{f"rub_sigma3_seed{seed}": (lambda seed=seed: canonical_stream(noise_sigma=3.0, seed=seed)) for seed in (1, 2)},
    "drop5": lambda: drop_frames(canonical_stream(noise_sigma=1.0, seed=3), 0.05, seed=4),
    "walk_away": _walk_away,
    "flicker": _flicker,
    "alternating_runs": _alternating_runs,
    "gap_after_hand_short": lambda: _handless_gap(0.4, 0.5),
    "gap_after_hand_long": lambda: _handless_gap(0.4, 1.2),
    "gap_before_any_hand": _leading_gap,
}

# sha256 of each session's event text followed by its report text
GOLDEN_EVENT_DIGESTS = {
    "alternating_runs": "232613727c73f7cb63e4b4d7a7edd2ac5663e2182f15154882e2fb4a0517f578",
    "drop5": "51c1ccfa4baffff3728e201539ca90b794a7d6d1284f4ba5590c91c9a6641252",
    "flicker": "4fb9d9a764c0951c42cde0a537706c168ea96d474e6adbe77afb71d1a99a6eba",
    "gap_after_hand_long": "2a71c5ab8a7072cc8643b38fbd323ed1bfa280b945ea263e669d065eab23b961",
    "gap_after_hand_short": "39652e08b46616df0322f50d1d584b7d2686c86d0585300c7f648b55b147121e",
    "gap_before_any_hand": "86bc44fd8ce74b158ff28cb03336a6f95a111857b0d034cf7a5c566ebb6e9097",
    "lone_line_after_contact": "e99ac92305f26ff7a2d387336a6d25e616e81a2b4b075f4d936a25d9c763d699",
    "no_approach_100fps": "58e9231733b9d45fa22538cad29c7650b3e59da090fdfeda4edc25ae37f9d2e4",
    "no_approach_200fps": "deebedbc9519f97aa9d1584654c990452e9603bbe3d35bc65a2c27705c83e594",
    "no_approach_50fps": "4cf8c9a69e132a64c2acc447e2d5b156747f21601efb98bd13c7559374438c0b",
    "no_facing_100fps": "567e2743340fcc8c74296156e20aea4021117868d27ccb1de57c9ffcc80caab4",
    "no_facing_200fps": "edabc1ad2eaa0eecc7cf98d367f3241ed5562f778a25bf4ec53bb5e019095421",
    "no_facing_50fps": "3db3c9bd41767646896e41c3d052e703a8c5c053d77478147d0efdd701b4012b",
    "no_occlusion_100fps": "3b4df3d010f743bc27194a47eb2069c3d59579656c96ff43f06d5e9aa9cf0c29",
    "no_occlusion_200fps": "254954214f3d4c0f4a7033667e10f9807de80a506cb5e51b8a2fe5301ae64d11",
    "no_occlusion_50fps": "79899c97722154657d3627bfe9426352c227d4c3cf4f02eb18802def0439e4f2",
    "no_rotation_100fps": "ab1a34fc3bb550998baa441f40085a751c8bddd9dae44bb07922ef52f8490617",
    "no_rotation_200fps": "91a3f07466945b2dfe11cbcc4faf4f9044d2eee596f90b73ffe2325312bfa152",
    "no_rotation_50fps": "e3f358337edd4b60c70baa2058296dffe9687fdf7c4e6646b2a5d42c4d3709cc",
    "rub_0.3hz_6s": "3f14bc22465df590c952e214e99d9bed1d73aa0971c07369a3b5c25fc69ac489",
    "rub_1hz": "7c6ea82523d4253584974fb39ea2973fcb7ef007ea978f86cb79a6d0dcb6acb0",
    "rub_2hz": "8f369aee8bb7578a5b23087f5af00989b48f1f8efbc12c6bb4de931d574839c5",
    "rub_3hz": "669438095334e114b2e9290f3c517ec01170a09673570ba8b4ae6f5dd5f00c70",
    "rub_sigma3_seed1": "0c8bb2a04d14c6a3b645010563c7e3245671ac373fcb3286787606590c634e7e",
    "rub_sigma3_seed2": "13120d81f9a981bda35186ceda8e1ab5093e1006c2e9f8bdb5597e33cc8284eb",
    "short_rub_100fps": "f51f07ae25b5edc6fedab3f557d25b9539d77ef5584f5cd153b6bdf0d357697d",
    "short_rub_200fps": "c967cb9e3de7e8efd0b53c2bec93ec1e20d8a81f50a0c28a01a99f671ddf66aa",
    "short_rub_50fps": "6cd78f6c7e052d1fa62fbdbf7eb66a14f50b5b41355a31e2dbb718208e8960af",
    "walk_away": "10a8bcc788135eb8abaeb376be9af946f705e31372d7b8d385624eaa467f2f53",
}


def _event_digest(stream):
    report = detect_stage2(stream)
    return hashlib.sha256((events_to_text(report.events) + report.to_text()).encode()).hexdigest()


class TestGoldenEvents:
    @pytest.mark.parametrize("name", sorted(GOLDEN_SESSIONS))
    def test_events_and_report_are_pinned(self, name):
        assert _event_digest(GOLDEN_SESSIONS[name]()) == GOLDEN_EVENT_DIGESTS[name]
