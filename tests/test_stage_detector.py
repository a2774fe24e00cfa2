import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hge import (
    DEFAULT_CONFIG,
    AlertKind,
    Frame,
    FrameStream,
    Handedness,
    OutOfOrderFrame,
    Phase,
    Stage2Detector,
    Verdict,
    detect_stage2,
    drop_frames,
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

    def test_windows_stay_bounded_over_a_long_rub(self):
        config = replace(DEFAULT_CONFIG, stage_max_s=60.0)
        det = Stage2Detector(config)
        fps = 100.0
        for frame in canonical_stream(rub_duration_s=30.0, noise_sigma=1.0, fps=fps).frames:
            det.step(frame)
            assert len(det.state.pos_window) <= config.rub_freq_window_s * fps + 1
            assert len(det.state.dist_window) <= config.approach_window_s * fps + 1
        assert Phase.RUBBING.value in [ev.name for ev in det.events]


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
