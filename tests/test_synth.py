import numpy as np
import pytest

from hge import (
    Handedness,
    InvalidScript,
    PhaseKind,
    PrimitiveKind,
    TrajectoryKind,
    UnknownPhase,
    Verdict,
    classify_trajectory,
    detect_stage2,
    drop_frames,
    estimate_frequency,
    generate,
    generate_primitive,
    make_canonical_script,
    palm_opposition,
    parse_script_text,
    remove_phase_frames,
)
from hge.synth import GestureScript, OcclusionModel, PhaseSpec
from dataclasses import replace

from helpers import stream_scalars


class TestGenerate:
    def test_canonical_frame_count(self):
        stream, labels = generate(make_canonical_script(rub_frequency_hz=2.0, rub_duration_s=3.0))
        assert len(stream.frames) == 500          # 5 s at 100 fps
        assert len(labels) == 500

    def test_determinism(self):
        for sigma in (0.0, 1.5):
            a, _ = generate(make_canonical_script(noise_sigma=sigma, seed=21))
            b, _ = generate(make_canonical_script(noise_sigma=sigma, seed=21))
            assert np.array_equal(stream_scalars(a), stream_scalars(b), equal_nan=True)

    def test_labels_partition_frames(self):
        script = make_canonical_script(rub_duration_s=2.0)
        stream, labels = generate(script)
        assert len(labels) == len(stream.frames)
        counts = {k: labels.count(k) for k in set(labels)}
        assert counts == {"facing_hold": 100, "approach": 100, "rub_circular": 200}

    def test_noiseless_facing_hold_always_faces(self):
        script = GestureScript(phases=(PhaseSpec(PhaseKind.FACING_HOLD, 2.0),))
        stream, _ = generate(script)
        for f in stream.frames:
            left, right = f.hand(Handedness.LEFT), f.hand(Handedness.RIGHT)
            r = palm_opposition(left.palm_normal, right.palm_normal)
            assert r.facing
            assert r.resultant_magnitude == pytest.approx(0.0, abs=1e-12)

    def test_occlusion_drops_one_hand_below_30mm(self):
        stream, labels = generate(make_canonical_script())
        for f, lab in zip(stream.frames, labels):
            if f.hand_count == 2:
                sep = np.linalg.norm(f.hands[0].palm_position - f.hands[1].palm_position)
                assert sep >= 30.0
            else:
                assert f.hand_count == 1
                assert f.hands[0].handedness == Handedness.RIGHT
        assert any(f.hand_count == 1 for f in stream.frames)
        assert all(f.hand_count == 1 for f, lab in zip(stream.frames, labels) if lab == "rub_circular")

    def test_surviving_hand_selectable(self):
        script = replace(make_canonical_script(), surviving_hand=Handedness.LEFT)
        stream, labels = generate(script)
        rubs = [f for f, lab in zip(stream.frames, labels) if lab == "rub_circular"]
        assert all(f.hands[0].handedness == Handedness.LEFT for f in rubs)

    def test_occlusion_none_keeps_both_hands(self):
        script = replace(make_canonical_script(), occlusion_model=OcclusionModel.NONE)
        stream, _ = generate(script)
        assert all(f.hand_count == 2 for f in stream.frames)

    def test_invalid_scripts_rejected(self):
        with pytest.raises(InvalidScript):
            generate(GestureScript(phases=()))
        with pytest.raises(InvalidScript):
            generate(GestureScript(phases=(PhaseSpec(PhaseKind.IDLE, -1.0),)))
        with pytest.raises(InvalidScript):
            generate(replace(make_canonical_script(), fps=20.0))

    def test_script_longer_than_ten_minutes_rejected(self):
        idle = PhaseSpec(PhaseKind.IDLE, 300.0)
        assert len(generate(GestureScript(phases=(idle, idle), fps=50.0))[0].frames) == 30000
        with pytest.raises(InvalidScript, match="601 s"):
            generate(GestureScript(phases=(idle, idle, PhaseSpec(PhaseKind.IDLE, 1.0)), fps=50.0))

    def test_fingertips_are_one_array_and_noise_draws_in_row_order(self):
        stream, _ = generate(make_canonical_script(noise_sigma=1.5, seed=8, rub_duration_s=1.0))
        clean, _ = generate(make_canonical_script(seed=8, rub_duration_s=1.0))
        rng = np.random.default_rng(8)
        for noisy, exact in zip(stream.frames, clean.frames):
            for a, b in zip(noisy.hands, exact.hands):
                assert a.fingertips.shape == (5, 3)
                rng.normal(0.0, 1.5 / 100.0, 3)
                rng.normal(0.0, 1.5, 3)
                rows = [b.fingertips[k] + rng.normal(0.0, 1.5, 3) for k in range(5)]
                assert np.array_equal(a.fingertips, np.array(rows))


class TestPerturbations:
    def test_remove_approach_breaks_detection(self):
        stream, labels = generate(make_canonical_script())
        cut, cut_labels = remove_phase_frames(stream, labels, PhaseKind.APPROACH)
        assert "approach" not in cut_labels
        assert detect_stage2(cut).verdict == Verdict.NOT_COMPLETED

    def test_remove_unknown_phase_rejected(self):
        stream, labels = generate(make_canonical_script())
        with pytest.raises(UnknownPhase):
            remove_phase_frames(stream, labels, "warp_drive")

    def test_drop_frames_keeps_order_and_rate(self):
        stream, _ = generate(make_canonical_script(rub_duration_s=8.0))
        out = drop_frames(stream, 0.05, seed=9)
        ts = [f.timestamp for f in out.frames]
        assert ts == sorted(ts)
        dropped = len(stream.frames) - len(out.frames)
        assert 0.01 <= dropped / len(stream.frames) <= 0.10
        kept = {f.timestamp for f in out.frames}
        assert kept <= {f.timestamp for f in stream.frames}

    def test_drop_frames_keeps_detection_alive(self):
        stream, _ = generate(make_canonical_script(seed=2))
        assert detect_stage2(drop_frames(stream, 0.05, seed=3)).verdict == Verdict.COMPLETED


class TestPrimitives:
    def test_circle_classifies_circular(self):
        pos, _ = generate_primitive(PrimitiveKind.CIRCLE, radius_mm=50.0, duration_s=1.0, fps=100.0)
        assert classify_trajectory(pos, 1.0) == TrajectoryKind.CIRCULAR

    def test_sinusoid_frequency(self):
        pos, ts = generate_primitive(PrimitiveKind.SINUSOID_1D, frequency_hz=2.0,
                                     duration_s=3.0, fps=100.0)
        assert estimate_frequency(pos, ts) == pytest.approx(2.0, abs=0.1)

    def test_static_has_no_frequency(self):
        pos, ts = generate_primitive(PrimitiveKind.STATIC, duration_s=2.0, fps=100.0)
        assert estimate_frequency(pos, ts) is None

    def test_line_classifies_linear(self):
        pos, _ = generate_primitive(PrimitiveKind.LINE, speed_mm_s=60.0, duration_s=1.0, fps=100.0)
        assert classify_trajectory(pos, 1.0) == TrajectoryKind.LINEAR


class TestScriptText:
    CANONICAL = """\
# canonical palm-to-palm run
fps 100
seed 0
noise_sigma 0
occlusion drop_on_contact
surviving_hand right
phase facing_hold duration_s=1.0 separation_mm=150
phase approach duration_s=1.0 start_separation_mm=150
phase rub_circular duration_s=3.0 rub_frequency_hz=2.0 rub_radius_mm=30
"""

    def test_parses_to_canonical_equivalent(self):
        script = parse_script_text(self.CANONICAL)
        stream_a, _ = generate(script)
        stream_b, _ = generate(make_canonical_script(rub_frequency_hz=2.0, rub_duration_s=3.0))
        assert np.array_equal(stream_scalars(stream_a), stream_scalars(stream_b), equal_nan=True)

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(InvalidScript) as err:
            parse_script_text("fps 100\nbogus 3\n")
        assert "line 2" in str(err.value)

    def test_unknown_phase_kind_rejected(self):
        with pytest.raises(InvalidScript):
            parse_script_text("phase moonwalk duration_s=1\n")

    def test_missing_duration_rejected(self):
        with pytest.raises(InvalidScript):
            parse_script_text("phase facing_hold separation_mm=100\n")
