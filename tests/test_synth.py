import hashlib
import math
import re

import numpy as np
import pytest

from hge import (
    Frame,
    FrameStream,
    HandObservation,
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
    make_ablation_stream,
    make_canonical_script,
    merge_hand_streams,
    palm_opposition,
    parse_script_text,
    write_csv_stream,
)
from hge.synth import ABLATIONS, GestureScript, OcclusionModel, PhaseSpec
from dataclasses import fields, replace

from helpers import hand_records, stream_scalars


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
        with pytest.raises(InvalidScript, match="unknown primitive kind 'spiral'"):
            generate(GestureScript(phases=(PhaseSpec(PhaseKind.PRIMITIVE, 1.0, primitive_kind="spiral"),)))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected(self, value):
        # NaN passes every range comparison, and a script built in code skips the parser's finiteness check
        base = PhaseSpec(PhaseKind.APPROACH, 1.0)
        names = [f.name for f in fields(PhaseSpec) if isinstance(getattr(base, f.name), float)]
        assert len(names) == 8
        for name in names:
            with pytest.raises(InvalidScript, match=f"approach {name} {value} is not finite"):
                generate(GestureScript(phases=(replace(base, **{name: value}),)))
        with pytest.raises(InvalidScript, match=f"noise_sigma {value} is not finite"):
            generate(GestureScript(phases=(base,), noise_sigma=value))

    @pytest.mark.parametrize("name, value, message", [
        ("surviving_hand", "x", "surviving_hand 'x' is not one of Left, Right"),
        ("surviving_hand", "Right", "surviving_hand 'Right' is not one of Left, Right"),
        ("occlusion_model", "bogus", "occlusion_model 'bogus' is not one of drop_on_contact, none"),
        ("seed", 1.5, "seed 1.5 is not an integer"),
        ("seed", math.nan, "seed nan is not an integer"),
        ("seed", True, "seed True is not an integer"),
        ("fps", "100", "fps '100' is not a number"),
        ("noise_sigma", "1", "noise_sigma '1' is not a number"),
    ])
    def test_setting_of_the_wrong_type_rejected(self, name, value, message):
        # the script parser converts these; a script built in code is checked when built, as a parsed one is
        with pytest.raises(InvalidScript, match=f"^{re.escape(message)}$"):
            replace(make_canonical_script(), **{name: value})

    @pytest.mark.parametrize("kind, values, message", [
        (PhaseKind.IDLE, {"duration_s": "1"}, "idle duration_s '1' is not a number"),
        (PhaseKind.RUB_CIRCULAR, {"rub_frequency_hz": "2"}, "rub_circular rub_frequency_hz '2' is not a number"),
        (PhaseKind.RUB_CIRCULAR, {"rub_radius_mm": 1e308},
         "rub_circular rub_radius_mm 1e+308 is not below 1e+16 in magnitude"),
        (PhaseKind.FACING_HOLD, {"opposed_normals": "no"}, "facing_hold opposed_normals 'no' is not a bool"),
        ("idle", {}, "phase kind 'idle' is not one of idle, facing_hold, approach, rub_circular, stage3_linear,"
                     " primitive"),
        (PhaseKind.PRIMITIVE, {"primitive_kind": "line"},
         "unknown primitive kind 'line' is not one of sinusoid_1d, circle, line, static"),
    ])
    def test_phase_value_of_the_wrong_type_rejected(self, kind, values, message):
        # each once rendered NaN or opposed palms, or failed with a TypeError or an AttributeError
        with pytest.raises(InvalidScript, match=f"^{re.escape(message)}$"):
            PhaseSpec(kind, **{"duration_s": 1.0, **values})

    @pytest.mark.parametrize("separation", ["-100", "0"])
    def test_facing_hold_at_no_positive_separation_rejected(self, separation):
        # the palms would face away from each other, or sit at one point, under a facing_hold label
        with pytest.raises(InvalidScript, match="facing_hold separation must be positive"):
            parse_script_text(f"occlusion none\nphase facing_hold duration_s=0.1 separation_mm={separation}\n")
        assert parse_script_text("phase facing_hold duration_s=0.1 separation_mm=0.5\n").phases[0].separation_mm == 0.5

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
                normal = b.palm_normal + rng.normal(0.0, 1.5 / 100.0, 3)
                assert np.array_equal(a.palm_normal, normal / np.linalg.norm(normal))
                assert np.array_equal(a.palm_position, b.palm_position + rng.normal(0.0, 1.5, 3))
                rows = [b.fingertips[k] + rng.normal(0.0, 1.5, 3) for k in range(5)]
                assert np.array_equal(a.fingertips, np.array(rows))
                assert np.array_equal(a.palm_velocity, b.palm_velocity) and a.grab_strength == b.grab_strength


class TestPerturbations:
    def test_no_approach_is_the_canonical_stream_without_its_approach(self):
        canonical, _ = generate(make_canonical_script())
        kept = FrameStream([f for f in canonical.frames if not 1000 <= f.timestamp < 2000])
        cut = make_ablation_stream("no_approach")
        assert np.array_equal(stream_scalars(cut), stream_scalars(kept), equal_nan=True)
        assert detect_stage2(cut).verdict == Verdict.NOT_COMPLETED

    def test_edits_select_rows_as_the_frame_list_filter_did(self):
        # generated one-hand and handless frames, and a merged stream whose Right rows do not rise:
        # left 10 takes right 14, as right 12 is reserved for left 12
        script = parse_script_text("fps 50\nseed 5\nnoise_sigma 1.5\nphase idle duration_s=0.5\n"
                                   "phase primitive duration_s=1.0 primitive_kind=circle\nphase idle duration_s=0.3\n"
                                   "phase facing_hold duration_s=0.5\nphase approach duration_s=1.0\n"
                                   "phase rub_circular duration_s=2.0\n")
        offsets = np.arange(0, 6000, 20)
        merged = merge_hand_streams(
            hand_records(Handedness.LEFT, np.sort(np.concatenate([offsets + 10, offsets + 12]))),
            hand_records(Handedness.RIGHT, np.sort(np.concatenate([offsets + 12, offsets + 14, [6005]]))))
        assert not (np.diff(merged.table.rows[:, 1]) > 0).all()
        for stream in (generate(script)[0], merged, make_ablation_stream("no_approach")):
            assert any(f.hand_count < 2 for f in stream.frames)
            for rate, seed in ((0.0, 0), (0.05, 1), (0.5, 2), (0.9, 3)):
                got = drop_frames(stream, rate, seed)
                keep = np.random.default_rng(seed).random(len(stream)) >= rate
                kept = FrameStream([f for f, k in zip(stream.frames, keep) if k])
                assert np.array_equal(stream_scalars(got), stream_scalars(kept), equal_nan=True)
                assert write_csv_stream(got) == write_csv_stream(kept)
                assert all(np.shares_memory(a, b) for a, b in zip(got.table.blocks, stream.table.blocks) if b.size)
        for sigma, seed, fps in ((0.0, 0, 100.0), (1.5, 4, 200.0), (2.0, 6, 50.0)):
            stream, labels = generate(make_canonical_script(noise_sigma=sigma, seed=seed, fps=fps))
            kept = FrameStream([f for f, label in zip(stream.frames, labels) if label != "approach"])
            cut = make_ablation_stream("no_approach", noise_sigma=sigma, seed=seed, fps=fps)
            assert np.array_equal(stream_scalars(cut), stream_scalars(kept), equal_nan=True)

    def test_edits_build_no_frame_or_observation(self, monkeypatch):
        stream, _ = generate(make_canonical_script(noise_sigma=1.0, seed=3))

        def refuse(self, *args, **kwargs):
            raise AssertionError(f"built a {type(self).__name__}")

        monkeypatch.setattr(HandObservation, "__init__", refuse)
        monkeypatch.setattr(Frame, "__init__", refuse)
        assert 0 < len(drop_frames(stream, 0.2, seed=1)) < len(stream)
        lengths = {name: len(make_ablation_stream(name, noise_sigma=1.0)) for name in ABLATIONS}
        assert lengths == {"no_facing": 650, "no_approach": 400, "no_occlusion": 500, "no_rotation": 500,
                           "short_rub": 320}

    def test_frames_of_a_row_selection_build_one_observation_per_held_hand(self, monkeypatch):
        # a selection holds few rows of each chunk's span of the shared blocks; the rows it skips build nothing
        stream, _ = generate(make_canonical_script(noise_sigma=1.0, seed=3))
        built = []
        init = HandObservation.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(HandObservation, "__init__", counted)
        for selection in (drop_frames(stream, 0.9, seed=1), make_ablation_stream("no_approach", noise_sigma=1.0)):
            built.clear()
            frames = list(selection.frames)
            assert len(built) == sum(f.hand_count for f in frames) == int((selection.table.rows >= 0).sum()) > 0

    def test_unknown_ablation_rejected(self):
        with pytest.raises(UnknownPhase):
            make_ablation_stream("warp_drive")

    def test_drop_frames_keeps_order_and_rate(self):
        stream, _ = generate(make_canonical_script(rub_duration_s=8.0))
        out = drop_frames(stream, 0.05, seed=9)
        ts = [f.timestamp for f in out.frames]
        assert ts == sorted(ts)
        dropped = len(stream) - len(out)
        assert 0.01 <= dropped / len(stream) <= 0.10
        assert set(ts) <= set(stream.table.timestamps.tolist())

    def test_drop_frames_keeps_detection_alive(self):
        stream, _ = generate(make_canonical_script(seed=2))
        assert detect_stage2(drop_frames(stream, 0.05, seed=3)).verdict == Verdict.COMPLETED

    @pytest.mark.parametrize("rate,seed,message", [
        (math.nan, 0, "drop rate nan is not finite"),
        (1.5, 0, "drop rate 1.5 outside [0, 1)"),
        ("0.1", 0, "drop rate '0.1' is not a number"),
        (0.1, 1.5, "seed 1.5 is not an integer"),
        (0.1, "x", "seed 'x' is not an integer"),
        (0.1, True, "seed True is not an integer"),
        (0.1, -1, "seed must be non-negative"),
    ])
    def test_drop_frames_rejects_a_bad_rate_or_seed(self, rate, seed, message):
        stream, _ = generate(make_canonical_script())
        with pytest.raises(InvalidScript, match=re.escape(message)):
            drop_frames(stream, rate, seed)


def primitive_path(kind, duration_s, fps=100.0):
    """Palm positions, palm velocities and timestamps of a noiseless `primitive` phase."""
    script = GestureScript(phases=(PhaseSpec(PhaseKind.PRIMITIVE, duration_s, primitive_kind=kind),), fps=fps)
    stream, _ = generate(script)
    frames = stream.frames
    hands = [f.hands[0] for f in frames]
    return (np.array([h.palm_position for h in hands]), np.array([h.palm_velocity for h in hands]),
            [f.timestamp for f in frames])


X, Z = np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])
# each primitive's positions and velocities at times t (s), about the centre (0, 200, 0) mm
CLOSED_FORMS = {
    PrimitiveKind.SINUSOID_1D: lambda t: (
        np.outer(30.0 * np.sin(4.0 * np.pi * t), X),
        np.outer(30.0 * 4.0 * np.pi * np.cos(4.0 * np.pi * t), X)),
    PrimitiveKind.CIRCLE: lambda t: (
        50.0 * (np.outer(np.cos(2.0 * np.pi * t), X) + np.outer(np.sin(2.0 * np.pi * t), Z)),
        50.0 * 2.0 * np.pi * (np.outer(-np.sin(2.0 * np.pi * t), X) + np.outer(np.cos(2.0 * np.pi * t), Z))),
    PrimitiveKind.LINE: lambda t: (np.outer(50.0 * t, X), np.outer(np.full_like(t, 50.0), X)),
    PrimitiveKind.STATIC: lambda t: (np.zeros((len(t), 3)), np.zeros((len(t), 3))),
}


class TestPrimitives:
    def test_circle_classifies_circular(self):
        pos, _, _ = primitive_path(PrimitiveKind.CIRCLE, 1.0)
        assert classify_trajectory(pos) == TrajectoryKind.CIRCULAR

    def test_sinusoid_frequency(self):
        pos, _, ts = primitive_path(PrimitiveKind.SINUSOID_1D, 3.0)
        assert estimate_frequency(pos, ts) == pytest.approx(2.0, abs=0.1)

    def test_static_has_no_frequency(self):
        pos, _, ts = primitive_path(PrimitiveKind.STATIC, 2.0)
        assert estimate_frequency(pos, ts) is None

    @pytest.mark.parametrize("kind", list(PrimitiveKind))
    def test_primitive_phase_matches_its_closed_form(self, kind):
        pos, vel, ts = primitive_path(kind, 1.3, fps=80.0)
        index = np.arange(104)       # 1.3 s at 80 FPS
        want_pos, want_vel = CLOSED_FORMS[kind](index / 80.0)
        assert ts == np.rint(index * 12.5).astype(int).tolist()
        assert np.allclose(pos, want_pos + [0.0, 200.0, 0.0], rtol=0.0, atol=1e-9)
        assert np.allclose(vel, want_vel, rtol=0.0, atol=1e-9)

    def test_line_classifies_linear(self):
        pos, _, _ = primitive_path(PrimitiveKind.LINE, 1.0)
        assert classify_trajectory(pos) == TrajectoryKind.LINEAR


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

    @pytest.mark.parametrize("value, opposed", [("1", True), ("TRUE", True), ("Yes", True),
                                                ("0", False), ("false", False), ("NO", False)])
    def test_opposed_normals_spellings(self, value, opposed):
        script = parse_script_text(f"phase facing_hold duration_s=1 opposed_normals={value}\n")
        assert script.phases[0].opposed_normals is opposed

    def test_missing_duration_rejected(self):
        with pytest.raises(InvalidScript):
            parse_script_text("phase facing_hold separation_mm=100\n")

    # a value for each phase key other than duration_s, and its script spelling
    CHANGED = {"separation_mm": (90.0, "90"), "start_separation_mm": (120.0, "120"),
               "end_separation_mm": (40.0, "40"),
               "rub_frequency_hz": (1.5, "1.5"), "rub_radius_mm": (10.0, "10"),
               "oscillation_frequency_hz": (1.5, "1.5"), "oscillation_amplitude_mm": (5.0, "5"),
               "opposed_normals": (False, "no"), "primitive_kind": (PrimitiveKind.LINE, "line")}

    @pytest.mark.parametrize("kind", list(PhaseKind))
    def test_a_phase_accepts_exactly_the_keys_it_renders(self, kind):
        base = PhaseSpec(kind, 1.0, primitive_kind=PrimitiveKind.CIRCLE)
        render = lambda spec: stream_scalars(generate(GestureScript(
            phases=(spec,), occlusion_model=OcclusionModel.NONE))[0])
        for key, (value, text) in self.CHANGED.items():
            read = not np.array_equal(render(base), render(replace(base, **{key: value})))
            line = f"phase {kind.value} duration_s=1 {key}={text}"
            if kind == PhaseKind.PRIMITIVE and key != "primitive_kind":
                line += " primitive_kind=circle"
            if read:
                assert getattr(parse_script_text(line).phases[0], key) == value
            else:
                with pytest.raises(InvalidScript, match=f"line 1: phase {kind.value} reads no key '{key}'"):
                    parse_script_text(line)


GOLDEN_SCRIPTS = {
    # canonical rub, then a facing hold after contact: the hidden hand stays hidden
    "rub_then_hold": "fps 100\nseed 3\n"
                     "phase facing_hold duration_s=0.5 separation_mm=150\n"
                     "phase approach duration_s=1.0 start_separation_mm=150\n"
                     "phase rub_circular duration_s=1.0 rub_frequency_hz=2.0 rub_radius_mm=30\n"
                     "phase facing_hold duration_s=0.4 separation_mm=120\n"
                     "phase idle duration_s=0.2\n",
    "rub_noisy_left_200fps": "fps 200\nseed 7\nnoise_sigma 1.5\nsurviving_hand left\n"
                             "phase facing_hold duration_s=0.5 separation_mm=150\n"
                             "phase approach duration_s=1.0 start_separation_mm=150\n"
                             "phase rub_circular duration_s=1.0 rub_frequency_hz=2.5 rub_radius_mm=25\n"
                             "phase facing_hold duration_s=0.3 separation_mm=150\n",
    "no_occlusion_speed_unopposed_50fps": "fps 50\nseed 11\nnoise_sigma 1.5\nocclusion none\n"
                                          "phase idle duration_s=0.3\n"
                                          "phase facing_hold duration_s=0.6 separation_mm=140 opposed_normals=no\n"
                                          "phase approach duration_s=1.0 start_separation_mm=140 "
                                          "end_separation_mm=30 opposed_normals=no\n"
                                          "phase rub_circular duration_s=0.8 rub_radius_mm=0\n",
    "speed_approach_drop_right": "fps 100\nseed 2\n"
                                 "phase approach duration_s=1.0 start_separation_mm=100 end_separation_mm=10\n"
                                 "phase rub_circular duration_s=0.5 rub_frequency_hz=1.5 opposed_normals=0\n",
    # phases longer than one 256-frame render pass; contact falls in the approach's second pass
    "long_phases_noisy": "fps 100\nseed 12\nnoise_sigma 1.0\n"
                         "phase facing_hold duration_s=2.7 separation_mm=150\n"
                         "phase approach duration_s=3.0 start_separation_mm=150\n"
                         "phase rub_circular duration_s=2.6 rub_frequency_hz=1.8\n",
    "stage3": "fps 100\nseed 5\nphase stage3_linear duration_s=1.0 oscillation_frequency_hz=1.7\n",
    "stage3_noisy_200fps": "fps 200\nseed 6\nnoise_sigma 1.5\n"
                           "phase stage3_linear duration_s=0.7 oscillation_amplitude_mm=12\n",
    "primitives": "fps 100\nseed 9\n"
                  + "".join(f"phase primitive duration_s=0.37 primitive_kind={k.value}\n" for k in PrimitiveKind)
                  + "phase idle duration_s=0.1\n",
    # contact, then one-hand primitives, then a facing hold that still shows one hand
    "contact_primitives_hold_noisy_50fps": "fps 50\nseed 4\nnoise_sigma 1.5\n"
                                           "phase approach duration_s=0.5 start_separation_mm=60\n"
                                           + "".join(f"phase primitive duration_s=0.5 primitive_kind={k.value}\n"
                                                     for k in PrimitiveKind)
                                           + "phase facing_hold duration_s=0.4 separation_mm=100\n",
}

# sha256 of write_csv_stream's left and right texts joined by a NUL, and of the comma-joined labels
GOLDEN_DIGESTS = {
    "contact_primitives_hold_noisy_50fps": ("a6365e94a9b09fda97a812ede10081d7d307a8845a26b72fdd9c4e8058433188",
                                            "ba93b41ce06a23547bc98d99c5d98474948cbdc61b84350e7b1dbfff7fc2fb3f"),
    "long_phases_noisy": ("fe3fb8cb7183b5faa9e701e3fd524d12f3c9840c404693fcfe88d296a6626053",
                          "0d3192a530aa09392b86651d8910748ecd4036546edb01722622f702ffbe98ff"),
    "no_occlusion_speed_unopposed_50fps": ("088244a04e456f87644140854e8175eeacde1391353dc5bfadffaf5925133701",
                                           "c105310ff10c5c57152a31273f3aa0838381679473e2bb04c3051ff4aec064af"),
    "primitives": ("9ace16f5e7da94038d00a81b9f9157391f67e7cbc7b0e4160cf087301bae6faf",
                   "247fed8d524f7984a7af1724bed80d6868dc35d25d9da6ef249607b146a86253"),
    "rub_noisy_left_200fps": ("140bb9297cffd972c5399717abf7bb420b9ba12cf3bf2057daaa1e5b1fee1141",
                              "9003cd9c5252d0aab1bd69234e08123c163c14e9059c9107cc42a8c67941bc77"),
    "rub_then_hold": ("163019cacf728b40a122f0fd1706e385a23dae4c6e8698b214a689f84cbe1fe8",
                      "1a744a407d91028bed20d60525c58f021f285e50c3ec55f87d9945788239e6ff"),
    "speed_approach_drop_right": ("a583d65584a001a4c40ecd7049b23388e884d6e4f6a52058596cf7704173ac29",
                                  "63262fb5a85df923c7d50b5f6693832fa984c5c0df98e8d0c1849cbc6eeeeda5"),
    "stage3": ("1fec958975082f4ae2e4622f1c1b59fa000e97b245469684683bf868c61d2003",
               "c2dc76868853ebffd6c816a5e70970094749e4d2fa4dbb3f0b1902138b2775f3"),
    "stage3_noisy_200fps": ("bca3b3aacacf61a7e9ade22d736a56842e1aa8ffa407367ea26a2c96ecbf6072",
                            "aec3644660d3fbf124d6a816b514955cb1e2b5c08ad8a9db3e08d32d01176724"),
}


def _digests(text):
    stream, labels = generate(parse_script_text(text))
    return tuple(hashlib.sha256(s.encode()).hexdigest()
                 for s in ("\0".join(write_csv_stream(stream)), ",".join(labels)))


class TestGoldenBytes:
    @pytest.mark.parametrize("name", sorted(GOLDEN_SCRIPTS))
    def test_stream_bytes_and_labels_are_pinned(self, name):
        assert _digests(GOLDEN_SCRIPTS[name]) == GOLDEN_DIGESTS[name]
