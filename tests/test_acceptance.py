"""Acceptance suite: one test per criterion, run with `pytest tests/test_acceptance.py -v -s`.

Each test prints one `criterion N: PASS/FAIL` line. Tolerances are fixed here,
not configurable.
"""

import time

import numpy as np
import pytest

from hge import (
    FingerSpread,
    FrameStream,
    PalmShape,
    PrimitiveKind,
    STAGE2_SIGNATURE,
    STAGE3_SIGNATURE,
    TrajectoryKind,
    Verdict,
    classify_palm_shape,
    classify_trajectory,
    detect_stage2,
    drop_frames,
    estimate_frequency,
    extract_feature_vector,
    finger_spread,
    generate,
    generate_primitive,
    make_ablation_stream,
    make_canonical_script,
    make_stage3_script,
    match_signature,
    palm_opposition,
    parse_csv_stream,
    random_plane_basis,
    write_csv_stream,
)
from hge.cli import run
from hge.synth import ABLATIONS, OcclusionModel
from dataclasses import replace

from helpers import chord_oracle, random_unit, stream_scalars


def _finish(number, ok, detail):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_opposition_math():
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        a, b = random_unit(rng), random_unit(rng)
        r = palm_opposition(a, b)
        worst = max(worst, abs(r.resultant_magnitude - chord_oracle(a, b)))
        assert r.facing == (r.resultant_magnitude < 0.4)

    # the facing verdict flips exactly at 0.4: build |a+b| = m directly
    flips = []
    for m in (0.399999, 0.4, 0.400001):
        c = np.sqrt(1.0 - (m / 2.0) ** 2)
        r = palm_opposition((m / 2.0, c, 0.0), (m / 2.0, -c, 0.0))
        assert r.resultant_magnitude == pytest.approx(m, abs=1e-12)
        flips.append(r.facing)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and flips == [True, False, False] and elapsed < 1.0
    _finish(1, ok, f"max |resultant-chord| = {worst:.2e}, flip at 0.4 = {flips}, {elapsed:.2f} s")


def test_criterion_2_threshold_fidelity():
    shape_ok = (classify_palm_shape(0.3) == PalmShape.FLAT
                and classify_palm_shape(0.300001) == PalmShape.CURVED)
    tips_17 = tuple(np.array([k * 17.0, 0.0, 0.0]) for k in range(5))
    tips_169 = tuple(np.array([k * 16.9, 0.0, 0.0]) for k in range(5))
    spread_ok = (finger_spread(tips_17)[1] == FingerSpread.OPEN
                 and finger_spread(tips_169)[1] == FingerSpread.CLOSED)
    _finish(2, shape_ok and spread_ok,
            f"grab 0.3 flat/0.300001 curved = {shape_ok}, 17 mm open/16.9 mm closed = {spread_ok}")


def test_criterion_3_frequency_estimator():
    t0 = time.monotonic()
    worst = 0.0
    for fps in (100.0, 110.0):
        f = 0.8
        while f <= 3.6 + 1e-9:
            pos, ts = generate_primitive(PrimitiveKind.SINUSOID_1D, frequency_hz=f,
                                         amplitude_mm=30.0, duration_s=3.0, fps=fps)
            est = estimate_frequency(pos, ts)
            worst = max(worst, abs(est - f))
            f += 0.2
    elapsed = time.monotonic() - t0
    ok = worst <= 0.1 and elapsed < 5.0
    _finish(3, ok, f"max |error| = {worst:.4f} Hz over 0.8-3.6 at 100/110 FPS, {elapsed:.2f} s")


def test_criterion_4_trajectory_classifier():
    rng = np.random.default_rng(404)

    def circle(radius, noise=0.0):
        u, v = random_plane_basis(rng)
        center = rng.uniform(-100.0, 100.0, 3)
        ang = np.linspace(0.0, 2.0 * np.pi, 100, endpoint=False)
        pts = center + radius * (np.outer(np.cos(ang), u) + np.outer(np.sin(ang), v))
        if noise:
            pts = pts + rng.normal(0.0, noise, pts.shape)
        return pts

    circles_ok = sum(
        classify_trajectory(circle(rng.uniform(5.0, 200.0)), 1.0) == TrajectoryKind.CIRCULAR
        for _ in range(100))
    lines_ok = sum(
        classify_trajectory(
            np.outer(np.linspace(0.0, rng.uniform(30.0, 200.0), 60), random_unit(rng))
            + rng.uniform(-100.0, 100.0, 3), 1.0) == TrajectoryKind.LINEAR
        for _ in range(100))
    # noisy circles at rub-plausible radii: sigma=2 mm keeps residual under 10%
    noisy_ok = sum(
        classify_trajectory(circle(rng.uniform(25.0, 200.0), noise=2.0), 1.0) == TrajectoryKind.CIRCULAR
        for _ in range(100))
    ok = circles_ok == 100 and lines_ok == 100 and noisy_ok >= 95
    _finish(4, ok, f"exact circles {circles_ok}/100, exact lines {lines_ok}/100, noisy circles {noisy_ok}/100")


def test_criterion_5_stage2_end_to_end_oracle():
    rng = np.random.default_rng(505)
    t0 = time.monotonic()
    completed = 0
    duration_ok = 0
    for seed in range(50):
        f = rng.uniform(0.8, 3.6)
        rub_s = rng.uniform(2.0, 7.0)
        sigma = rng.uniform(0.0, 2.0)
        stream, _ = generate(make_canonical_script(rub_frequency_hz=f, rub_duration_s=rub_s,
                                                   noise_sigma=sigma, seed=seed))
        report = detect_stage2(stream)
        if report.verdict == Verdict.COMPLETED:
            completed += 1
            if abs(report.stage_duration_s - rub_s) <= 0.3:
                duration_ok += 1
    ablation_failures = 0
    ablation_total = 0
    for name in ABLATIONS:
        for seed in range(10):
            stream = make_ablation_stream(name, seed=seed,
                                          rub_frequency_hz=1.0 + 0.25 * seed,
                                          rub_duration_s=2.5 + 0.4 * seed)
            ablation_total += 1
            if detect_stage2(stream).verdict == Verdict.NOT_COMPLETED:
                ablation_failures += 1
    elapsed = time.monotonic() - t0
    ok = (completed == 50 and duration_ok == 50
          and ablation_failures == ablation_total and elapsed < 30.0)
    _finish(5, ok, f"completed {completed}/50, duration within 0.3 s {duration_ok}/50, "
                   f"ablations not-completed {ablation_failures}/{ablation_total}, {elapsed:.1f} s")


def test_criterion_6_signature_separation():
    script = replace(make_canonical_script(rub_frequency_hz=2.0, rub_duration_s=3.0),
                     occlusion_model=OcclusionModel.NONE)
    stream, labels = generate(script)
    rub_frames = [f for f, lab in zip(stream.frames, labels) if lab == "rub_circular"]
    v2 = extract_feature_vector(FrameStream(rub_frames))
    s3_stream, _ = generate(make_stage3_script(duration_s=3.0, frequency_hz=2.0))
    v3 = extract_feature_vector(s3_stream)

    own2, score2 = match_signature(v2, STAGE2_SIGNATURE)
    cross2, _ = match_signature(v2, STAGE3_SIGNATURE)
    own3, score3 = match_signature(v3, STAGE3_SIGNATURE)
    cross3, _ = match_signature(v3, STAGE2_SIGNATURE)
    ok = own2 and score2 == 1.0 and not cross2 and own3 and score3 == 1.0 and not cross3
    _finish(6, ok, f"stage2 own={own2}/cross={cross2}, stage3 own={own3}/cross={cross3}")


def test_criterion_7_frame_drop_robustness():
    completed = 0
    for seed in range(50):
        stream, _ = generate(make_canonical_script(rub_frequency_hz=2.0, rub_duration_s=3.0, seed=seed))
        dropped = drop_frames(stream, 0.05, seed=seed + 9000)
        if detect_stage2(dropped).verdict == Verdict.COMPLETED:
            completed += 1
    ok = completed >= 45   # at least 90% of 50 seeds
    _finish(7, ok, f"completed {completed}/50 with 5% frame drops")


def test_criterion_8_io_round_trip_and_exit_codes(tmp_path, capsys):
    # 1000-frame stream: 10 s at 100 fps
    stream, _ = generate(make_canonical_script(rub_duration_s=8.0, noise_sigma=1.0, seed=88))
    assert len(stream.frames) == 1000
    left, right = write_csv_stream(stream)
    back = parse_csv_stream(left, right)
    a, b = stream_scalars(stream), stream_scalars(back)
    same_shape = a.shape == b.shape and np.array_equal(np.isnan(a), np.isnan(b))
    mask = ~np.isnan(a)
    max_err = float(np.max(np.abs(a[mask] - b[mask]))) if same_shape else float("inf")

    pair, _ = generate(make_canonical_script(seed=12))
    lt, rt = write_csv_stream(pair)
    lp, rp = tmp_path / "l.csv", tmp_path / "r.csv"
    lp.write_text(lt)
    rp.write_text(rt)
    codes = []
    outputs = []
    for _ in range(3):
        codes.append(run(["detect", "--left", str(lp), "--right", str(rp)]))
        outputs.append(capsys.readouterr().out)
    ok = same_shape and max_err <= 1e-6 and len(set(codes)) == 1 and len(set(outputs)) == 1
    _finish(8, ok, f"round-trip max err = {max_err:.2e} over 1000 frames, "
                   f"detect exit codes = {codes}")
