"""The benchmark's traced run patches program entry points by name; they must exist where it looks."""

import importlib
from pathlib import Path

import hge.cli
import hge.features
import hge.frame_model
import hge.mlprep
import hge.stage_detector
from hge import Frame, generate, make_canonical_script

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
OWNERS = (hge.cli, hge.features, hge.frame_model, hge.mlprep, hge.stage_detector,
          hge.frame_model.FrameStream, hge.stage_detector.Stage2Detector)


def test_span_hooks_install_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    before = [dict(vars(owner)) for owner in OWNERS]
    restore = spans.install(spans.Tracer())     # a moved or renamed entry point raises KeyError here
    try:
        patched = [(owner, name) for owner, saved in zip(OWNERS, before)
                   for name, fn in saved.items() if vars(owner)[name] is not fn]
        assert {(hge.stage_detector, "palm_opposition"), (hge.cli, "parse_hand_csv")} <= set(patched)
        for owner, name in patched:
            assert getattr(vars(owner)[name], "__wrapped__", None) is before[OWNERS.index(owner)][name]
    finally:
        restore()
    for owner, saved in zip(OWNERS, before):
        assert all(vars(owner)[name] is fn for name, fn in saved.items())
        assert vars(owner).keys() == saved.keys()


def test_traced_detector_reaches_the_frequency_rule_by_its_wrapped_name(monkeypatch):
    # the traced run counts estimate_frequency calls through hge.stage_detector's name for it, and times
    # palm_opposition through the same module's name; a detector that reached either rule another way, or
    # inlined it, would leave that count or time, and its metric, blank
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        report = hge.stage_detector.detect_stage2(generate(make_canonical_script())[0])
    finally:
        restore()
    assert report.verdict == hge.stage_detector.Verdict.COMPLETED
    assert tracer.counts["features.estimate_frequency"] > 0
    assert any(span[spans.NAME] == "features.palm_opposition" for span in tracer.spans)


def test_the_benchmarks_unit_counts_build_no_frame(monkeypatch):
    # the traced run counts the frames merged, written and generated with len(stream.frames), and the feature
    # windows of a recording from its first and last frame; none of these needs the stream's frames built
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans, workloads = importlib.import_module("spans"), importlib.import_module("workloads")
    script = make_canonical_script(noise_sigma=1.0, seed=3)
    texts = hge.frame_model.write_csv_stream(generate(script)[0])
    records = [hge.frame_model.parse_hand_csv(text, side) for text, side in zip(texts, hge.frame_model.SIDES)]
    built = []
    init = Frame.__init__

    def counted(self, timestamp, hands=()):
        built.append(timestamp)
        init(self, timestamp, hands)

    monkeypatch.setattr(Frame, "__init__", counted)
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        merged = hge.cli.merge_hand_streams(*records)
        hge.cli.write_csv_stream(merged)
        generated, _ = hge.cli.generate(script)
    finally:
        restore()
    assert built == []
    assert [(span[spans.NAME], span[spans.UNITS]) for span in tracer.spans] == [
        ("frame_model.merge_hand_streams", len(merged)), ("frame_model.write_csv_stream", len(merged)),
        ("synth.generate", len(generated))]
    stamps = generated.table.timestamps
    assert workloads._window_count(generated, 1500) == (stamps[-1] - stamps[0]) // 1500 + 1
    assert built == [stamps[0], stamps[-1]]
