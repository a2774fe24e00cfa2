"""The benchmark's traced run patches program entry points by name; they must exist where it looks."""

import importlib
from pathlib import Path

import hge.cli
import hge.features
import hge.frame_model
import hge.mlprep
import hge.stage_detector
from hge import generate, make_canonical_script

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
    # the traced run counts estimate_frequency calls through hge.stage_detector's name for it;
    # a detector that reached the rule another way would leave that count, and its metric, blank
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
