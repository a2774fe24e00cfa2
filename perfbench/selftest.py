"""Self-tests of the benchmark's own code (not part of the repository's test suite).

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs   # noqa: E402
import oracle   # noqa: E402
import spans    # noqa: E402
from hge.frame_model import write_csv_stream   # noqa: E402
from hge.stage_detector import Stage2Detector, events_to_text   # noqa: E402


def _detect(session):
    detector = Stage2Detector()
    for frame in session.stream.frames:
        detector.step(frame)
    return detector.report().to_text(), events_to_text(detector.events)


class OracleTest(unittest.TestCase):
    def setUp(self):
        self.session = inputs.render(inputs.rub_session("rub", "canonical", 3.0, 2.0, seed=7))

    def test_accepts_the_detector_output(self):
        report, events = _detect(self.session)
        self.assertEqual(oracle.check_verdict(self.session, report, events, exit_code=0)[:2], (True, True))

    def test_flags_a_flipped_verdict(self):
        report, events = _detect(self.session)
        flipped_report = report.replace("verdict Completed", "verdict NotCompleted", 1)
        last = events.splitlines()[-1]
        ts = last.split()[0]
        flipped_events = events.replace(last, f"{ts} Failed stream_ended")
        self.assertEqual(oracle.check_verdict(self.session, flipped_report, flipped_events, exit_code=3)[:2],
                         (True, False))
        # a verdict flipped in the report alone no longer matches its events
        self.assertFalse(oracle.check_verdict(self.session, flipped_report, events)[0])

    def test_flags_a_one_byte_csv_change(self):
        left, right = write_csv_stream(self.session.stream)
        self.assertEqual(oracle.check_round_trip(left, right, self.session.stream), (True, True))
        row = left.splitlines()[5]
        cells = row.split(",")
        digit = cells[1][-1]
        cells[1] = cells[1][:-1] + ("1" if digit != "1" else "2")
        changed = left.replace(row, ",".join(cells), 1)
        self.assertEqual(len(changed), len(left))
        self.assertEqual(oracle.check_round_trip(changed, right, self.session.stream), (False, False))

    def test_orientation_codes_follow_the_phase(self):
        rec = inputs.feature_recording(1)
        self.assertEqual(inputs.window_truth(rec, 1000, 4000), 0)
        self.assertEqual(inputs.window_truth(rec, 41000, 44000), 1)
        self.assertEqual(inputs.window_truth(rec, 90000, 93000), 2)
        self.assertIsNone(inputs.window_truth(rec, 39000, 42000))

    def test_only_known_defects_may_disagree(self):
        walk, other = ("live_replay", "walkaway"), ("batch_detect", "rub3s_0")
        self.assertEqual(oracle.unexpected_failures({walk: False, other: True}), [])
        self.assertEqual(oracle.unexpected_failures({walk: True, other: False}), [other])

    def test_walkaway_truth_is_completed(self):
        walk = next(s for s in inputs.live_sessions(1) if s.kind == "walkaway")
        self.assertEqual((walk.verdict, walk.settle_ms), ("Completed", 6000))


class SelfTimeTest(unittest.TestCase):
    def test_self_time_on_a_hand_built_tree(self):
        s = lambda name, start, end, parent: (name, start, end, parent, 0, None, 0)   # noqa: E731
        tree = [
            s("root", 0, 100, -1),
            s("a", 10, 30, 0),
            s("b", 25, 50, 0),        # overlaps a: the union 10..50 counts once
            s("a.child", 12, 20, 1),
            s("c", 90, 120, 0),       # runs past its parent's end; only 90..100 is inside
            s("other_root", 200, 210, -1),
        ]
        self.assertEqual(spans.self_times(tree), [100 - 40 - 10, 20 - 8, 25, 8, 30, 10])

    def test_covered_ns(self):
        self.assertEqual(spans.covered_ns([(0, 10), (5, 15), (20, 25), (21, 22)]), 20)
        self.assertEqual(spans.covered_ns([]), 0)


class MetricNamesTest(unittest.TestCase):
    def test_printed_metric_names_appear_in_benchmark_json(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        declared = {m["name"] for m in bench["end_to_end"]}
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "synth_write", "--seed", "3",
             "--seconds", "0.5", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        self.assertEqual(set(result["metrics"]), declared)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)


if __name__ == "__main__":
    unittest.main()
