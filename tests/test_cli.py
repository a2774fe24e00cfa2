import os

import pytest

from hge import generate, make_ablation_stream, make_canonical_script, write_csv_stream
from hge.cli import run

CANONICAL_SCRIPT = """\
fps 100
seed 0
phase facing_hold duration_s=1.0 separation_mm=150
phase approach duration_s=1.0 start_separation_mm=150
phase rub_circular duration_s=3.0 rub_frequency_hz=2.0 rub_radius_mm=30
"""


@pytest.fixture
def canonical_pair(tmp_path):
    stream, _ = generate(make_canonical_script())
    left, right = write_csv_stream(stream)
    lp, rp = tmp_path / "left.csv", tmp_path / "right.csv"
    lp.write_text(left)
    rp.write_text(right)
    return str(lp), str(rp)


class TestSynthAndDetect:
    def test_synth_then_detect_round_trip_exits_zero(self, tmp_path, capsys):
        script = tmp_path / "run.script"
        script.write_text(CANONICAL_SCRIPT)
        lp, rp = str(tmp_path / "l.csv"), str(tmp_path / "r.csv")
        assert run(["synth", "--script", str(script), "--out-left", lp, "--out-right", rp]) == 0
        code = run(["detect", "--left", lp, "--right", rp])
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict Completed" in out

    def test_detect_writes_report_and_events(self, canonical_pair, tmp_path, capsys):
        lp, rp = canonical_pair
        report = tmp_path / "report.txt"
        events = tmp_path / "events.txt"
        code = run(["detect", "--left", lp, "--right", rp,
                    "--report", str(report), "--events", str(events)])
        assert code == 0
        assert report.read_text() == capsys.readouterr().out
        lines = events.read_text().splitlines()
        names = [l.split()[1] for l in lines]
        for expected in ("AwaitingTwoHands", "PalmsFacing", "Approaching",
                         "ContactOccluded", "Rubbing", "Completed"):
            assert expected in names

    def test_detect_not_completed_exits_three_with_alert_events(self, tmp_path, capsys):
        stream = make_ablation_stream("no_facing")
        left, right = write_csv_stream(stream)
        lp, rp = tmp_path / "l.csv", tmp_path / "r.csv"
        lp.write_text(left)
        rp.write_text(right)
        events = tmp_path / "events.txt"
        code = run(["detect", "--left", str(lp), "--right", str(rp), "--events", str(events)])
        assert code == 3
        assert "PalmsNotFacing" in events.read_text()
        assert "verdict NotCompleted" in capsys.readouterr().out

    def test_detect_deterministic_across_runs(self, canonical_pair, capsys):
        lp, rp = canonical_pair
        first = run(["detect", "--left", lp, "--right", rp])
        out_first = capsys.readouterr().out
        second = run(["detect", "--left", lp, "--right", rp])
        out_second = capsys.readouterr().out
        assert first == second == 0
        assert out_first == out_second

    @pytest.mark.parametrize("column,value", [
        ("palm_x", "nan"), ("normal_y", "nan"), ("vel_z", "inf"), ("thumb_x", "-inf"),
    ])
    def test_detect_rejects_non_finite_value(self, canonical_pair, tmp_path, capsys, column, value):
        lp, rp = canonical_pair
        broken = tmp_path / "broken.csv"
        lines = open(lp).read().splitlines()
        cells = lines[3].split(",")
        cells[lines[0].split(",").index(column)] = value
        lines[3] = ",".join(cells)
        broken.write_text("\n".join(lines) + "\n")
        code = run(["detect", "--left", str(broken), "--right", rp])
        assert code == 2
        err = capsys.readouterr().err
        assert "broken.csv" in err and "line 4" in err and column in err


class TestValidate:
    def test_ok(self, canonical_pair):
        lp, rp = canonical_pair
        assert run(["validate", "--left", lp, "--right", rp]) == 0

    def test_malformed_row_exits_two_and_names_line(self, canonical_pair, tmp_path, capsys):
        lp, rp = canonical_pair
        broken = tmp_path / "broken.csv"
        lines = open(lp).read().splitlines()
        lines[3] = lines[3].replace(lines[3].split(",")[1], "abc", 1)
        broken.write_text("\n".join(lines) + "\n")
        code = run(["validate", "--left", str(broken), "--right", rp])
        assert code == 2
        err = capsys.readouterr().err
        assert "line 4" in err and "broken.csv" in err

    def test_missing_file_exits_two(self, canonical_pair, capsys):
        lp, _ = canonical_pair
        assert run(["validate", "--left", lp, "--right", "/nope/missing.csv"]) == 2


class TestUsageAndConfig:
    def test_usage_error_exits_one(self, capsys):
        assert run(["detect"]) == 1
        assert run(["frobnicate"]) == 1

    def test_bad_config_exits_two(self, canonical_pair, tmp_path, capsys):
        lp, rp = canonical_pair
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("not_a_key 5\n")
        assert run(["detect", "--left", lp, "--right", rp, "--config", str(cfg)]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_merge_window_key_is_unknown(self, canonical_pair, tmp_path, capsys):
        lp, rp = canonical_pair
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("merge_window_ms 5\n")
        assert run(["detect", "--left", lp, "--right", rp, "--config", str(cfg)]) == 2
        assert "unknown key 'merge_window_ms'" in capsys.readouterr().err

    def test_config_overrides_apply(self, canonical_pair, tmp_path):
        lp, rp = canonical_pair
        cfg = tmp_path / "cfg.txt"
        # demand a 5 s stage; the scripted 3 s rub can no longer qualify
        cfg.write_text("stage_min_s 5\n")
        assert run(["detect", "--left", lp, "--right", rp, "--config", str(cfg)]) == 3

    def test_env_var_supplies_config(self, canonical_pair, tmp_path, monkeypatch):
        lp, rp = canonical_pair
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("stage_min_s 5\n")
        monkeypatch.setenv("HGE_CONFIG", str(cfg))
        assert run(["detect", "--left", lp, "--right", rp]) == 3
        monkeypatch.delenv("HGE_CONFIG")
        assert run(["detect", "--left", lp, "--right", rp]) == 0


class TestFeaturesCommand:
    def test_prints_window_lines(self, canonical_pair, capsys):
        lp, rp = canonical_pair
        assert run(["features", "--left", lp, "--right", rp, "--window-ms", "1000"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 5
        assert out[0].startswith("window 0 0 1000 orientation=FacingEachOther")
        assert "trajectory=Circular" in out[4] or "trajectory=Circular" in out[3]


class TestMlprepCommand:
    def test_builds_dataset_from_manifest(self, canonical_pair, tmp_path, capsys):
        lp, rp = canonical_pair
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(
            "left_file,right_file,start_ms,end_ms,label\n"
            f"{os.path.basename(lp)},{os.path.basename(rp)},0,1500,Hands Palm to palm\n"
            f"{os.path.basename(lp)},{os.path.basename(rp)},2200,4800,Hands Palm to palm\n"
        )
        out_path = tmp_path / "dataset.csv"
        assert run(["mlprep", "--manifest", str(manifest), "--out", str(out_path)]) == 0
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("sample_no,")
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "1"
        assert lines[2].split(",")[-1] == "Hands Palm to palm"

    def test_bad_manifest_exits_two(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("nope\n1\n")
        assert run(["mlprep", "--manifest", str(manifest), "--out", str(tmp_path / "d.csv")]) == 2
