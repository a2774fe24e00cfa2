import csv
import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import fields, replace
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hge
from hge import CSV_HEADER, generate, make_ablation_stream, make_canonical_script, write_csv_stream
from hge.cli import run
from hge.config import DEFAULT_CONFIG, EngineConfig, config_to_text, parse_config_text
from hge.errors import ConfigError

from test_ingest_properties import PROPERTY, _csv_like

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
        lines = Path(lp).read_text().splitlines()
        cells = lines[3].split(",")
        cells[lines[0].split(",").index(column)] = value
        lines[3] = ",".join(cells)
        broken.write_text("\n".join(lines) + "\n")
        code = run(["detect", "--left", str(broken), "--right", rp])
        assert code == 2
        err = capsys.readouterr().err
        assert "broken.csv" in err and "line 4" in err and column in err


MANIFEST_HEAD = "left_file,right_file,start_ms,end_ms,label\n"


def _late_canonical_pair(offset):
    """late_l.csv and late_r.csv: the canonical pair with offset added to every timestamp_ms."""
    texts = write_csv_stream(generate(make_canonical_script())[0])
    return {name: re.sub(r"^\d+", lambda m: str(int(m.group()) + offset), text, flags=re.M).encode()
            for name, text in zip(("late_l.csv", "late_r.csv"), texts)}


# file name -> bytes, argv, fragments the one error line must hold
BAD_INPUTS = {
    "csv_not_utf8": ({"bad.csv": CSV_HEADER.encode() + b"\n0,\xff\n"},
                     ["validate", "--left", "bad.csv", "--right", "right.csv"], ["bad.csv", "line 2", "UTF-8"]),
    "config_not_utf8": ({"cfg.txt": b"stage_min_s 2\n\xfe\n"},
                        ["detect", "--left", "left.csv", "--right", "right.csv", "--config", "cfg.txt"],
                        ["cfg.txt", "line 2", "UTF-8"]),
    "primitive_kind": ({"s.script": b"fps 100\nphase primitive duration_s=1 primitive_kind=bogus\n"},
                       ["synth", "--script", "s.script", "--out-left", "l.csv", "--out-right", "r.csv"],
                       ["s.script", "line 2", "bogus"]),
    "duration_nan": ({"s.script": b"phase idle duration_s=nan\n"},
                     ["synth", "--script", "s.script", "--out-left", "l.csv", "--out-right", "r.csv"],
                     ["s.script", "line 1", "duration_s", "not finite"]),
    "duration_inf": ({"s.script": b"phase idle duration_s=inf\n"},
                     ["synth", "--script", "s.script", "--out-left", "l.csv", "--out-right", "r.csv"],
                     ["s.script", "line 1", "duration_s", "not finite"]),
    "separation_nan": ({"s.script": b"phase approach duration_s=1 start_separation_mm=nan\n"},
                       ["synth", "--script", "s.script", "--out-left", "l.csv", "--out-right", "r.csv"],
                       ["s.script", "line 1", "start_separation_mm", "not finite"]),
    "noise_sigma_nan": ({"s.script": b"noise_sigma nan\nphase idle duration_s=1\n"},
                        ["synth", "--script", "s.script", "--out-left", "l.csv", "--out-right", "r.csv"],
                        ["s.script", "line 1", "noise_sigma", "not finite"]),
    "fps_inf": ({"s.script": b"phase idle duration_s=1\nfps inf\n"},
                ["synth", "--script", "s.script", "--out-left", "l.csv", "--out-right", "r.csv"],
                ["s.script", "line 2", "fps", "not finite"]),
    "script_over_ten_minutes": ({"s.script": b"fps 50\nphase idle duration_s=601\n"},
                                ["synth", "--script", "s.script", "--out-left", "l.csv", "--out-right", "r.csv"],
                                ["s.script", "601 s"]),
    "opposed_normals_misspelt": ({"s.script": b"fps 100\nphase facing_hold duration_s=1 opposed_normals=ture\n"},
                                 ["synth", "--script", "s.script", "--out-left", "l.csv", "--out-right", "r.csv"],
                                 ["s.script", "line 2", "opposed_normals value 'ture' is not valid"]),
    "phase_key_not_read": ({"s.script": b"fps 100\nphase facing_hold duration_s=1 rub_frequency_hz=2\n"},
                           ["synth", "--script", "s.script", "--out-left", "l.csv", "--out-right", "r.csv"],
                           ["s.script", "line 2", "facing_hold", "'rub_frequency_hz'"]),
    "approach_speed_unknown": ({"s.script": b"phase approach duration_s=1 approach_speed_mm_s=50\n"},
                               ["synth", "--script", "s.script", "--out-left", "l.csv", "--out-right", "r.csv"],
                               ["s.script", "line 1", "reads no key 'approach_speed_mm_s'"]),
    "negative_seed": ({"s.script": b"seed -1\nphase idle duration_s=1\n"},
                      ["synth", "--script", "s.script", "--out-left", "l.csv", "--out-right", "r.csv"],
                      ["s.script", "seed"]),
    "config_out_of_range": ({"cfg.txt": b"# demand a long stage\nstage_min_s 100\n"},
                            ["detect", "--left", "left.csv", "--right", "right.csv", "--config", "cfg.txt"],
                            ["cfg.txt", "line 2", "stage_min_s=100.0", "[0.1, 60.0]"]),
    "contact_margin_unknown": ({"cfg.txt": b"stage_min_s 2\ncontact_margin_mm 5\n"},
                               ["detect", "--left", "left.csv", "--right", "right.csv", "--config", "cfg.txt"],
                               ["cfg.txt", "line 2", "unknown key 'contact_margin_mm'"]),
    "phase_key_repeated": ({"s.script": b"fps 100\nphase idle duration_s=1 duration_s=5\n"},
                           ["synth", "--script", "s.script", "--out-left", "l.csv", "--out-right", "r.csv"],
                           ["s.script", "line 2", "repeated key 'duration_s'"]),
    "script_key_repeated": ({"s.script": b"fps 100\nfps 200\nphase idle duration_s=1\n"},
                            ["synth", "--script", "s.script", "--out-left", "l.csv", "--out-right", "r.csv"],
                            ["s.script", "line 2", "repeated key 'fps'"]),
    "config_key_repeated": ({"cfg.txt": b"stage_min_s 2\nstage_min_s 5\n"},
                            ["detect", "--left", "left.csv", "--right", "right.csv", "--config", "cfg.txt"],
                            ["cfg.txt", "line 2", "repeated key 'stage_min_s'"]),
    "seed_not_integer": ({"s.script": b"phase idle duration_s=1\nseed abc\n"},
                         ["synth", "--script", "s.script", "--out-left", "l.csv", "--out-right", "r.csv"],
                         ["s.script", "line 2", "seed", "'abc'"]),
    "occlusion_unknown": ({"s.script": b"fps 100\nocclusion bogus\nphase idle duration_s=1\n"},
                          ["synth", "--script", "s.script", "--out-left", "l.csv", "--out-right", "r.csv"],
                          ["s.script", "line 2", "occlusion", "'bogus'"]),
    "surviving_hand_unknown": ({"s.script": b"phase idle duration_s=1\n\nsurviving_hand middle\n"},
                               ["synth", "--script", "s.script", "--out-left", "l.csv", "--out-right", "r.csv"],
                               ["s.script", "line 3", "surviving_hand", "'middle'"]),
    "window_before_missing_files": ({}, ["features", "--left", "no.csv", "--right", "no.csv", "--window-ms", "0"],
                                    ["--window-ms must be positive"]),
    "mlprep_empty_label": ({"m.csv": (MANIFEST_HEAD + "left.csv,right.csv,0,1500,x\n"
                                      "left.csv,right.csv,0,1500,\n").encode()},
                           ["mlprep", "--manifest", "m.csv", "--out", "d.csv"], ["m.csv", "line 3", "label"]),
    "mlprep_short_row": ({"m.csv": (MANIFEST_HEAD + "left.csv,right.csv,0\n").encode()},
                         ["mlprep", "--manifest", "m.csv", "--out", "d.csv"], ["m.csv", "line 2"]),
    "negative_timestamp": ({"neg.csv": (CSV_HEADER + "\n-5" + ",0.0,200.0,0.0,0.0,1.0,0.0" + ",0.0" * 4
                                        + ",1.0" * 15 + "\n").encode()},
                           ["validate", "--left", "neg.csv", "--right", "right.csv"],
                           ["neg.csv", "line 2, column timestamp_ms: negative timestamp"]),
    # at 2**53 and above, float time arithmetic in the detector rounds: a window horizon can pass its newest sample
    "timestamp_past_2_63": (_late_canonical_pair(2**63), ["detect", "--left", "late_l.csv", "--right", "late_r.csv"],
                            ["late_l.csv", "line 2", "timestamp_ms"]),
    "timestamp_past_1e400": (_late_canonical_pair(10**400),
                             ["detect", "--left", "late_l.csv", "--right", "late_r.csv"],
                             ["late_l.csv", "line 2", "timestamp_ms"]),
    "nan_beside_blank_fingertip": ({"nan.csv": (CSV_HEADER + "\n0,nan,200.0,0.0,0.0,1.0,0.0" + ",0.0" * 4
                                                + ",,," + ",1.0" * 12 + "\n").encode()},
                                   ["validate", "--left", "nan.csv", "--right", "right.csv"],
                                   ["nan.csv", "line 2, column palm_x: non-finite value 'nan'"]),
    "noise_sigma_negative": ({"s.script": b"noise_sigma -1\nphase idle duration_s=1\n"},
                             ["synth", "--script", "s.script", "--out-left", "l.csv", "--out-right", "r.csv"],
                             ["s.script", "line 1", "noise_sigma must be non-negative"]),
    "rub_radius_negative": ({"s.script": b"phase rub_circular duration_s=1 rub_radius_mm=-1\n"},
                            ["synth", "--script", "s.script", "--out-left", "l.csv", "--out-right", "r.csv"],
                            ["s.script", "line 1", "rub radius must be non-negative"]),
    "fps_out_of_range": ({"s.script": b"phase idle duration_s=1\nfps 300\n"},
                         ["synth", "--script", "s.script", "--out-left", "l.csv", "--out-right", "r.csv"],
                         ["s.script", "line 2", "fps 300.0 outside [50, 200]"]),
    # each value is in range, but the rendered stream holds a value the writer refuses
    "rub_renders_huge_velocity": ({"s.script": b"phase rub_circular duration_s=1 rub_radius_mm=9e15\n"},
                                  ["synth", "--script", "s.script", "--out-left", "l.csv", "--out-right", "r.csv"],
                                  ["s.script", "vel_z", "is not below 1e+16 in magnitude"]),
    "noise_renders_huge_tip": ({"s.script": b"noise_sigma 9e15\nphase idle duration_s=1\n"
                                            b"phase facing_hold duration_s=1\n"},
                               ["synth", "--script", "s.script", "--out-left", "l.csv", "--out-right", "r.csv"],
                               ["s.script", "timestamp 1000", "is not below 1e+16 in magnitude"]),
    "phase_token_not_k_v": ({"s.script": b"phase idle duration_s=1 slowly\n"},
                            ["synth", "--script", "s.script", "--out-left", "l.csv", "--out-right", "r.csv"],
                            ["s.script", "line 1: expected k=v, got 'slowly'"]),
    "script_line_two_values": ({"s.script": b"phase idle duration_s=1\nfps 100 200\n"},
                               ["synth", "--script", "s.script", "--out-left", "l.csv", "--out-right", "r.csv"],
                               ["s.script", "line 2: expected 'fps value'"]),
    "circle_band_empty": ({"cfg.txt": b"circle_radius_min_mm 300\ncircle_radius_max_mm 250\n"},
                          ["detect", "--left", "left.csv", "--right", "right.csv", "--config", "cfg.txt"],
                          ["cfg.txt", "circle radius band is empty"]),
    "rub_band_empty": ({"cfg.txt": b"rub_freq_min_hz 4\n"},
                       ["detect", "--left", "left.csv", "--right", "right.csv", "--config", "cfg.txt"],
                       ["cfg.txt", "rub frequency band is empty"]),
    "mlprep_nul_in_path": ({"m.csv": (MANIFEST_HEAD + "left\x00.csv,right.csv,0,1500,x\n").encode()},
                           ["mlprep", "--manifest", "m.csv", "--out", "d.csv"], ["left\\x00.csv", "null"]),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_two_with_one_error_line(canonical_pair, tmp_path, monkeypatch, capsys, case):
    files, argv, fragments = BAD_INPUTS[case]
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    for fragment in fragments:
        assert fragment in err[0]


def _child_cli(argv, cwd):
    """Run hge in a child process, which shows what a user sees: numpy's warnings print to its stderr."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(hge.__file__).parents[1]),
                                                       os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "hge.cli", *argv], capture_output=True, text=True, env=env, cwd=cwd)


# file, columns set in every row from line 4 on, the cell, command: each once overflowed numpy past ingest
HUGE_CELLS = {
    "velocity": ("right.csv", ("vel_x",), "1e200", ["detect"]),
    "palm": ("left.csv", ("palm_x",), "-1e200", ["features", "--window-ms", "1500"]),
    "fingertip": ("left.csv", ("index_x", "index_y"), "1e200", ["features", "--window-ms", "1500"]),
}


class TestValidate:
    def test_ok(self, canonical_pair):
        lp, rp = canonical_pair
        assert run(["validate", "--left", lp, "--right", rp]) == 0

    def test_malformed_row_exits_two_and_names_line(self, canonical_pair, tmp_path, capsys):
        lp, rp = canonical_pair
        broken = tmp_path / "broken.csv"
        lines = Path(lp).read_text().splitlines()
        lines[3] = lines[3].replace(lines[3].split(",")[1], "abc", 1)
        broken.write_text("\n".join(lines) + "\n")
        code = run(["validate", "--left", str(broken), "--right", rp])
        assert code == 2
        err = capsys.readouterr().err
        assert "line 4" in err and "broken.csv" in err
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(MANIFEST_HEAD + f"broken.csv,{os.path.basename(rp)},0,1500,x\n")
        code = run(["mlprep", "--manifest", str(manifest), "--out", str(tmp_path / "d.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "line 4" in err and str(broken) in err

    def test_huge_normal_component_prints_one_error_line(self, canonical_pair, tmp_path):
        lp, rp = canonical_pair
        lines = Path(lp).read_text().splitlines()
        cells = lines[3].split(",")
        cells[4] = "1e200"      # normal_x
        lines[3] = ",".join(cells)
        huge = tmp_path / "huge.csv"
        huge.write_text("\n".join(lines) + "\n")
        done = _child_cli(["validate", "--left", str(huge), "--right", rp], tmp_path)
        assert done.returncode == 2
        err = done.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "line 4, column normal_x: value '1e200' is not below 1e+16 in magnitude" in err[0]

    @pytest.mark.parametrize("case", sorted(HUGE_CELLS))
    def test_huge_value_exits_two_without_a_warning(self, canonical_pair, tmp_path, case):
        name, columns, cell, argv = HUGE_CELLS[case]
        path = tmp_path / name
        lines = path.read_text().splitlines()
        for i in range(3, len(lines)):
            cells = lines[i].split(",")
            for column in columns:
                cells[CSV_HEADER.split(",").index(column)] = cell
            lines[i] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        done = _child_cli(argv + ["--left", "left.csv", "--right", "right.csv"], tmp_path)
        assert done.returncode == 2
        assert done.stderr.splitlines() == [
            f"error: {name}: line 4, column {columns[0]}: value {cell!r} is not below 1e+16 in magnitude"]

    def test_huge_script_value_exits_two_without_a_warning(self, tmp_path):
        (tmp_path / "s.script").write_text("phase facing_hold duration_s=1 separation_mm=1e300\n")
        done = _child_cli(["synth", "--script", "s.script", "--out-left", "l.csv", "--out-right", "r.csv"], tmp_path)
        assert done.returncode == 2
        assert done.stderr.splitlines() == [
            "error: s.script: line 1: facing_hold separation_mm 1e+300 is not below 1e+16 in magnitude"]
        assert not (tmp_path / "l.csv").exists()

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

    @pytest.mark.parametrize("cfg", [DEFAULT_CONFIG, replace(DEFAULT_CONFIG, stage_min_s=2.5, rub_freq_max_hz=3.3)])
    def test_config_text_round_trips(self, cfg):
        assert parse_config_text(config_to_text(cfg)) == cfg

    def test_config_comes_only_from_the_flag(self, canonical_pair, tmp_path, monkeypatch):
        lp, rp = canonical_pair
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("stage_min_s 5\n")
        # the environment names no config: a stale variable leaves the defaults in force
        monkeypatch.setenv("HGE_CONFIG", str(cfg))
        assert run(["detect", "--left", lp, "--right", rp]) == 0

    @pytest.mark.parametrize("name", [f.name for f in fields(EngineConfig)])
    def test_config_built_in_code_checks_every_field(self, name):
        # replace() runs the checks a config file meets, so a code-built config cannot run out of range
        for value in (math.nan, "1"):
            with pytest.raises(ConfigError, match=rf"^{name}\b"):
                replace(DEFAULT_CONFIG, **{name: value})

    @pytest.mark.parametrize("band, message", [
        ({"circle_radius_min_mm": 300.0, "circle_radius_max_mm": 250.0}, "circle radius band is empty"),
        ({"rub_freq_min_hz": 5.0}, "rub frequency band is empty"),
        ({"stage_min_s": 7.0}, "stage duration band is empty"),
    ])
    def test_config_built_in_code_rejects_an_empty_band(self, band, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            replace(DEFAULT_CONFIG, **band)

    def test_every_config_field_is_read(self):
        # no knob is parsed but never read: each field is read as `.name` outside config.py
        sources = "".join(path.read_text(encoding="utf-8") for path in Path(hge.__file__).parent.glob("*.py")
                          if path.name != "config.py")
        assert [f.name for f in fields(EngineConfig) if not re.search(rf"\.{f.name}\b", sources)] == []


class TestFeaturesCommand:
    def test_prints_window_lines(self, canonical_pair, capsys):
        lp, rp = canonical_pair
        assert run(["features", "--left", lp, "--right", rp, "--window-ms", "1000"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 5
        assert out[0].startswith("window 0 0 1000 orientation=FacingEachOther")
        assert "trajectory=Circular" in out[4] or "trajectory=Circular" in out[3]

    def test_windows_without_frames_are_not_printed(self, canonical_pair, capsys):
        lp, rp = canonical_pair
        lines = Path(lp).read_text().splitlines()
        lines[-1] = "100000000" + lines[-1][lines[-1].index(","):]   # one left record a day later
        with open(lp, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        assert run(["features", "--left", lp, "--right", rp, "--window-ms", "100"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 51
        assert [line.split()[1:4] for line in out[:2]] == [["0", "0", "100"], ["1", "100", "200"]]
        assert out[-1].startswith("window 1000000 100000000 100000100 insufficient")


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

    def test_label_with_comma_stays_one_cell(self, canonical_pair, tmp_path, capsys):
        lp, rp = canonical_pair
        manifest = tmp_path / "manifest.csv"
        pair = f"{os.path.basename(lp)},{os.path.basename(rp)}"
        manifest.write_text(MANIFEST_HEAD + f'{pair},0,1500,"a,b"\n{pair},2200,4800,"say ""rub"""\n')
        out_path = tmp_path / "dataset.csv"
        assert run(["mlprep", "--manifest", str(manifest), "--out", str(out_path)]) == 0
        with out_path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert [len(row) for row in rows] == [10, 10, 10]
        assert [row[-1] for row in rows[1:]] == ["a,b", 'say "rub"']

    def test_bad_manifest_exits_two(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("nope\n1\n")
        assert run(["mlprep", "--manifest", str(manifest), "--out", str(tmp_path / "d.csv")]) == 2


# -- any input at all ends in an exit code, never a traceback -----------------

_START_MS = st.sampled_from(["0", "1500", "-5", "x", "", "1e3"])
_END_MS = st.sampled_from(["1500", "3000", "0", "x", ""])
_MANIFEST_ROW = st.builds(
    lambda cells, n: ",".join(cells[:n]),
    st.tuples(st.sampled_from(["left.csv", "right.csv", "", "missing.csv", "left\x00.csv"]),
              st.sampled_from(["right.csv", "left.csv", ""]), _START_MS, _END_MS,
              st.sampled_from(["x", "", "a b"])),
    st.sampled_from([5, 6, 3]))
_MANIFEST = st.builds(lambda head, rows: "\n".join([head] + rows) + "\n",
                      st.sampled_from([MANIFEST_HEAD.strip(), "left_file,right_file", ""]),
                      st.lists(_MANIFEST_ROW, min_size=1, max_size=4))
_CONFIG = st.lists(st.sampled_from(["stage_min_s 3", "stage_min_s nan", "stage_max_s 1", "bogus 1",
                                    "stage_min_s", "# note", "facing_dwell_s 1e400", "rub_freq_min_hz 0x1"]),
                   max_size=3).map("\n".join)
# generate renders round(total_s * fps) frames, so the scripts that may pass stay
# short; a long phase takes any script past the 600 s bound, which must reject it
_SCRIPT_HEAD = st.lists(st.sampled_from(["fps 200", "seed 3", "noise_sigma 1", "occlusion none",
                                         "surviving_hand left", "# note"]), max_size=2)
_SCRIPT_PHASES = st.lists(st.sampled_from([
    "phase rub_circular duration_s=1.5", "phase facing_hold duration_s=0.5 separation_mm=20",
    "phase approach duration_s=1 start_separation_mm=150", "phase idle duration_s=0.5",
    "phase stage3_linear duration_s=1", "phase primitive duration_s=0.5 primitive_kind=circle",
    "phase approach duration_s=1 end_separation_mm=50 opposed_normals=no"]), min_size=1, max_size=3)
_BROKEN_SCRIPT_LINE = st.sampled_from([
    "phase idle duration_s=0", "phase idle duration_s=-1", "phase idle duration_s=nan",
    "phase idle duration_s=inf", "phase idle duration_s=x", "phase idle duration_s=1e400",
    "phase bogus duration_s=1", "phase primitive duration_s=1", "phase primitive duration_s=1 primitive_kind=bogus",
    "phase idle duration_s=1 bogus=1", "phase idle duration_s=1 noequals",
    "phase rub_circular duration_s=1 rub_radius_mm=-1", "phase approach duration_s=1 start_separation_mm=-5",
    "phase approach duration_s=1 end_separation_mm=200", "phase facing_hold duration_s=1 separation_mm=nan",
    "phase", "phase idle", "fps 0", "fps nan", "fps abc", "fps", "seed -1", "seed x", "noise_sigma -1",
    "noise_sigma inf", "occlusion bogus", "surviving_hand up"])
_LONG_PHASE = st.builds("phase {} duration_s={!r}".format, st.sampled_from(["idle", "rub_circular"]),
                        st.floats(1e3, 1e12))
_SCRIPT = st.builds(lambda head, phases, long, broken: "\n".join(head + phases + long + broken),
                    _SCRIPT_HEAD, _SCRIPT_PHASES, st.lists(_LONG_PHASE, max_size=1),
                    st.lists(_BROKEN_SCRIPT_LINE, max_size=1))


@lru_cache(maxsize=None)
def _valid_pair():
    stream, _ = generate(make_canonical_script(rub_duration_s=0.5))
    return tuple(text.encode() for text in write_csv_stream(stream))


def _content(text_strategy):
    """File bytes: mostly the strategy's text, else any text or any bytes."""
    choices = (text_strategy.map(str.encode), st.text().map(str.encode), st.binary(max_size=64))
    return st.sampled_from([0, 0, 0, 1, 2]).flatmap(choices.__getitem__)


_CLI_PROPERTY = settings(PROPERTY, max_examples=150)


@pytest.mark.parametrize("command", ["synth", "detect", "features", "mlprep", "validate"])
@_CLI_PROPERTY
@given(data=st.data())
def test_hge_never_raises(command, data):
    if data.draw(st.booleans()):
        left, right = _valid_pair()
    else:
        left, right = data.draw(_content(_csv_like())), data.draw(_content(_csv_like()))
    files = {"left.csv": left, "right.csv": right, "cfg.txt": data.draw(_content(_CONFIG))}
    config = ["--config", "cfg.txt"] if data.draw(st.booleans()) else []
    pair = ["--left", "left.csv", "--right", "right.csv"]
    if command == "synth":
        files["s.script"] = data.draw(_content(_SCRIPT))
        argv = ["synth", "--script", "s.script", "--out-left", "l.csv", "--out-right", "r.csv"]
    elif command == "detect":
        argv = ["detect"] + pair + config + ["--events", "e.txt", "--report", "r.txt"]
    elif command == "features":
        window = data.draw(st.sampled_from(["1500", "100", "1", "0", "-5"]))
        argv = ["features"] + pair + ["--window-ms", window] + config
    elif command == "mlprep":
        files["m.csv"] = data.draw(_content(_MANIFEST))
        argv = ["mlprep", "--manifest", "m.csv", "--out", "d.csv"] + config
    else:
        argv = ["validate"] + pair
    with tempfile.TemporaryDirectory() as workdir:
        for name, content in files.items():
            with open(os.path.join(workdir, name), "wb") as fh:
                fh.write(content)
        cwd = os.getcwd()
        os.chdir(workdir)
        try:
            assert run(argv) in (0, 1, 2, 3)
        finally:
            os.chdir(cwd)
