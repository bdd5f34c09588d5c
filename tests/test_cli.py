import hashlib
import json
import os

import numpy as np
import pytest

from edmcontrol import cli
from edmcontrol.analysis import JacobianSeries
from edmcontrol.cli import main
from edmcontrol.config import CONFIG_ENV_VAR, DEFAULTS, load_config, resolve
from edmcontrol.timeseries import read_frame_csv

SMALL_CFG = """
# small world for fast tests
grid_width = 20
grid_height = 20
n_citizens = 120
n_cops = 12
vision = 3
legitimacy = 0.7
jail_capacity = 60
warmup_ticks = 60
schedule_changes = 5
trapped_min_duration = 50
trapped_active_floor = 20
"""


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CFG)
    return str(path)


def run_cli(*argv):
    return main(list(argv))


def frame_digest(out):
    return hashlib.sha256((out / "frame.csv").read_bytes()).hexdigest()


# SHA-256 of frame.csv from `simulate --config SMALL_CFG --steps 300`, uncontrolled;
# they pin the simulator's output byte for byte.
GOLDEN_FRAMES = {
    ("constant", 0): "00a1e1ee1967632c1a803de3282296768a1430df638d4e50150f0e735fe162be",
    ("constant", 1): "b3fb3434d317ecacb21351d6ace955c8149676785e435fdfd6fdd4d179d63bd5",
    ("constant", 2): "b280c0d388f31079b853c3432b716594be68d0b80063256904c2e15fc6b61d7b",
    ("random", 0): "8ec638cb10e0411ea7a5aaefaf929200066882d6f53bb754c5fbe21821d6a735",
    ("random", 1): "0387d7d31daed123cb555522c76729ecb3b305f13a7f0b6e1d942efb0ffae64c",
    ("random", 2): "9846b047730d1eac946df6f950decb7d702fa2c68df905777564b2a5ba31d119",
}
# The ("random", 0) run with `jail_capacity = unlimited` added to the config file.
GOLDEN_UNLIMITED = "20ec0d51a83f5cca4c3954f63d7ac11ee6821d7701b0bb5aad2f4fbfafd58054"


class TestConfig:
    def test_load_and_merge(self, small_config):
        cfg = resolve(small_config)
        assert cfg["n_citizens"] == 120
        assert cfg["n_cops"] == 12
        assert cfg["p_max"] == DEFAULTS["p_max"]

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("no_such_key = 3\n")
        with pytest.raises(ValueError, match="unknown config key"):
            load_config(path)

    def test_unlimited_capacity_token(self, tmp_path):
        path = tmp_path / "cap.cfg"
        path.write_text("jail_capacity = unlimited\n")
        assert load_config(path)["jail_capacity"] is None

    @pytest.mark.parametrize("source", ["--set", "--config"])
    @pytest.mark.parametrize(
        "key,value", [("grid_width", "none"), ("cop_ratio_mode", "none"), ("grid_width", "4.5")]
    )
    def test_bad_value_exit_one_names_key(self, tmp_path, capsys, source, key, value):
        if source == "--set":
            flags = ("--set", f"{key}={value}")
        else:
            path = tmp_path / "bad.cfg"
            path.write_text(f"{key} = {value}\n")
            flags = ("--config", str(path))
        out = tmp_path / "run"
        assert run_cli("simulate", *flags, "--steps", "10", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert key in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_env_var_default(self, small_config, monkeypatch):
        monkeypatch.setenv(CONFIG_ENV_VAR, small_config)
        assert resolve()["n_citizens"] == 120

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("\n# comment\nvision = 4  # trailing\n")
        assert load_config(path) == {"vision": 4.0}

    def test_shipped_default_config_matches_builtins(self):
        import pathlib

        shipped = pathlib.Path(__file__).parent.parent / "configs" / "default.cfg"
        cfg = load_config(shipped)
        assert set(cfg) == set(DEFAULTS)
        for key, value in cfg.items():
            assert value == DEFAULTS[key], key


class TestSimulate:
    def test_writes_frame_and_manifest(self, small_config, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            "simulate", "--config", small_config, "--seed", "5", "--steps", "80",
            "--out", str(out),
        )
        assert code == 0
        frame = read_frame_csv(out / "frame.csv")
        assert len(frame) == 80
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["args"]["seed"] == 5
        assert manifest["outputs"] == ["frame.csv"]

    def test_same_seed_byte_identical(self, small_config, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli(
                "simulate", "--config", small_config, "--seed", "9", "--steps", "60",
                "--out", str(out),
            ) == 0
        assert (a / "frame.csv").read_bytes() == (b / "frame.csv").read_bytes()

    def test_replay_from_manifest_byte_identical(self, small_config, tmp_path):
        first = tmp_path / "first"
        assert run_cli(
            "simulate", "--config", small_config, "--seed", "3", "--steps", "70",
            "--legitimacy", "constant", "--out", str(first),
        ) == 0
        second = tmp_path / "second"
        assert run_cli("replay", str(first / "manifest.json"), "--out", str(second)) == 0
        assert (first / "frame.csv").read_bytes() == (second / "frame.csv").read_bytes()

    def test_seed_sweep_layout(self, small_config, tmp_path):
        out = tmp_path / "sweep"
        assert run_cli(
            "simulate", "--config", small_config, "--seeds", "2:5", "--steps", "40",
            "--out", str(out),
        ) == 0
        assert sorted(os.listdir(out)) == ["seed_2", "seed_3", "seed_4"]
        for s in (2, 3, 4):
            assert (out / f"seed_{s}" / "frame.csv").exists()

    def test_bad_config_exit_one_no_partial_output(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("vision = -2\n")
        out = tmp_path / "run"
        code = run_cli("simulate", "--config", str(bad), "--steps", "10", "--out", str(out))
        assert code == 1
        assert not (out / "frame.csv").exists()
        assert not (out / "manifest.json").exists()

    def test_usage_error_exit_one(self, tmp_path):
        assert run_cli("simulate", "--seeds", "9:3", "--out", str(tmp_path / "x")) == 1

    def test_failing_writer_leaves_no_output(self, small_config, tmp_path, monkeypatch):
        def write_part_then_fail(frame, path):
            with open(path, "w") as fh:
                fh.write("time,quiet\n1,")
            raise OSError("disk full")

        monkeypatch.setattr(cli, "write_frame_csv", write_part_then_fail)
        out = tmp_path / "run"
        code = run_cli("simulate", "--config", small_config, "--steps", "20", "--out", str(out))
        assert code == 2
        assert os.listdir(out) == []


class TestGoldenFrames:
    @pytest.mark.parametrize("legitimacy,seed", sorted(GOLDEN_FRAMES))
    def test_frame_digest(self, small_config, tmp_path, legitimacy, seed):
        out = tmp_path / "run"
        assert run_cli(
            "simulate", "--config", small_config, "--seed", str(seed), "--steps", "300",
            "--legitimacy", legitimacy, "--out", str(out),
        ) == 0
        assert frame_digest(out) == GOLDEN_FRAMES[legitimacy, seed]

    def test_unlimited_capacity_from_file_and_set(self, small_config, tmp_path):
        unlimited = tmp_path / "unlimited.cfg"
        unlimited.write_text(SMALL_CFG + "jail_capacity = unlimited\n")
        sources = {
            "file": ("--config", str(unlimited)),
            "set": ("--config", small_config, "--set", "jail_capacity=unlimited"),
        }
        for name, flags in sources.items():
            out = tmp_path / name
            assert run_cli(
                "simulate", *flags, "--seed", "0", "--steps", "300",
                "--legitimacy", "random", "--out", str(out),
            ) == 0
            assert frame_digest(out) == GOLDEN_UNLIMITED, name


class TestScan:
    def test_generate_mode_e_scan(self, small_config, tmp_path):
        out = tmp_path / "scan"
        code = run_cli(
            "scan", "--mode", "E", "--generate", "--config", small_config,
            "--seed", "1", "--steps", "400", "--e-max", "4", "--tp", "2",
            "--out", str(out),
        )
        assert code == 0
        lines = (out / "scan.csv").read_text().splitlines()
        assert lines[0] == "E,rho,mae,rmse,n"
        assert len(lines) == 5

    def test_data_mode_requires_column(self, small_config, tmp_path):
        # constant series: degenerate markers, exit 0 with warning
        run_dir = tmp_path / "run"
        run_cli(
            "simulate", "--config", small_config, "--seed", "2", "--steps", "300",
            "--out", str(run_dir),
        )
        out = tmp_path / "scan"
        code = run_cli(
            "scan", "--mode", "E", "--data", str(run_dir / "frame.csv"),
            "--column", "propaganda", "--e-max", "3", "--tp", "1", "--out", str(out),
        )
        assert code == 0
        text = (out / "scan.csv").read_text()
        assert "nan" in text

    def test_needs_data_or_generate(self, tmp_path):
        assert run_cli("scan", "--mode", "E", "--out", str(tmp_path / "s")) == 1

    # flags that only a --generate run reads
    @pytest.mark.parametrize("flag", ["--config", "--set", "--generate", "--seed", "--steps"])
    def test_data_mode_rejects_config_flags(self, small_config, tmp_path, capsys, flag):
        run_dir = tmp_path / "run"
        run_cli(
            "simulate", "--config", small_config, "--seed", "2", "--steps", "300",
            "--out", str(run_dir),
        )
        values = {
            "--config": (str(tmp_path / "nonexistent.cfg"),),
            "--set": ("jail_capacity=bogus",),
            "--generate": (),
            "--seed": ("5",),
            "--steps": ("999",),
        }
        out = tmp_path / "scan"
        code = run_cli(
            "scan", "--mode", "E", "--data", str(run_dir / "frame.csv"), "--e-max", "3",
            flag, *values[flag], "--out", str(out),
        )
        assert code == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "mode,flags",
        [
            ("E", ("--e", "4")),
            ("E", ("--tp-max", "3")),
            ("Tp", ("--e", "2", "--e-max", "3")),
            ("Tp", ("--e", "2", "--tp", "3")),
            ("theta", ("--e", "2", "--e-max", "3")),
            ("theta", ("--e", "2", "--tp-max", "3")),
        ],
    )
    def test_mode_rejects_unused_flags(self, small_config, tmp_path, capsys, mode, flags):
        out = tmp_path / "scan"
        code = run_cli(
            "scan", "--mode", mode, "--generate", "--config", small_config, "--steps", "300",
            *flags, "--out", str(out),
        )
        assert code == 1
        assert flags[-2] in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_records_only_flags_the_mode_reads(self, small_config, tmp_path):
        run_dir = tmp_path / "run"
        run_cli(
            "simulate", "--config", small_config, "--seed", "2", "--steps", "300",
            "--out", str(run_dir),
        )
        reads = {"E": {"e_max", "tp"}, "Tp": {"e", "tp_max"}, "theta": {"e", "tp"}}
        for mode, flags in (("E", ()), ("Tp", ("--e", "2")), ("theta", ("--e", "2"))):
            out = tmp_path / mode
            code = run_cli(
                "scan", "--mode", mode, "--data", str(run_dir / "frame.csv"), *flags,
                "--out", str(out),
            )
            assert code == 0
            args = json.loads((out / "manifest.json").read_text())["args"]
            assert set(args) == {"mode", "data", "column", "split"} | reads[mode]

    def test_theta_mode_requires_e(self, tmp_path):
        assert (
            run_cli("scan", "--mode", "theta", "--generate", "--out", str(tmp_path / "s")) == 1
        )


class TestForecast:
    @pytest.fixture
    def run_csv(self, small_config, tmp_path):
        out = tmp_path / "gen"
        run_cli(
            "simulate", "--config", small_config, "--seed", "4", "--steps", "500",
            "--out", str(out),
        )
        return str(out / "frame.csv")

    def test_forecast_outputs(self, run_csv, tmp_path):
        out = tmp_path / "fc"
        code = run_cli(
            "forecast", "--data", run_csv, "--coords", "jailed:0,jailed:1,quiet:0",
            "--target", "active", "--tp", "2", "--lib", "1:250", "--pred", "260:490",
            "--theta", "2", "--out", str(out),
        )
        assert code == 0
        lines = (out / "predictions.csv").read_text().splitlines()
        assert lines[0] == "time,predicted,observed"
        skill = json.loads((out / "skill.json").read_text())
        assert skill["n"] == len(lines) - 1
        assert -1.0 <= skill["rho"] <= 1.0

    def test_prediction_row_count_matches_range(self, run_csv, tmp_path):
        out = tmp_path / "fc2"
        run_cli(
            "forecast", "--data", run_csv, "--coords", "jailed:0,quiet:0",
            "--target", "active", "--tp", "1", "--lib", "1:200", "--pred", "301:400",
            "--theta", "0", "--out", str(out),
        )
        lines = (out / "predictions.csv").read_text().splitlines()
        assert len(lines) - 1 == 100

    def test_empty_pred_range_data_error(self, run_csv, tmp_path):
        code = run_cli(
            "forecast", "--data", run_csv, "--coords", "jailed:0",
            "--target", "active", "--tp", "1", "--lib", "1:200", "--pred", "800:900",
            "--out", str(tmp_path / "fc3"),
        )
        assert code == 1  # empty partition is a range/configuration error

    @pytest.mark.parametrize("flag", ["--config", "--set"])
    def test_config_flags_rejected(self, run_csv, small_config, tmp_path, capsys, flag):
        value = small_config if flag == "--config" else "jail_capacity=bogus"
        out = tmp_path / "fc5"
        code = run_cli(
            "forecast", "--data", run_csv, "--coords", "jailed:0,quiet:0", "--tp", "1",
            "--lib", "1:200", "--pred", "301:400", "--theta", "0", flag, value,
            "--out", str(out),
        )
        assert code == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_missing_data_file_exit_two(self, tmp_path):
        code = run_cli(
            "forecast", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "fc4"),
        )
        assert code == 2


class TestAnalyze:
    def test_trapped_and_jacobian(self, small_config, tmp_path):
        gen = tmp_path / "gen"
        run_cli(
            "simulate", "--config", small_config, "--seed", "6", "--steps", "400",
            "--control", "on", "--legitimacy", "random", "--out", str(gen),
        )
        out = tmp_path / "analysis"
        code = run_cli(
            "analyze", "--data", str(gen / "frame.csv"), "--jacobian", "--trapped",
            "--partition", "--config", small_config, "--out", str(out),
        )
        assert code == 0
        assert (out / "jacobian.csv").read_text().splitlines()[0] == "time,coef"
        assert (out / "trapped.csv").read_text().splitlines()[0] == "start,end"
        variance = (out / "variance.csv").read_text().splitlines()
        assert variance[0] == "window_start,legitimacy_regime,variance"

    def test_partition_reports_skipped_windows(self, small_config, tmp_path, capsys, monkeypatch):
        gen = tmp_path / "gen"
        run_cli(
            "simulate", "--config", small_config, "--seed", "6", "--steps", "400",
            "--legitimacy", "random", "--out", str(gen),
        )
        times = read_frame_csv(gen / "frame.csv").time[10:]
        coef = np.ones(times.size)
        coef[5] = np.nan  # only the first window covers it
        monkeypatch.setattr(
            cli, "interaction_coefficients",
            lambda frame, theta: JacobianSeries(times=times, coef=coef, theta=theta),
        )
        out = tmp_path / "analysis"
        code = run_cli(
            "analyze", "--data", str(gen / "frame.csv"), "--partition",
            "--config", small_config, "--out", str(out),
        )
        assert code == 0
        err = capsys.readouterr().err.splitlines()
        assert err == ["warning: 1 variance window(s) skipped (non-finite coefficients)"]

    def test_requires_a_flag(self, tmp_path):
        assert run_cli("analyze", "--data", "x.csv", "--out", str(tmp_path / "a")) == 1

    @pytest.mark.parametrize(
        "content",
        ["time,active\n1,abc\n", "tick,active\n1,3\n", "time,active\n1,3,4\n", ""],
        ids=["non_numeric", "no_time_header", "field_count", "empty"],
    )
    def test_bad_frame_csv_exit_two(self, tmp_path, content):
        data = tmp_path / "bad.csv"
        data.write_text(content)
        out = tmp_path / "analysis"
        assert run_cli("analyze", "--data", str(data), "--trapped", "--out", str(out)) == 2
        assert os.listdir(out) == []


class TestExportComparison:
    def test_export_shapes_and_determinism(self, small_config, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            code = run_cli(
                "export-comparison", "--config", small_config, "--seed", "8",
                "--steps", "300", "--train", "1:150", "--test", "161:300",
                "--out", str(out),
            )
            assert code == 0
        train = (a / "train.csv").read_text().splitlines()
        test = (a / "test.csv").read_text().splitlines()
        header = train[0].split(",")
        assert header[0] == "time"
        assert header[1:] == [
            "jailed(t)", "jailed(t-2)", "jailed(t-4)",
            "quiet(t)", "quiet(t-2)", "quiet(t-4)", "active",
        ]
        # embedding margin: origins start at max lag + 1 = tick 5
        assert train[1].split(",")[0] == "5"
        assert len(train) - 1 == 150 - 4  # ticks 5..150
        assert len(test) - 1 == 300 - 160 - 5  # ticks 161..295
        assert (a / "train.csv").read_bytes() == (b / "train.csv").read_bytes()
        assert (a / "test.csv").read_bytes() == (b / "test.csv").read_bytes()
