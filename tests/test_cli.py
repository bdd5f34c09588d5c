import hashlib
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from edmcontrol import cli
from edmcontrol.analysis import JacobianSeries
from edmcontrol.cli import main
from edmcontrol.config import _OWNERS, CONFIG_ENV_VAR, DEFAULTS, load_config, resolve
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


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    # scipy.stats is most of the package's import time; only exponential_gof needs it
    code = "import sys, edmcontrol.cli\nassert 'scipy.stats' not in sys.modules\n"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_a_controlled_run_loads_no_scipy():
    # neither the ABM's neighbour counts nor the controller needs scipy; a
    # lazy import in the step would only move the import's cost into it
    code = (
        "import sys, edmcontrol.cli\n"
        "from edmcontrol.config import resolve\n"
        "from edmcontrol.scenarios import standard_run\n"
        "cfg = resolve(None, dict(grid_width=20, grid_height=20, n_citizens=120, n_cops=12,"
        " vision=3.0, jail_capacity=60, warmup_ticks=60, schedule_changes=5))\n"
        "frame = standard_run(cfg, seed=0, steps=90, control=True, legitimacy_mode='random')\n"
        "assert (frame.column('propaganda')[61:] != frame.column('propaganda')[0]).any()\n"
        "loaded = sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
    )
    env = {k: v for k, v in os.environ.items() if k != CONFIG_ENV_VAR}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env
    )
    assert proc.returncode == 0, proc.stderr


def run_cli(*argv):
    return main(list(argv))


def frame_digest(out):
    return hashlib.sha256((out / "frame.csv").read_bytes()).hexdigest()


def recorded_argv(out):
    return json.loads((out / "manifest.json").read_text())["argv"]


def recorded_settings(argv):
    """The ``--set key=value`` pairs of a recorded command line, as strings."""
    return dict(argv[i + 1].split("=", 1) for i, arg in enumerate(argv) if arg == "--set")


def replay_with(tmp_path, argv, name="edited"):
    """Replay a manifest that records ``argv``; return the exit code and the output path."""
    manifest = tmp_path / f"{name}.json"
    manifest.write_text(json.dumps({"argv": argv}))
    out = tmp_path / f"{name}_replay"
    return run_cli("replay", str(manifest), "--out", str(out)), out


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
        "key,value",
        [
            ("grid_width", "none"),
            ("grid_width", "4.5"),
            ("jail_capacity", "-5"),
            ("max_jail_term", str(2**32)),
        ],
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
        assert manifest["argv"][:3] == ["simulate", "--seed=5", "--steps=80"]
        assert "command" not in manifest and "args" not in manifest
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

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("args", "bogus", 1),
            ("config", "not_a_key", 3),
            ("args", "steps", "abc"),
            ("args", "control", 1),
            ("config", "n_cops", "many"),
            ("config", "grid_width", 4.5),
        ],
    )
    def test_replay_refuses_what_it_cannot_apply(
        self, small_config, tmp_path, capsys, section, key, value
    ):
        # each case is an edit appended to the recorded command line: a flag
        # (section "args") or a --set key (section "config")
        first = tmp_path / "first"
        assert run_cli(
            "simulate", "--config", small_config, "--steps", "20", "--out", str(first)
        ) == 0
        edit = [f"--{key}={value}"] if section == "args" else ["--set", f"{key}={value}"]
        capsys.readouterr()
        code, second = replay_with(tmp_path, recorded_argv(first) + edit)
        assert code == 2
        err = capsys.readouterr().err
        assert key in err
        assert "Traceback" not in err
        assert not second.exists()

    def test_replay_refuses_a_flag_the_scan_mode_does_not_read(self, tmp_path, capsys):
        data = tmp_path / "frame.csv"
        n = 120
        data.write_text("time,active\n" + "".join(f"{t},{(t * 7) % 11}\n" for t in range(1, n + 1)))
        first = tmp_path / "first"
        assert run_cli(
            "scan", "--mode", "E", "--data", str(data), "--e-max", "2", "--out", str(first)
        ) == 0
        code, second = replay_with(tmp_path, recorded_argv(first) + ["--tp-max=4"])
        assert code == 2
        assert "--tp-max" in capsys.readouterr().err
        assert not second.exists()

    def test_replay_refuses_a_set_key_the_run_does_not_read(self, small_config, tmp_path, capsys):
        first = tmp_path / "first"
        assert run_cli(
            "simulate", "--config", small_config, "--steps", "20", "--control", "off",
            "--out", str(first),
        ) == 0
        code, second = replay_with(tmp_path, recorded_argv(first) + ["--set", "theta=9"])
        assert code == 2
        assert "--set theta" in capsys.readouterr().err
        assert not second.exists()

    @pytest.mark.parametrize(
        "manifest",
        [
            {"command": "simulate", "args": {"seed": 0, "steps": 20}},
            {"argv": "simulate --steps=20"},
            {"argv": ["replay", "other/manifest.json"]},
            {"argv": ["simulate", "--help"]},
        ],
        ids=["command_and_args", "argv_string", "argv_replay", "argv_help"],
    )
    def test_replay_refuses_a_manifest_without_a_command_line(self, tmp_path, capsys, manifest):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        out = tmp_path / "replay"
        assert run_cli("replay", str(path), "--out", str(out)) == 2
        assert "argv" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "--seed", "1", "--steps", "120", "--control", "on",
             "--legitimacy", "random"),
            ("scan", "--mode", "E", "--generate", "--seed", "1", "--steps", "300",
             "--e-max", "3", "--tp", "2"),
        ],
        ids=["simulate", "scan_generate"],
    )
    def test_replay_ignores_the_config_environment(
        self, small_config, tmp_path, monkeypatch, argv
    ):
        # every key the run reads is recorded, so another default config file
        # cannot change what a manifest replays to
        monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
        first = tmp_path / "first"
        assert run_cli(*argv, "--config", small_config, "--out", str(first)) == 0
        other = tmp_path / "other.cfg"
        other.write_text("vision = 2\nwarmup_ticks = 99\nn_cops = 30\nlegitimacy = 0.5\n")
        monkeypatch.setenv(CONFIG_ENV_VAR, str(other))
        second = tmp_path / "second"
        assert run_cli("replay", str(first / "manifest.json"), "--out", str(second)) == 0
        for name in json.loads((first / "manifest.json").read_text())["outputs"]:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_recorded_set_keys_are_the_keys_the_run_reads(
        self, small_config, tmp_path, monkeypatch
    ):
        # criterion 9's runs and analyze: the recorded --set keys are the
        # keys each run reads, and parsing them gives back the run's config
        monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
        frame_csv = str(tmp_path / "sim" / "frame.csv")
        runs = {
            "sim": (
                ("simulate", "--seed", "3", "--steps", "200", "--control", "on",
                 "--legitimacy", "random"),
                cli._run_keys(True, "random"),
            ),
            "scan": (
                ("scan", "--mode", "E", "--generate", "--seed", "1", "--steps", "300",
                 "--e-max", "3", "--tp", "2"),
                cli._run_keys(False, "constant"),
            ),
            "export": (
                ("export-comparison", "--seed", "2", "--steps", "300", "--train", "1:150",
                 "--test", "161:300"),
                cli._run_keys(False, "random-full"),
            ),
            "forecast": (
                ("forecast", "--data", frame_csv, "--coords", "jailed:0,quiet:0",
                 "--target", "active", "--tp", "1", "--lib", "1:100", "--pred", "111:190",
                 "--theta", "1"),
                frozenset(),
            ),
            "analyze": (
                ("analyze", "--data", frame_csv, "--jacobian", "--partition", "--trapped"),
                frozenset().union(*cli._ANALYZE_KEYS.values()),
            ),
        }
        for name, (argv, keys) in runs.items():
            config = ("--config", small_config) if keys else ()
            assert run_cli(*argv, *config, "--out", str(tmp_path / name)) == 0, name
            recorded = recorded_argv(tmp_path / name)
            assert set(recorded_settings(recorded)) == keys, name
            if keys:
                ns = cli.build_parser().parse_args([*recorded, "--out", "unused"])
                replayed = resolve(ns.config, cli._config_overrides(ns, name, keys))
                typed = resolve(small_config)
                assert {k: replayed[k] for k in keys} == {k: typed[k] for k in keys}, name

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_each_sweep_manifest_replays_its_seed(self, small_config, tmp_path, jobs):
        out = tmp_path / "sweep"
        assert run_cli(
            "simulate", "--config", small_config, "--seeds", "0:3", "--steps", "40",
            "--jobs", jobs, "--out", str(out),
        ) == 0
        for s in range(3):
            seed_dir = out / f"seed_{s}"
            assert recorded_argv(seed_dir)[1] == f"--seed={s}"
            replayed = tmp_path / f"replay_{s}"
            assert run_cli("replay", str(seed_dir / "manifest.json"), "--out", str(replayed)) == 0
            assert frame_digest(replayed) == frame_digest(seed_dir)

    def test_sweep_with_a_config_file_reads_no_default_config(
        self, small_config, tmp_path, monkeypatch
    ):
        broken = tmp_path / "broken.cfg"
        broken.write_text("not_a_key = 1\n")
        monkeypatch.setenv(CONFIG_ENV_VAR, str(broken))
        out = tmp_path / "sweep"
        assert run_cli(
            "simulate", "--config", small_config, "--seeds", "0:2", "--steps", "30",
            "--out", str(out),
        ) == 0
        assert sorted(os.listdir(out)) == ["seed_0", "seed_1"]

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

    @pytest.mark.parametrize(
        "flags, named",
        [
            (("--seed", "5", "--seeds", "0:2"), ("--seed", "--seeds")),
            (("--seeds", "0:2", "--seed", "0"), ("--seed", "--seeds")),
            (("--seeds", "0:2", "--jobs", "0"), ("--jobs",)),
            (("--seeds", "0:2", "--jobs", "-3"), ("--jobs",)),
            (("--seed", "5", "--jobs", "4"), ("--jobs",)),
            (("--jobs", "1"), ("--jobs",)),
        ],
        ids=["seed_seeds", "seeds_seed_0", "jobs_0", "jobs_negative", "jobs_seed", "jobs_alone"],
    )
    def test_seed_and_jobs_misuse_exit_one(self, small_config, tmp_path, capsys, flags, named):
        out = tmp_path / "run"
        code = run_cli(
            "simulate", "--config", small_config, *flags, "--steps", "20", "--out", str(out)
        )
        assert code == 1
        err = capsys.readouterr().err
        for flag in named:
            assert re.search(rf"{flag}(?![\w-])", err), (flag, err)
        assert not out.exists()

    def test_parallel_sweep_matches_serial(self, small_config, tmp_path):
        for name, jobs in (("serial", ()), ("parallel", ("--jobs", "2"))):
            assert run_cli(
                "simulate", "--config", small_config, "--seeds", "0:2", "--steps", "30",
                *jobs, "--out", str(tmp_path / name),
            ) == 0
        for s in (0, 1):
            serial, parallel = (tmp_path / name / f"seed_{s}" for name in ("serial", "parallel"))
            assert frame_digest(serial) == frame_digest(parallel)

    @pytest.mark.parametrize(
        "setting, seeds",
        [
            ("jacobian_theta=0.5", ["--seed", "0"]),
            ("trapped_min_duration=3", ["--seed", "0"]),
            ("outburst_floor=5", ["--seed", "0"]),
            ("jacobian_window=40", ["--seeds", "0:2"]),
            ("legitimacy_threshold=0.5", ["--seeds", "0:2"]),
        ],
    )
    def test_set_analysis_key_exit_one(self, small_config, tmp_path, capsys, setting, seeds):
        out = tmp_path / "run"
        code = run_cli(
            "simulate", "--config", small_config, *seeds, "--steps", "70",
            "--set", setting, "--out", str(out),
        )
        assert code == 1
        assert f"--set {setting.split('=')[0]}" in capsys.readouterr().err
        assert not out.exists()

    def test_analysis_keys_are_the_keys_a_run_never_reads(self, small_config, tmp_path):
        # every command that runs the world rejects on --set exactly the keys
        # its run does not read, and the analyses' keys are never read
        read = set()

        class Recording(dict):
            def __getitem__(self, key):
                read.add(key)
                return super().__getitem__(key)

        def keys_read(run, *argv):
            read.clear()
            ns = cli.build_parser().parse_args([*argv, "--out", str(tmp_path / "run")])
            run(ns, Recording(resolve(small_config)), cli._Outputs(ns.out))
            return set(read)

        analysis_keys = {
            key for key, (owner, _) in _OWNERS.items() if owner.__module__ == "edmcontrol.analysis"
        }
        assert cli._run_keys(True, "random") == set(DEFAULTS) - analysis_keys
        for legitimacy in ("constant", "random", "random-full"):
            for control in ("on", "off"):
                argv = ("simulate", "--seed=0", "--steps=80", f"--control={control}",
                        f"--legitimacy={legitimacy}")
                want = cli._run_keys(control == "on", legitimacy)
                assert keys_read(cli._simulate_one, *argv) == want, argv
            argv = ("export-comparison", "--steps=300", f"--legitimacy={legitimacy}",
                    "--train=1:150", "--test=161:300")
            assert keys_read(cli._export_comparison, *argv) == cli._run_keys(False, legitimacy)
        argv = ("scan", "--mode=E", "--generate", "--e-max=2", "--tp=1", "--seed=0", "--steps=300")
        assert keys_read(cli._scan, *argv) == cli._run_keys(False, "constant")

    @pytest.mark.parametrize(
        "argv, key",
        [
            (("simulate", "--steps", "70"), "theta"),
            (("simulate", "--steps", "70", "--legitimacy", "random"), "p_max"),
            (("simulate", "--steps", "70", "--control", "on"), "schedule_changes"),
            (("simulate", "--steps", "70", "--legitimacy", "random-full"), "warmup_ticks"),
            (("export-comparison", "--steps", "300", "--train", "1:150", "--test", "161:300"),
             "theta"),
            (("scan", "--mode", "E", "--generate", "--steps", "300", "--e-max", "3"), "theta"),
            (("scan", "--mode", "Tp", "--generate", "--steps", "300", "--e", "2"),
             "jacobian_theta"),
            (("scan", "--mode", "theta", "--generate", "--steps", "300", "--e", "2"),
             "legitimacy_low"),
        ],
    )
    def test_set_key_the_run_does_not_read_exit_one(
        self, small_config, tmp_path, capsys, argv, key
    ):
        out = tmp_path / "run"
        code = run_cli(
            *argv, "--config", small_config, "--set", f"{key}={DEFAULTS[key]}", "--out", str(out)
        )
        assert code == 1
        assert f"--set {key}" in capsys.readouterr().err
        assert not out.exists()

    def test_set_keys_the_run_reads_take_effect(self, small_config, tmp_path):
        frames = {}
        settings = ("--set", "schedule_changes=3", "--set", "warmup_ticks=70")
        for name, flags in (("base", ()), ("set", settings)):
            out = tmp_path / name
            assert run_cli(
                "simulate", "--config", small_config, "--steps", "120", "--legitimacy", "random",
                *flags, "--out", str(out),
            ) == 0
            frames[name] = read_frame_csv(out / "frame.csv").column("legitimacy")
        assert not np.array_equal(frames["base"], frames["set"])

    def test_failing_writer_leaves_no_output(self, small_config, tmp_path, monkeypatch):
        def write_part_then_fail(frame, path):
            with open(path, "w") as fh:
                fh.write("time,quiet\n1,")
            raise OSError("disk full")

        monkeypatch.setattr(cli, "write_frame_csv", write_part_then_fail)
        out = tmp_path / "run"
        code = run_cli("simulate", "--config", small_config, "--steps", "20", "--out", str(out))
        assert code == 2
        assert not out.exists()


    def test_out_path_that_is_a_file_exit_two_before_running(
        self, small_config, tmp_path, monkeypatch
    ):
        runs = []
        monkeypatch.setattr(cli, "standard_run", lambda *args, **kwargs: runs.append(args))
        out = tmp_path / "taken"
        out.write_text("mine\n")
        code = run_cli("simulate", "--config", small_config, "--steps", "20", "--out", str(out))
        assert code == 2
        assert runs == []
        assert out.read_text() == "mine\n"


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


# SHA-256 of frame.csv from `simulate --config SMALL_CFG --steps 300 --control on`;
# they pin the closed loop (ABM, controller library and S-map) byte for byte.
GOLDEN_CONTROLLED_FRAMES = {
    ("constant", 0): "8b3f5f65bfd7b857613619a0db08a74579abcd1191359d427420c0afb164d092",
    ("constant", 1): "6abc6a65ba47966308b8506581c6c2ddf8bf70a2fadb16f1e015bca535d9971c",
    ("constant", 2): "700e4a74c4c737e84a25c3b8d8e76088acb9c7f0692b210f818f90cdacb8276c",
    ("random", 0): "9f4833c3577be5bf1dad5f4c35e8dcbf62f25d2610c2b166e087491079244350",
    ("random", 1): "45b65ea01e10c2536626b3f3ec68195a0ed3fcdad071dbdfa2273cfb2dfcf319",
    ("random", 2): "1315904f9f83432eed719006116cb192f2e6a94b26c3694ac8a5d55a8f6a64e2",
}


class TestGoldenControlledFrames:
    @pytest.mark.parametrize("legitimacy,seed", sorted(GOLDEN_CONTROLLED_FRAMES))
    def test_frame_digest(self, small_config, tmp_path, legitimacy, seed):
        out = tmp_path / "run"
        assert run_cli(
            "simulate", "--config", small_config, "--seed", str(seed), "--steps", "300",
            "--control", "on", "--legitimacy", legitimacy, "--out", str(out),
        ) == 0
        assert frame_digest(out) == GOLDEN_CONTROLLED_FRAMES[legitimacy, seed]

# SHA-256 of scan.csv from `scan --generate --config SMALL_CFG --steps 400` with
# `--mode E --e-max 6 --tp 2` and `--mode Tp --e 3 --tp-max 6`; they pin the
# skill scans on an integer (Active count) series byte for byte.
GOLDEN_SCANS = {
    ("E", 0): "fda2480cdbf466917e1de6688a9126d5b4bcced466167ed5de002b3be94fc90f",
    ("E", 1): "d69c571b34d797c62057f7c41c35f446b8ee08e7b42c526f62eaf1870d345c20",
    ("E", 2): "92d5ca5a7b625afc60b1a9f9d53934d374f9e37168a6b42516cce7603a5e699c",
    ("Tp", 0): "eb500da10ccc6805d731d6a4dcf5e509ca5cea8bfbd9bf140a573cbb086ebca1",
    ("Tp", 1): "c9ca64ce098f3ccd424a84283fb3588277dcac8daea12693a0fbf7bd4af869e9",
    ("Tp", 2): "1eded6923fc2d2d1cff5565bf2cafe570129eda81d7c135333e45718dc3a9373",
}


class TestGoldenScans:
    @pytest.mark.parametrize("mode,seed", sorted(GOLDEN_SCANS))
    def test_scan_digest(self, small_config, tmp_path, mode, seed):
        grid = {"E": ("--e-max", "6", "--tp", "2"), "Tp": ("--e", "3", "--tp-max", "6")}[mode]
        out = tmp_path / "scan"
        assert run_cli(
            "scan", "--mode", mode, "--generate", "--config", small_config, "--seed", str(seed),
            "--steps", "400", *grid, "--out", str(out),
        ) == 0
        digest = hashlib.sha256((out / "scan.csv").read_bytes()).hexdigest()
        assert digest == GOLDEN_SCANS[mode, seed]


# SHA-256 of jacobian.csv, variance.csv and trapped.csv from `analyze --jacobian
# --partition --trapped --set trapped_active_floor=10 --set trapped_min_duration=20`
# on `simulate --config SMALL_CFG --steps 400 --control on --legitimacy random`;
# the lower trapped settings give the controlled runs intervals to detect.
GOLDEN_ANALYSIS = {
    0: (
        "d9654d7a0b153513c09b39b99059ccd4263769abc7315f3c59cc0b94bff69d3b",
        "fa94350562feb928bd54d857eba507d181a815ab814d2bdccceb0a5258065c75",
        "f383307554fa78ce2b834614adc9f5da08838b8b2c2a2ff79fd5005e24ffd375",
    ),
    1: (
        "30af44c62c693aab91210f7af296408583e82aac4f5fedb0b03db107b5f2e673",
        "2d4998821ee8e014c955572313d63c4e71f6aa9d047bf8395ded68cd29d97044",
        "34cd7f2414ecc7510b786f41466ff405d58619482338c2d387d73ed0e4dba759",
    ),
    2: (
        "707a42e8ee0bf213c58d62d6ff7ffceb3c5a16e12199a12ccaae507a3e312a86",
        "9a462f71dffc643cf65e8d41ec76900ff24c6c34f76097ed18238ca7585d6e1b",
        "096a06ea01b1d7ef871bbba26caa916cf577cb57b639e00e250ad23420cd3ac1",
    ),
}


class TestGoldenAnalysis:
    @pytest.mark.parametrize("seed", sorted(GOLDEN_ANALYSIS))
    def test_analysis_digests(self, small_config, tmp_path, seed):
        gen = tmp_path / "gen"
        assert run_cli(
            "simulate", "--config", small_config, "--seed", str(seed), "--steps", "400",
            "--control", "on", "--legitimacy", "random", "--out", str(gen),
        ) == 0
        out = tmp_path / "analysis"
        assert run_cli(
            "analyze", "--data", str(gen / "frame.csv"), "--jacobian", "--partition", "--trapped",
            "--config", small_config, "--set", "trapped_active_floor=10",
            "--set", "trapped_min_duration=20", "--out", str(out),
        ) == 0
        digests = tuple(
            hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("jacobian.csv", "variance.csv", "trapped.csv")
        )
        assert digests == GOLDEN_ANALYSIS[seed]


class TestScan:
    @pytest.mark.parametrize(
        "mode,flags", [("E", ("--e-max", "0")), ("Tp", ("--e", "2", "--tp-max", "0"))]
    )
    def test_empty_grid_exit_one(self, small_config, tmp_path, capsys, mode, flags):
        out = tmp_path / "scan"
        code = run_cli(
            "scan", "--mode", mode, "--generate", "--config", small_config, "--steps", "300",
            *flags, "--out", str(out),
        )
        assert code == 1
        assert flags[-2] in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--mode", "Tp", "--e", "0"), "e must be >= 1"),
            (("--mode", "E", "--split", "1.5"), "empty partition"),
        ],
    )
    def test_failure_inside_the_command_leaves_no_directory(
        self, tmp_path, capsys, flags, message
    ):
        data = tmp_path / "tiny.csv"
        data.write_text("time,active\n" + "".join(f"{t},{t % 7}\n" for t in range(1, 41)))
        out = tmp_path / "nested" / "scan"
        assert run_cli("scan", "--data", str(data), *flags, "--out", str(out)) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "nested").exists()

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
        reads = {"E": {"e-max", "tp"}, "Tp": {"e", "tp-max"}, "theta": {"e", "tp"}}
        for mode, flags in (("E", ()), ("Tp", ("--e", "2")), ("theta", ("--e", "2"))):
            out = tmp_path / mode
            code = run_cli(
                "scan", "--mode", mode, "--data", str(run_dir / "frame.csv"), *flags,
                "--out", str(out),
            )
            assert code == 0
            flags = {arg[2:].split("=")[0] for arg in recorded_argv(out)[1:]}
            assert flags == {"mode", "data", "column", "split"} | reads[mode]

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

    @pytest.mark.parametrize("via_replay", [False, True], ids=["typed", "replay"])
    def test_numerical_failure_exit_three(
        self, run_csv, tmp_path, capsys, monkeypatch, via_replay
    ):
        argv = [
            "forecast", "--data", run_csv, "--coords", "jailed:0,quiet:0", "--tp", "1",
            "--lib", "1:200", "--pred", "301:400", "--theta", "0",
        ]
        if via_replay:
            first = tmp_path / "fc"
            assert run_cli(*argv, "--out", str(first)) == 0
            argv = ["replay", str(first / "manifest.json")]

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(cli, "smap_predict", fail)
        capsys.readouterr()
        out = tmp_path / "failed"
        assert run_cli(*argv, "--out", str(out)) == 3
        assert "numerical failure" in capsys.readouterr().err
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
            lambda frame, theta: JacobianSeries(times=times, coef=coef),
        )
        out = tmp_path / "analysis"
        code = run_cli(
            "analyze", "--data", str(gen / "frame.csv"), "--partition",
            "--config", small_config, "--out", str(out),
        )
        assert code == 0
        err = capsys.readouterr().err.splitlines()
        assert err == ["warning: 1 variance window(s) skipped (non-finite coefficients)"]

    @pytest.fixture(scope="class")
    def frame_csv(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("analyze_set")
        cfg = root / "small.cfg"
        cfg.write_text(SMALL_CFG)
        run_cli(
            "simulate", "--config", str(cfg), "--seed", "6", "--steps", "300",
            "--control", "on", "--legitimacy", "random", "--out", str(root / "gen"),
        )
        return str(root / "gen" / "frame.csv")

    @pytest.mark.parametrize(
        "flags, setting",
        [
            (["--trapped"], "grid_width=30"),
            (["--trapped"], "jacobian_theta=0.5"),
            (["--jacobian"], "trapped_min_duration=10"),
            (["--jacobian"], "jacobian_window=40"),
            (["--jacobian", "--trapped"], "legitimacy_threshold=0.5"),
            (["--partition"], "warmup_ticks=80"),
        ],
    )
    def test_set_key_no_analysis_reads_exit_one(self, frame_csv, tmp_path, capsys, flags, setting):
        out = tmp_path / "analysis"
        code = run_cli("analyze", "--data", frame_csv, *flags, "--set", setting, "--out", str(out))
        assert code == 1
        assert f"--set {setting.split('=')[0]}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, setting",
        [
            ("--jacobian", "jacobian_theta=0.5"),
            ("--partition", "jacobian_window=40"),
            ("--trapped", "trapped_active_floor=5"),
        ],
    )
    def test_set_key_read_takes_effect(self, frame_csv, tmp_path, flag, setting):
        out = tmp_path / "analysis"
        assert run_cli("analyze", "--data", frame_csv, flag, "--set", setting, "--out", str(out)) == 0
        key, value = setting.split("=")
        assert float(recorded_settings(recorded_argv(out))[key]) == float(value)

    @pytest.mark.parametrize("flag", ["jacobian", "partition", "trapped"])
    def test_set_keys_match_what_each_analysis_reads(self, frame_csv, tmp_path, flag):
        read = set()

        class Recording(dict):
            def __getitem__(self, key):
                read.add(key)
                return super().__getitem__(key)

        ns = cli.build_parser().parse_args(
            ["analyze", "--data", frame_csv, f"--{flag}", "--out", str(tmp_path / "analysis")]
        )
        cli._analyze(ns, Recording(resolve()), cli._Outputs(ns.out))
        assert read == set(cli._ANALYZE_KEYS[flag])

    def test_requires_a_flag(self, tmp_path):
        assert run_cli("analyze", "--data", "x.csv", "--out", str(tmp_path / "a")) == 1

    @staticmethod
    def fail_partition(*args, **kwargs):
        raise ValueError("partition failed")

    def test_failure_after_a_write_leaves_no_directory(self, frame_csv, tmp_path, monkeypatch):
        written = []
        discard = cli._Outputs.discard

        def record_then_discard(outputs):
            written.extend(os.listdir(outputs.out_dir))
            discard(outputs)

        monkeypatch.setattr(cli, "partition_variance", self.fail_partition)
        monkeypatch.setattr(cli._Outputs, "discard", record_then_discard)
        out = tmp_path / "analysis"
        code = run_cli(
            "analyze", "--data", frame_csv, "--jacobian", "--partition", "--out", str(out)
        )
        assert code == 1
        assert written == ["jacobian.csv"]
        assert not out.exists()

    def test_failure_keeps_an_existing_directory_and_its_files(
        self, frame_csv, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(cli, "partition_variance", self.fail_partition)
        out = tmp_path / "analysis"
        out.mkdir()
        (out / "notes.txt").write_text("mine\n")
        code = run_cli(
            "analyze", "--data", frame_csv, "--jacobian", "--partition", "--out", str(out)
        )
        assert code == 1
        assert os.listdir(out) == ["notes.txt"]
        assert (out / "notes.txt").read_text() == "mine\n"

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
        assert not out.exists()


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

    @pytest.mark.parametrize("setting", ["jacobian_theta=0.5", "trapped_active_floor=5"])
    def test_set_analysis_key_exit_one(self, small_config, tmp_path, capsys, setting):
        out = tmp_path / "export"
        code = run_cli(
            "export-comparison", "--config", small_config, "--steps", "300",
            "--train", "1:150", "--test", "161:300", "--set", setting, "--out", str(out),
        )
        assert code == 1
        assert f"--set {setting.split('=')[0]}" in capsys.readouterr().err
        assert not out.exists()
