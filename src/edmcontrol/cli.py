"""Command-line front end for reproducible scenario runs and analyses.

Subcommands: ``simulate``, ``scan``, ``forecast``, ``analyze``,
``export-comparison``, ``replay``.  Every run writes a JSON manifest whose
``argv`` is the command line that repeats it: every flag the run reads at its
resolved value, and every config key it reads as ``--set``.  ``edmcontrol
replay`` runs that command line through the same parser and checks as a typed
one, so the run repeats bit-identically; a manifest the checks refuse exits 2
and writes nothing.

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .abm import WorldParams
from .analysis import (
    detect_trapped_state,
    interaction_coefficients,
    partition_variance,
)
from .config import _OWNERS, CONFIG_ENV_VAR, coerce, resolve
from .control import CONTROL_EMBEDDING, ControllerParams, LoopConfig, make_legitimacy_schedule
from .edm import pearson_rho, smap_predict, smap_predictions
from .evaluation import DEFAULT_SPLIT, embed_dimension_scan, theta_scan, tp_scan
from .scenarios import standard_run
from .timeseries import (
    EmbeddingSpec,
    InsufficientDataError,
    build_generalized_embedding,
    read_frame_csv,
    split_library_prediction,
    write_frame_csv,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; we reserve that
        raise UsageError(message)


class _Outputs:
    """Writes a command's files atomically so failures leave no partial output.

    Directories are made only when a file is written into them, and
    ``discard`` removes the ones made here, so a failed command leaves no
    directory behind either.
    """

    def __init__(self, out_dir: str):
        if os.path.exists(out_dir) and not os.path.isdir(out_dir):
            raise NotADirectoryError(f"output path {out_dir} is not a directory")
        self.out_dir = out_dir
        self.files: list[str] = []
        self.dirs: list[str] = []  # made here, parents before children

    def write(self, name: str, writer) -> None:
        """Create ``name`` by ``writer(tmp_path)``, then rename it into place."""
        full = os.path.join(self.out_dir, name)
        folder = os.path.dirname(full)
        missing = []
        while folder and not os.path.isdir(folder):
            missing.append(folder)
            folder = os.path.dirname(folder)
        self.dirs.extend(reversed(missing))
        os.makedirs(os.path.dirname(full), exist_ok=True)
        self.files.append(name)
        writer(full + ".tmp")
        os.replace(full + ".tmp", full)

    def write_json(self, name: str, obj: dict) -> None:
        def writer(path):
            with open(path, "w") as fh:
                fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")

        self.write(name, writer)

    def write_rows(self, name: str, header: list, rows) -> None:
        def writer(path):
            with open(path, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(header)
                w.writerows(rows)

        self.write(name, writer)

    def discard(self) -> None:
        for name in self.files:
            for path in (name, name + ".tmp"):
                try:
                    os.remove(os.path.join(self.out_dir, path))
                except OSError:
                    pass
        for path in reversed(self.dirs):  # deepest first; one still holding files stays
            try:
                os.rmdir(path)
            except OSError:
                pass


def _argv(command: str, flags: dict, cfg: dict | None = None, keys=()) -> list[str]:
    """The command line that repeats a run, as its manifest records it.

    Each flag the run reads appears at its resolved value as ``--name=value``,
    so a value that starts with ``-`` parses back; a switch that is on appears
    bare, and a flag that is off or None is left out.  Each config key the run
    reads appears as ``--set key=value``, so neither a config file nor
    ``EDMCONTROL_CONFIG`` can change a replayed run.
    """
    argv = [command]
    for name, value in flags.items():
        flag = "--" + name.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif value is not None and value is not False:
            argv.append(f"{flag}={value}")  # a float formats as its repr
    for key in sorted(keys):
        argv += ["--set", f"{key}={'none' if cfg[key] is None else cfg[key]}"]
    return argv


def _run(argv: list[str], ns, cfg, work) -> int:
    """Run ``work(ns, cfg, out)`` into ``ns.out``, then write the manifest."""
    started = time.perf_counter()
    out = _Outputs(ns.out)
    try:
        work(ns, cfg, out)
        manifest = {
            "argv": argv,
            "version": __version__,
            "outputs": sorted(out.files),
            "duration_seconds": time.perf_counter() - started,
        }
        out.write_json("manifest.json", manifest)
    except BaseException:
        out.discard()
        raise
    return EXIT_OK


def _read_frame(path):
    """Read a frame CSV; malformed content is a data error, not a usage error."""
    try:
        return read_frame_csv(path)
    except ValueError as exc:
        raise DataError(str(exc)) from exc


# ---------------------------------------------------------------- simulate

def _simulate_one(ns, cfg: dict, out: _Outputs) -> None:
    frame = standard_run(
        cfg,
        seed=ns.seed,
        steps=ns.steps,
        control=ns.control == "on",
        legitimacy_mode=ns.legitimacy,
    )
    out.write("frame.csv", lambda path: write_frame_csv(frame, path))


def _keys_of(*owners) -> frozenset:
    return frozenset(key for key, (owner, _) in _OWNERS.items() if owner in owners)


def _run_keys(control: bool, legitimacy: str) -> frozenset:
    """Config keys a standard run reads.

    The world's always; the schedule's unless legitimacy is constant; the
    warm-up that the ``random`` schedule waits out; the controller's when one
    runs.  The analyses' keys never.
    """
    keys = _keys_of(WorldParams)
    if legitimacy != "constant":
        keys |= _keys_of(make_legitimacy_schedule)
    if legitimacy == "random":
        keys |= {"warmup_ticks"}
    if control:
        keys |= _keys_of(ControllerParams, LoopConfig)
    return keys


def _cmd_simulate(ns) -> int:
    if ns.jobs is not None and ns.jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {ns.jobs}")
    if ns.jobs is not None and ns.seeds is None:
        raise UsageError("--jobs runs a --seeds sweep in parallel; without --seeds, drop it")
    run = f"simulate --control {ns.control} --legitimacy {ns.legitimacy}"
    read = _run_keys(ns.control == "on", ns.legitimacy)
    cfg = resolve(ns.config, _config_overrides(ns, run, read))
    seeds = _parse_seeds(ns.seed, ns.seeds)
    flags = {"steps": ns.steps, "control": ns.control, "legitimacy": ns.legitimacy}
    argvs = {s: _argv("simulate", {"seed": s, **flags}, cfg, read) for s in seeds}
    if len(seeds) == 1:
        ns.seed = seeds[0]
        return _run(argvs[ns.seed], ns, cfg, _simulate_one)
    # Each seed runs as the command line its own manifest records.  A typed
    # --config goes along only so that EDMCONTROL_CONFIG is not read instead.
    config = [] if ns.config is None else [f"--config={ns.config}"]
    tasks = [
        [*argv, *config, "--out=" + os.path.join(ns.out, f"seed_{s}")] for s, argv in argvs.items()
    ]
    jobs = ns.jobs or 1
    if jobs == 1:
        for task in tasks:
            _dispatch(task)
    else:
        # spawn, not fork: the parent already runs BLAS threads
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=jobs, mp_context=spawn) as pool:
            futures = [pool.submit(_dispatch, task) for task in tasks]
            for f in futures:
                f.result()
    return EXIT_OK


# -------------------------------------------------------------------- scan

def _scan(ns, cfg: dict, out: _Outputs) -> None:
    if ns.data is not None:
        series = _read_frame(ns.data).column(ns.column)
    else:
        series = standard_run(cfg, seed=ns.seed, steps=ns.steps, control=False).column(ns.column)
    if ns.mode == "E":
        result = embed_dimension_scan(series, ns.e_max, ns.tp, split=ns.split)
    elif ns.mode == "Tp":
        result = tp_scan(series, ns.e, ns.tp_max, split=ns.split)
    else:
        result = theta_scan(series, ns.e, ns.tp, split=ns.split)
    out.write("scan.csv", lambda path: result.write_csv(path, param_name=ns.mode))
    if any(r.degenerate for r in result.reports):
        print("warning: degenerate skill (zero variance) at one or more scan points", file=sys.stderr)


# Flags each scan mode reads, and the defaults of the optional scan flags.
# The parser leaves them None when absent, so a flag the run would not read
# can be told apart from one left at its default.
_SCAN_MODE_FLAGS = {"E": ("e_max", "tp"), "Tp": ("e", "tp_max"), "theta": ("e", "tp")}
_SCAN_DEFAULTS = {"seed": 0, "steps": 4000, "e_max": 10, "tp": 5, "tp_max": 10}


def _cmd_scan(ns) -> int:
    if ns.data is None and not ns.generate:
        raise UsageError("scan needs --data CSV or --generate")
    if ns.data is not None:
        generate_only = (
            ("--config", ns.config is not None),
            ("--set", ns.set is not None),
            ("--generate", ns.generate),
            ("--seed", ns.seed is not None),
            ("--steps", ns.steps is not None),
        )
        for flag, present in generate_only:
            if present:
                raise UsageError(f"scan --data does not use {flag}; drop it")
    used = _SCAN_MODE_FLAGS[ns.mode]
    for name in ("e_max", "e", "tp", "tp_max"):
        if name not in used and getattr(ns, name) is not None:
            raise UsageError(f"scan --mode {ns.mode} does not use --{name.replace('_', '-')}; drop it")
    if "e" in used and ns.e is None:
        raise UsageError(f"--mode {ns.mode} requires --e")
    for name, default in _SCAN_DEFAULTS.items():
        if getattr(ns, name) is None:
            setattr(ns, name, default)
    # an empty grid is refused before anything is simulated or written
    for name in ("e_max", "tp_max"):
        if name in used and getattr(ns, name) < 1:
            raise UsageError(f"--{name.replace('_', '-')} must be >= 1, got {getattr(ns, name)}")
    flags = {name: getattr(ns, name) for name in ("mode", "data", "column", "split", *used)}
    cfg, keys = None, ()
    if ns.data is None:
        keys = _run_keys(False, "constant")
        cfg = resolve(ns.config, _config_overrides(ns, "scan --generate", keys))
        flags.update(generate=True, seed=ns.seed, steps=ns.steps)
    return _run(_argv("scan", flags, cfg, keys), ns, cfg, _scan)


# ---------------------------------------------------------------- forecast

def _parse_coords(text: str) -> tuple[tuple[str, int], ...]:
    coords = []
    for part in text.split(","):
        part = part.strip()
        if ":" not in part:
            raise UsageError(f"coordinate {part!r} must be column:lag")
        name, lag = part.rsplit(":", 1)
        coords.append((name.strip(), int(lag)))
    return tuple(coords)


def _forecast(ns, cfg, out: _Outputs) -> None:
    spec = EmbeddingSpec(coordinates=_parse_coords(ns.coords), target=ns.target, tp=ns.tp)
    lib_range, pred_range = _parse_range(ns.lib), _parse_range(ns.pred)
    emb = build_generalized_embedding(_read_frame(ns.data), spec)
    lib, pred = split_library_prediction(emb, lib_range, pred_range)
    theta = ns.theta
    if theta is None:
        from .evaluation import tune_theta

        theta = tune_theta(lib)
    predictions = smap_predictions(smap_predict(lib, pred, theta))
    report = pearson_rho(predictions, pred.targets)

    out.write_rows(
        "predictions.csv",
        ["time", "predicted", "observed"],
        (
            [int(t), repr(float(p)), repr(float(o))]
            for t, p, o in zip(pred.times, predictions, pred.targets)
        ),
    )
    out.write_json(
        "skill.json",
        {
            "rho": report.rho,
            "mae": report.mae,
            "rmse": report.rmse,
            "n": report.n,
            "theta": theta,
            "degenerate": report.degenerate,
        },
    )
    print(f"rho={report.rho:.6f} mae={report.mae:.4f} rmse={report.rmse:.4f} n={report.n}")


def _cmd_forecast(ns) -> int:
    names = ("data", "coords", "target", "tp", "lib", "pred", "theta")
    return _run(_argv("forecast", {name: getattr(ns, name) for name in names}), ns, None, _forecast)


# ----------------------------------------------------------------- analyze

def _analyze(ns, cfg: dict, out: _Outputs) -> None:
    frame = _read_frame(ns.data)
    jac = None
    if ns.jacobian or ns.partition:
        jac = interaction_coefficients(frame, theta=cfg["jacobian_theta"])
    if ns.jacobian:
        out.write("jacobian.csv", jac.write_csv)
    if ns.partition:
        part = partition_variance(
            jac,
            frame.column("legitimacy")[jac.times - frame.time[0]],  # unit-step ticks
            threshold=cfg["legitimacy_threshold"],
            window=cfg["jacobian_window"],
            stride=cfg["jacobian_stride"],
        )
        out.write("variance.csv", part.write_csv)
        if part.n_skipped:
            print(
                f"warning: {part.n_skipped} variance window(s) skipped (non-finite coefficients)",
                file=sys.stderr,
            )
    if ns.trapped:
        trapped = detect_trapped_state(
            frame,
            active_floor=cfg["trapped_active_floor"],
            min_duration=cfg["trapped_min_duration"],
        )
        out.write("trapped.csv", trapped.write_csv)


# Config keys each analysis reads.
_ANALYZE_KEYS = {
    "jacobian": _keys_of(interaction_coefficients),
    "partition": _keys_of(interaction_coefficients, partition_variance),
    "trapped": _keys_of(detect_trapped_state),
}


def _cmd_analyze(ns) -> int:
    flags = [flag for flag in _ANALYZE_KEYS if getattr(ns, flag)]
    if not flags:
        raise UsageError("analyze needs at least one of --jacobian --partition --trapped")
    run = "analyze " + " ".join(f"--{flag}" for flag in flags)
    read = frozenset().union(*(_ANALYZE_KEYS[f] for f in flags))
    cfg = resolve(ns.config, _config_overrides(ns, run, read))
    argv = _argv("analyze", {"data": ns.data, **dict.fromkeys(flags, True)}, cfg, read)
    return _run(argv, ns, cfg, _analyze)


# ------------------------------------------------------- export-comparison

def _export_comparison(ns, cfg: dict, out: _Outputs) -> None:
    train_range, test_range = _parse_range(ns.train), _parse_range(ns.test)
    frame = standard_run(
        cfg, seed=ns.seed, steps=ns.steps, control=False, legitimacy_mode=ns.legitimacy
    )
    emb = build_generalized_embedding(frame, CONTROL_EMBEDDING)
    train, test = split_library_prediction(emb, train_range, test_range)
    for name, block in (("train.csv", train), ("test.csv", test)):
        out.write_rows(
            name,
            ["time", *block.coord_names, CONTROL_EMBEDDING.target],
            (
                [int(t), *(repr(float(v)) for v in block.points[i]), repr(float(block.targets[i]))]
                for i, t in enumerate(block.times)
            ),
        )


def _cmd_export_comparison(ns) -> int:
    run = f"export-comparison --legitimacy {ns.legitimacy}"
    read = _run_keys(False, ns.legitimacy)
    cfg = resolve(ns.config, _config_overrides(ns, run, read))
    names = ("seed", "steps", "legitimacy", "train", "test")
    argv = _argv("export-comparison", {name: getattr(ns, name) for name in names}, cfg, read)
    return _run(argv, ns, cfg, _export_comparison)


# ------------------------------------------------------------------ replay

def _cmd_replay(ns) -> int:
    """Run the command line a manifest records through the same checks as a
    typed one; any refusal is a data error."""
    try:
        with open(ns.manifest) as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read manifest: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"malformed manifest: {exc}") from exc
    argv = manifest.get("argv") if type(manifest) is dict else None
    if type(argv) is not list or not all(type(arg) is str for arg in argv):
        raise DataError(
            "manifest has no argv, a list of strings; manifests that record"
            " command and args instead are from an older edmcontrol and cannot be replayed"
        )
    if argv[:1] == ["replay"]:
        raise DataError("manifest argv must name the command that wrote it, not replay")
    try:
        return _dispatch([*argv, f"--out={ns.out}"])
    except np.linalg.LinAlgError:
        raise
    except (UsageError, ValueError) as exc:
        raise DataError(f"manifest argv: {exc}") from None
    except SystemExit:  # argparse has printed the help or the version
        raise DataError("manifest argv asks for help or the version, not a run") from None


# ------------------------------------------------------------- arg parsing

def _parse_range(text: str) -> tuple[int, int]:
    try:
        a, b = text.split(":")
        return int(a), int(b)
    except ValueError:
        raise UsageError(f"range {text!r} must be start:end") from None


def _parse_seeds(seed, seeds) -> list[int]:
    if seeds:
        a, b = _parse_range(seeds)
        if b <= a:
            raise UsageError(f"--seeds {seeds}: end must exceed start")
        return list(range(a, b))
    return [0 if seed is None else seed]


def _config_overrides(ns, run: str, read: frozenset) -> dict:
    """``--set`` overrides; a key that ``run`` does not read is an error
    rather than silently ignored."""
    overrides = {}
    for item in ns.set or []:
        if "=" not in item:
            raise UsageError(f"--set {item!r} must be key=value")
        key, value = (part.strip() for part in item.split("=", 1))
        overrides[key] = coerce(key, value)
        if key not in read:
            raise UsageError(f"{run} does not read --set {key}; drop it")
    return overrides


# Tick ranges of the paper's train/test protocol, the defaults of
# forecast --lib/--pred and export-comparison --train/--test.
_TRAIN_RANGE = "1:1500"
_TEST_RANGE = "1601:3100"


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help=f"config file (default: ${CONFIG_ENV_VAR})")
    p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key")
    p.add_argument("--out", required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="edmcontrol", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the civil-disobedience scenario")
    _add_common(p)
    seeds = p.add_mutually_exclusive_group()
    seeds.add_argument("--seed", type=int, help="default: 0")
    seeds.add_argument("--seeds", metavar="A:B", help="seed sweep [A, B)")
    p.add_argument("--steps", type=int, default=5000)
    p.add_argument("--control", choices=("on", "off"), default="off")
    p.add_argument("--legitimacy", choices=("constant", "random", "random-full"), default="constant")
    p.add_argument("--jobs", type=int, help="parallel scenarios for --seeds (default: 1)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("scan", help="skill scans over E, Tp, or theta")
    _add_common(p)
    p.add_argument("--mode", choices=("E", "Tp", "theta"), required=True)
    p.add_argument("--data", default=None, help="frame CSV to scan")
    p.add_argument("--column", default="active")
    p.add_argument("--generate", action="store_true", help="scan a freshly simulated nominal run")
    d = _SCAN_DEFAULTS
    p.add_argument("--seed", type=int, help=f"--generate only (default: {d['seed']})")
    p.add_argument("--steps", type=int, help=f"--generate only (default: {d['steps']})")
    p.add_argument("--e-max", type=int, dest="e_max", help=f"mode E (default: {d['e_max']})")
    p.add_argument("--e", type=int, help="modes Tp and theta (required)")
    p.add_argument("--tp", type=int, help=f"modes E and theta (default: {d['tp']})")
    p.add_argument("--tp-max", type=int, dest="tp_max", help=f"mode Tp (default: {d['tp_max']})")
    p.add_argument("--split", type=float, default=DEFAULT_SPLIT)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("forecast", help="out-of-sample S-map forecast on a frame CSV")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--data", required=True)
    p.add_argument(
        "--coords",
        default=",".join(f"{name}:{lag}" for name, lag in CONTROL_EMBEDDING.coordinates),
        help="comma-separated column:lag coordinates",
    )
    p.add_argument("--target", default=CONTROL_EMBEDDING.target)
    p.add_argument("--tp", type=int, default=CONTROL_EMBEDDING.tp)
    p.add_argument("--lib", default=_TRAIN_RANGE, metavar="A:B")
    p.add_argument("--pred", default=_TEST_RANGE, metavar="C:D")
    p.add_argument("--theta", type=float, default=None, help="default: tuned on the library")
    p.set_defaults(func=_cmd_forecast)

    p = sub.add_parser("analyze", help="jacobian / variance / trapped-state analyses")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--jacobian", action="store_true")
    p.add_argument("--partition", action="store_true")
    p.add_argument("--trapped", action="store_true")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("export-comparison", help="emit embedded train/test matrices")
    _add_common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=3100)
    p.add_argument("--legitimacy", choices=("constant", "random", "random-full"), default="random-full")
    p.add_argument("--train", default=_TRAIN_RANGE, metavar="A:B")
    p.add_argument("--test", default=_TEST_RANGE, metavar="C:D")
    p.set_defaults(func=_cmd_export_comparison)

    p = sub.add_parser("replay", help="re-run a command from its manifest")
    p.add_argument("manifest")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_replay)

    return parser


def _dispatch(argv) -> int:
    ns = build_parser().parse_args(argv)
    return ns.func(ns)


def main(argv=None) -> int:
    try:
        return _dispatch(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (np.linalg.LinAlgError, ArithmeticError) as exc:  # LinAlgError is a ValueError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DataError, InsufficientDataError, KeyError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:  # other validation failures are configuration mistakes
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

if __name__ == "__main__":
    sys.exit(main())
