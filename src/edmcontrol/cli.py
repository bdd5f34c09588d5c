"""Command-line front end for reproducible scenario runs and analyses.

Subcommands: ``simulate``, ``scan``, ``forecast``, ``analyze``,
``export-comparison``, ``replay``.  Every run writes a JSON manifest holding
the resolved parameters, seed, and output list, sufficient to replay the run
bit-identically with ``edmcontrol replay``.

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
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .analysis import (
    detect_trapped_state,
    interaction_coefficients,
    partition_variance,
)
from .config import CONFIG_ENV_VAR, coerce, resolve
from .edm import pearson_rho, smap_predict, smap_predictions
from .evaluation import (
    THETA_GRID,
    embed_dimension_scan,
    theta_scan,
    tp_scan,
)
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
    """Writes a command's files atomically so failures leave no partial output."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.files: list[str] = []
        os.makedirs(out_dir, exist_ok=True)

    def write(self, name: str, writer) -> None:
        """Create ``name`` by ``writer(tmp_path)``, then rename it into place."""
        full = os.path.join(self.out_dir, name)
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


def _run_command(command: str, args: dict, out_dir: str) -> None:
    """Dispatch a resolved-argument command; used by both the CLI and replay."""
    started = time.perf_counter()
    out = _Outputs(out_dir)
    try:
        _COMMANDS[command](args, out)
        manifest = {
            "command": command,
            "version": __version__,
            "args": args,
            "outputs": sorted(out.files),
            "duration_seconds": time.perf_counter() - started,
        }
        out.write_json("manifest.json", manifest)
    except BaseException:
        out.discard()
        raise


def _read_frame(path):
    """Read a frame CSV; malformed content is a data error, not a usage error."""
    try:
        return read_frame_csv(path)
    except ValueError as exc:
        raise DataError(str(exc)) from exc


# ---------------------------------------------------------------- simulate

def _simulate_one(args: dict, out: _Outputs) -> None:
    frame = standard_run(
        args["config"],
        seed=args["seed"],
        steps=args["steps"],
        control=args["control"],
        legitimacy_mode=args["legitimacy"],
    )
    out.write("frame.csv", lambda path: write_frame_csv(frame, path))


def _cmd_simulate(ns) -> int:
    cfg = resolve(ns.config, _config_overrides(ns))
    seeds = _parse_seeds(ns.seed, ns.seeds)
    base = {
        "steps": ns.steps,
        "control": ns.control == "on",
        "legitimacy": ns.legitimacy,
        "config": cfg,
    }
    if len(seeds) == 1:
        _run_command("simulate", {**base, "seed": seeds[0]}, ns.out)
        return EXIT_OK
    jobs = max(1, ns.jobs)
    tasks = [
        ("simulate", {**base, "seed": s}, os.path.join(ns.out, f"seed_{s}"))
        for s in seeds
    ]
    if jobs == 1:
        for task in tasks:
            _run_command(*task)
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_run_command, *task) for task in tasks]
            for f in futures:
                f.result()
    return EXIT_OK


# -------------------------------------------------------------------- scan

def _load_series(args: dict) -> np.ndarray:
    if args.get("data") is not None:
        return _read_frame(args["data"]).column(args["column"])
    cfg = args["config"]
    frame = standard_run(cfg, seed=args["seed"], steps=args["steps"], control=False)
    return frame.column(args["column"])


def _scan(args: dict, out: _Outputs) -> None:
    series = _load_series(args)
    mode = args["mode"]
    if mode == "E":
        result = embed_dimension_scan(series, args["e_max"], args["tp"], split=args["split"])
        param = "E"
    elif mode == "Tp":
        result = tp_scan(series, args["e"], args["tp_max"], split=args["split"])
        param = "Tp"
    else:
        result = theta_scan(series, args["e"], args["tp"], split=args["split"], grid=THETA_GRID)
        param = "theta"
    out.write("scan.csv", lambda path: result.write_csv(path, param_name=param))
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

    flags = {**_SCAN_DEFAULTS, **{k: v for k, v in vars(ns).items() if v is not None}}
    args = {
        "mode": ns.mode,
        "data": ns.data,
        "column": ns.column,
        "split": ns.split,
        **{name: flags[name] for name in used},
    }
    if ns.data is None:
        args["config"] = resolve(ns.config, _config_overrides(ns))
        args["seed"] = flags["seed"]
        args["steps"] = flags["steps"]
    _run_command("scan", args, ns.out)
    return EXIT_OK


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


def _forecast(args: dict, out: _Outputs) -> None:
    frame = _read_frame(args["data"])
    spec = EmbeddingSpec(
        coordinates=tuple((c, int(l)) for c, l in args["coords"]),
        target=args["target"],
        tp=args["tp"],
    )
    emb = build_generalized_embedding(frame, spec)
    lib, pred = split_library_prediction(emb, tuple(args["lib"]), tuple(args["pred"]))
    theta = args["theta"]
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
    args = {
        "data": ns.data,
        "coords": list(_parse_coords(ns.coords)),
        "target": ns.target,
        "tp": ns.tp,
        "lib": list(_parse_range(ns.lib)),
        "pred": list(_parse_range(ns.pred)),
        "theta": ns.theta,
    }
    _run_command("forecast", args, ns.out)
    return EXIT_OK


# ----------------------------------------------------------------- analyze

def _analyze(args: dict, out: _Outputs) -> None:
    frame = _read_frame(args["data"])
    cfg = args["config"]
    jac = None
    if args["jacobian"] or args["partition"]:
        jac = interaction_coefficients(frame, theta=cfg["jacobian_theta"])
    if args["jacobian"]:
        out.write("jacobian.csv", jac.write_csv)
    if args["partition"]:
        leg = frame.column("legitimacy")
        idx = np.array([frame.index_of(int(t)) for t in jac.times])
        part = partition_variance(
            jac,
            leg[idx],
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
    if args["trapped"]:
        trapped = detect_trapped_state(
            frame,
            active_floor=cfg["trapped_active_floor"],
            min_duration=cfg["trapped_min_duration"],
        )
        out.write("trapped.csv", trapped.write_csv)


def _cmd_analyze(ns) -> int:
    if not (ns.jacobian or ns.partition or ns.trapped):
        raise UsageError("analyze needs at least one of --jacobian --partition --trapped")
    args = {
        "data": ns.data,
        "jacobian": ns.jacobian,
        "partition": ns.partition,
        "trapped": ns.trapped,
        "config": resolve(ns.config, _config_overrides(ns)),
    }
    _run_command("analyze", args, ns.out)
    return EXIT_OK


# ------------------------------------------------------- export-comparison

def _export_comparison(args: dict, out: _Outputs) -> None:
    from .control import CONTROL_EMBEDDING

    cfg = args["config"]
    frame = standard_run(
        cfg,
        seed=args["seed"],
        steps=args["steps"],
        control=False,
        legitimacy_mode=args["legitimacy"],
    )
    emb = build_generalized_embedding(frame, CONTROL_EMBEDDING)
    train, test = split_library_prediction(emb, tuple(args["train"]), tuple(args["test"]))
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
    args = {
        "seed": ns.seed,
        "steps": ns.steps,
        "legitimacy": ns.legitimacy,
        "train": list(_parse_range(ns.train)),
        "test": list(_parse_range(ns.test)),
        "config": resolve(ns.config, _config_overrides(ns)),
    }
    _run_command("export-comparison", args, ns.out)
    return EXIT_OK


# ------------------------------------------------------------------ replay

def _cmd_replay(ns) -> int:
    try:
        with open(ns.manifest) as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read manifest: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"malformed manifest: {exc}") from exc
    command = manifest.get("command")
    if command not in _COMMANDS:
        raise DataError(f"manifest names unknown command {command!r}")
    _run_command(command, manifest["args"], ns.out)
    return EXIT_OK


_COMMANDS = {
    "simulate": _simulate_one,
    "scan": _scan,
    "forecast": _forecast,
    "analyze": _analyze,
    "export-comparison": _export_comparison,
}


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
    return [seed]


def _config_overrides(ns) -> dict:
    overrides = {}
    for item in getattr(ns, "set", None) or []:
        if "=" not in item:
            raise UsageError(f"--set {item!r} must be key=value")
        key, value = (part.strip() for part in item.split("=", 1))
        overrides[key] = coerce(key, value)
    return overrides


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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seeds", default=None, metavar="A:B", help="seed sweep [A, B)")
    p.add_argument("--steps", type=int, default=5000)
    p.add_argument("--control", choices=("on", "off"), default="off")
    p.add_argument("--legitimacy", choices=("constant", "random", "random-full"), default="constant")
    p.add_argument("--jobs", type=int, default=1, help="parallel scenarios for seed sweeps")
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
    p.add_argument("--split", type=float, default=0.6)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("forecast", help="out-of-sample S-map forecast on a frame CSV")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--data", required=True)
    p.add_argument(
        "--coords",
        default="jailed:0,jailed:2,jailed:4,quiet:0,quiet:2,quiet:4",
        help="comma-separated column:lag coordinates",
    )
    p.add_argument("--target", default="active")
    p.add_argument("--tp", type=int, default=5)
    p.add_argument("--lib", default="1:1500", metavar="A:B")
    p.add_argument("--pred", default="1601:3100", metavar="C:D")
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
    p.add_argument("--train", default="1:1500", metavar="A:B")
    p.add_argument("--test", default="1601:3100", metavar="C:D")
    p.set_defaults(func=_cmd_export_comparison)

    p = sub.add_parser("replay", help="re-run a command from its manifest")
    p.add_argument("manifest")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_replay)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        return ns.func(ns)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        # InsufficientDataError is a data problem; other validation
        # failures are configuration mistakes.
        if isinstance(exc, InsufficientDataError):
            print(f"data error: {exc}", file=sys.stderr)
            return EXIT_DATA
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, KeyError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (np.linalg.LinAlgError, FloatingPointError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
