"""The benchmark workloads: inputs made from a seed, one timed operation, checks.

Each workload is a closed loop with one caller: the next operation starts
when the previous one returns, in one process with no threads of its own.
A workload has three parts:

- ``prepare`` builds the inputs from the seed (part of set-up);
- ``execute`` is the operation that is timed, and traced in a traced run;
- ``inspect`` digests and checks the outputs, outside the timed region.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import edmcontrol.abm as abm
import edmcontrol.cli as cli
import edmcontrol.config as config
import edmcontrol.control as control
import edmcontrol.scenarios as scenarios
import edmcontrol.timeseries as timeseries

import oracles

# Tolerances of the checks, relative to max(1, |oracle value|).
SMAP_RTOL = 1e-8
SKILL_TOL = 1e-9


@dataclass(frozen=True)
class Scale:
    """Problem sizes for one benchmark scale."""

    config: str  # cfg-file text layered over the built-in defaults
    steps: int  # ticks per scenario
    open_loop_runs: int  # scenarios per open_loop operation
    e_max: int  # E scan: E = 1..e_max at horizon tp
    tp: int
    scan_e: int  # Tp scan: Tp = 1..tp_max at E = scan_e
    tp_max: int
    forecast_lib: str
    forecast_pred: str
    samples: int  # oracle samples per check


# The paper's world (40x40 torus, 1120 citizens, 80 cops) at half the
# paper's run length, so that one run of every workload, set-up repeats
# included, fits the benchmark's time budget.  Three open-loop runs per
# operation damp the spread that the seed-dependent share of trapped ticks
# adds to their time.
BENCH = Scale(
    config="warmup_ticks = 1500\n",
    steps=3000,
    open_loop_runs=3,
    e_max=10,
    tp=5,
    scan_e=5,
    tp_max=10,
    forecast_lib="1:1500",
    forecast_pred="1601:3100",
    samples=20,
)

# The small world of the CLI replay acceptance test; used for warm-up and
# for the benchmark's self-test.
SMALL = Scale(
    config=(
        "grid_width = 20\ngrid_height = 20\nn_citizens = 120\nn_cops = 12\n"
        "vision = 3\nlegitimacy = 0.7\njail_capacity = 60\nwarmup_ticks = 60\n"
        "schedule_changes = 5\n"
    ),
    steps=300,
    open_loop_runs=2,
    e_max=3,
    tp=2,
    scan_e=2,
    tp_max=3,
    forecast_lib="1:140",
    forecast_pred="161:290",
    samples=5,
)


@dataclass
class Context:
    scale: Scale
    seed: int
    work: Path
    cfg: dict
    cfg_path: Path


@dataclass
class Outcome:
    """What one operation produced, as seen by the checks."""

    digests: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    props: dict[str, float] = field(default_factory=dict)
    output_bytes: int = 0


def make_context(scale: Scale, seed: int, work: Path) -> Context:
    work.mkdir(parents=True, exist_ok=True)
    cfg_path = work / "bench.cfg"
    cfg_path.write_text(scale.config)
    return Context(scale, seed, work, config.resolve(str(cfg_path)), cfg_path)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def frame_digest(frame, path: Path) -> str:
    timeseries.write_frame_csv(frame, path)
    return _sha256(path)


@contextlib.contextmanager
def timed_calls(module, name: str, samples_ms: list):
    """Time every call of ``module.name`` while inside the block."""
    inner = getattr(module, name)

    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        result = inner(*args, **kwargs)
        samples_ms.append((time.perf_counter() - t0) * 1e3)
        return result

    setattr(module, name, wrapper)
    try:
        yield
    finally:
        setattr(module, name, inner)


def _conservation(ctx: Context, frame, label: str) -> list[str]:
    total = frame.column("quiet") + frame.column("active") + frame.column("jailed")
    bad = np.flatnonzero(total != ctx.cfg["n_citizens"])
    return [f"{label}: population not conserved at {bad.size} ticks"] if bad.size else []


def _frame_props(ctx: Context, frames) -> dict[str, float]:
    active = np.concatenate([f.column("active") for f in frames])
    return {
        "active_mean": float(active.mean()),
        "trapped_tick_share": float((active >= ctx.cfg["trapped_active_floor"]).mean()),
    }


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(b))


def _sample(rng, items, k: int):
    items = list(items)
    if len(items) <= k:
        return items
    return [items[i] for i in sorted(rng.choice(len(items), size=k, replace=False))]


def _run_cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# ------------------------------------------------------------------ open_loop

def prepare_open_loop(ctx: Context):
    """One scenario seed per run of the operation, all drawn from the seed."""
    state = np.random.SeedSequence(ctx.seed).generate_state(ctx.scale.open_loop_runs)
    return [int(s) for s in state]


def execute_open_loop(ctx: Context, seeds, calls_ms: list):
    with timed_calls(abm, "step", calls_ms):
        return [
            scenarios.standard_run(ctx.cfg, s, ctx.scale.steps, control=False, legitimacy_mode="random")
            for s in seeds
        ]


def inspect_open_loop(ctx: Context, seeds, frames, full: bool) -> Outcome:
    out = Outcome(props=_frame_props(ctx, frames))
    for j, frame in enumerate(frames):
        out.digests[f"frame{j}.csv"] = frame_digest(frame, ctx.work / f"open_loop{j}.csv")
        out.problems += _conservation(ctx, frame, f"scenario {j}")
    return out


# ---------------------------------------------------------------- closed_loop

def prepare_closed_loop(ctx: Context):
    return None


def execute_closed_loop(ctx: Context, inputs, calls_ms: list):
    """``standard_run`` with control on, assembled from its pieces so the
    controller callable can be timed; the frame is the same byte for byte."""
    cfg = ctx.cfg
    params = config.world_params(cfg)
    world_ss, schedule_ss = np.random.SeedSequence(ctx.seed).spawn(2)
    leg = scenarios.legitimacy_profile(cfg, schedule_ss, ctx.scale.steps, "random")
    controller = control.EdmController(config.loop_config(cfg), config.controller_params(cfg))
    decisions = []

    def timed_controller(history):
        t0 = time.perf_counter()
        decision = controller(history)
        if decision.engaged:
            calls_ms.append((time.perf_counter() - t0) * 1e3)
            decisions.append((len(history), decision))
        return decision

    frame = abm.run_scenario(params, ctx.scale.steps, world_ss, legitimacy=leg, controller=timed_controller)
    return frame, decisions


def inspect_closed_loop(ctx: Context, inputs, result, full: bool) -> Outcome:
    frame, decisions = result
    cfg = ctx.cfg
    out = Outcome(props=_frame_props(ctx, [frame]))
    out.digests["frame.csv"] = frame_digest(frame, ctx.work / "closed_loop.csv")
    out.problems += _conservation(ctx, frame, "closed loop")
    out.props["library_rows"] = float(np.mean([n for n, _ in decisions])) if decisions else 0.0
    out.props["held_share"] = float(np.mean([d.held for _, d in decisions])) if decisions else 0.0
    bad = [n for n, d in decisions if not cfg["p_min"] < d.propaganda < cfg["p_max"]]
    if bad:
        out.problems.append(f"propaganda outside (p_min, p_max) at {len(bad)} decisions")
    if not decisions:
        out.problems.append("controller never engaged")
    if full:
        out.problems += _check_forecasts(ctx, frame, decisions)
    return out


def _check_forecasts(ctx: Context, frame, decisions) -> list[str]:
    spec = control.CONTROL_EMBEDDING
    rng = np.random.default_rng(ctx.seed)
    forecast = frame.column("forecast_active")
    problems = []
    for n, decision in _sample(rng, [(n, d) for n, d in decisions if not d.held], ctx.scale.samples):
        cols = {k: v[:n] for k, v in frame.columns.items()}
        origins = np.arange(spec.max_lag, n - spec.tp)
        pts, tgt = oracles.lagged_embedding(cols, spec.coordinates, spec.target, spec.tp, origins)
        query = np.array([cols[c][n - 1 - lag] for c, lag in spec.coordinates])
        want = oracles.wls_prediction(pts, tgt, query, ctx.cfg["theta"])
        if not _close(forecast[n - 1], want, SMAP_RTOL):
            problems.append(f"forecast at tick {n}: {forecast[n - 1]!r} vs oracle {want!r}")
    return problems


# ------------------------------------------------------------------- analysis

def prepare_analysis(ctx: Context):
    frame = scenarios.standard_run(ctx.cfg, ctx.seed, ctx.scale.steps, control=True, legitimacy_mode="random")
    path = ctx.work / "analysis_frame.csv"
    timeseries.write_frame_csv(frame, path)
    return frame, path


def execute_analysis(ctx: Context, inputs, calls_ms: list):
    _, path = inputs
    out_dir = ctx.work / "analysis_out"
    t0 = time.perf_counter()
    rc = _run_cli(["analyze", "--data", path, "--jacobian", "--partition", "--trapped",
                   "--config", ctx.cfg_path, "--out", out_dir])
    calls_ms.append((time.perf_counter() - t0) * 1e3)
    return rc, out_dir


def inspect_analysis(ctx: Context, inputs, result, full: bool) -> Outcome:
    frame, _ = inputs
    rc, out_dir = result
    out = Outcome()
    if rc != 0:
        out.problems.append(f"analyze exited {rc}")
        return out
    for name in ("jacobian.csv", "variance.csv", "trapped.csv"):
        out.digests[name] = _sha256(out_dir / name)
    out.output_bytes = _tree_bytes(out_dir)
    with open(out_dir / "jacobian.csv", newline="") as fh:
        rows = [(int(t), float(c)) for t, c in list(csv.reader(fh))[1:]]
    flagged = sum(1 for _, c in rows if math.isnan(c))
    out.props = {"rows": float(len(rows)), "flagged_share": flagged / max(1, len(rows))}
    if full:
        out.problems += _check_jacobian(ctx, frame, rows)
    shutil.rmtree(out_dir)
    return out


def _check_jacobian(ctx: Context, frame, rows) -> list[str]:
    from edmcontrol.analysis import ANALYSIS_EMBEDDING as spec

    ci = spec.coordinates.index(("propaganda", 0)) + 1
    radius = spec.max_lag + spec.tp
    origins = np.arange(spec.max_lag, len(frame) - spec.tp)
    pts, tgt = oracles.lagged_embedding(frame.columns, spec.coordinates, spec.target, spec.tp, origins)
    times = frame.time[origins]
    if [t for t, _ in rows] != times.tolist():
        return ["jacobian.csv times differ from the embedding origins"]
    rng = np.random.default_rng(ctx.seed)
    problems = []
    finite = [(i, c) for i, (_, c) in enumerate(rows) if math.isfinite(c)]
    for i, coef in _sample(rng, finite, ctx.scale.samples):
        keep = np.abs(times - times[i]) > radius
        want = oracles.wls_coefficients(pts[keep], tgt[keep], pts[i], ctx.cfg["jacobian_theta"])[ci]
        if not _close(coef, want, SMAP_RTOL):
            problems.append(f"jacobian at tick {times[i]}: {coef!r} vs oracle {want!r}")
    return problems


# ----------------------------------------------------------------- skill_scan

def prepare_skill_scan(ctx: Context):
    frame = scenarios.standard_run(
        ctx.cfg, ctx.seed, ctx.scale.steps, control=False, legitimacy_mode="random-full"
    )
    path = ctx.work / "skill_frame.csv"
    timeseries.write_frame_csv(frame, path)
    return frame, path


def execute_skill_scan(ctx: Context, inputs, calls_ms: list):
    _, path = inputs
    s = ctx.scale
    out_dir = ctx.work / "skill_out"
    commands = (
        ["scan", "--mode", "E", "--data", path, "--e-max", s.e_max, "--tp", s.tp, "--out", out_dir / "E"],
        ["scan", "--mode", "Tp", "--data", path, "--e", s.scan_e, "--tp-max", s.tp_max,
         "--out", out_dir / "Tp"],
        ["forecast", "--data", path, "--lib", s.forecast_lib, "--pred", s.forecast_pred,
         "--out", out_dir / "forecast"],
    )
    codes = []
    for argv in commands:
        t0 = time.perf_counter()
        codes.append(_run_cli(argv))
        calls_ms.append((time.perf_counter() - t0) * 1e3)
    return codes, out_dir


def inspect_skill_scan(ctx: Context, inputs, result, full: bool) -> Outcome:
    frame, _ = inputs
    codes, out_dir = result
    out = Outcome(props=_frame_props(ctx, [frame]))
    if any(codes):
        out.problems.append(f"scan/forecast exit codes {codes}")
        return out
    for name in ("E/scan.csv", "Tp/scan.csv", "forecast/predictions.csv"):
        out.digests[name] = _sha256(out_dir / name)
    out.output_bytes = _tree_bytes(out_dir)
    if full:
        out.problems += _check_scans(ctx, frame, out_dir)
        out.problems += _check_forecast_csv(ctx, frame, out_dir / "forecast")
    shutil.rmtree(out_dir)
    return out


def _read_scan(path: Path) -> dict[int, tuple[float, float, float]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return {int(r[0]): (float(r[1]), float(r[2]), float(r[3])) for r in rows}


def _check_scans(ctx: Context, frame, out_dir: Path) -> list[str]:
    s = ctx.scale
    x = frame.column("active")
    split = 0.6  # the CLI's default --split
    problems = []
    e_scan = _read_scan(out_dir / "E" / "scan.csv")
    for e in sorted({1, s.scan_e, s.e_max}):
        got = e_scan[e]
        want = oracles.delay_scan_point(x, e, s.tp, s.e_max - 1, x.size - 1 - s.tp, split)
        if not all(_close(g, w, SKILL_TOL) for g, w in zip(got, want)):
            problems.append(f"E scan at E={e}: {got} vs oracle {want}")
    tp_scan = _read_scan(out_dir / "Tp" / "scan.csv")
    for tp in sorted({1, s.tp_max}):
        got = tp_scan[tp]
        want = oracles.delay_scan_point(x, s.scan_e, tp, s.scan_e - 1, x.size - 1 - s.tp_max, split)
        if not all(_close(g, w, SKILL_TOL) for g, w in zip(got, want)):
            problems.append(f"Tp scan at Tp={tp}: {got} vs oracle {want}")
    return problems


def _check_forecast_csv(ctx: Context, frame, out_dir: Path) -> list[str]:
    spec = control.CONTROL_EMBEDDING  # the forecast command's default coordinates
    theta = json.loads((out_dir / "skill.json").read_text())["theta"]
    lib_lo, lib_hi = (int(v) for v in ctx.scale.forecast_lib.split(":"))
    with open(out_dir / "predictions.csv", newline="") as fh:
        rows = [(int(t), float(p)) for t, p, _ in list(csv.reader(fh))[1:]]
    t0 = int(frame.time[0])
    origins = np.arange(spec.max_lag, len(frame) - spec.tp)
    ticks = frame.time[origins]
    lib = origins[(ticks >= lib_lo) & (ticks <= lib_hi)]
    pts, tgt = oracles.lagged_embedding(frame.columns, spec.coordinates, spec.target, spec.tp, lib)
    rng = np.random.default_rng(ctx.seed)
    problems = []
    for t, pred in _sample(rng, rows, ctx.scale.samples):
        query, _ = oracles.lagged_embedding(
            frame.columns, spec.coordinates, spec.target, spec.tp, np.array([t - t0])
        )
        want = oracles.wls_prediction(pts, tgt, query[0], theta)
        if not _close(pred, want, SMAP_RTOL):
            problems.append(f"forecast at tick {t}: {pred!r} vs oracle {want!r}")
    return problems


@dataclass(frozen=True)
class Workload:
    prepare: object
    execute: object
    inspect: object


WORKLOADS = {
    "open_loop": Workload(prepare_open_loop, execute_open_loop, inspect_open_loop),
    "closed_loop": Workload(prepare_closed_loop, execute_closed_loop, inspect_closed_loop),
    "analysis": Workload(prepare_analysis, execute_analysis, inspect_analysis),
    "skill_scan": Workload(prepare_skill_scan, execute_skill_scan, inspect_skill_scan),
}
