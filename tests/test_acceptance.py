"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The scenario suites (20 seeds each of nominal, uncontrolled-random, and
controlled-random runs) are generated once per session and shared across
criteria.  Run with ``pytest tests/test_acceptance.py -v -s`` to watch the
per-criterion lines stream; the whole module takes a few minutes.
"""

import json
import logging
import time

import numpy as np
import pytest
from scipy import stats

import edmcontrol as ec
from edmcontrol.cli import main as cli_main
from edmcontrol.config import resolve
from edmcontrol.control import CONTROL_EMBEDDING, ControllerParams, propaganda_response
from edmcontrol.edm import _simplex_weights, knn, simplex_predict, smap_predict
from edmcontrol.scenarios import standard_run
from edmcontrol.timeseries import Embedding

SUITE_SEEDS = range(20)
SUITE_STEPS = 6000

_LOG = logging.getLogger("acceptance")


def report(criterion: int, ok: bool, detail: str) -> None:
    _LOG.info("[criterion %2d] %s - %s", criterion, "PASS" if ok else "FAIL", detail)
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def cfg():
    return dict(resolve())


def _suite(cfg, control: bool, mode: str):
    t0 = time.perf_counter()
    frames = [
        standard_run(cfg, seed=s, steps=SUITE_STEPS, control=control, legitimacy_mode=mode)
        for s in SUITE_SEEDS
    ]
    return frames, time.perf_counter() - t0


@pytest.fixture(scope="module")
def nominal_suite(cfg):
    return _suite(cfg, control=False, mode="constant")


@pytest.fixture(scope="module")
def uncontrolled_suite(cfg):
    return _suite(cfg, control=False, mode="random")


@pytest.fixture(scope="module")
def controlled_suite(cfg):
    return _suite(cfg, control=True, mode="random")


def random_embedding(rng, n, e):
    return Embedding(
        points=rng.normal(size=(n, e)),
        targets=rng.normal(size=n),
        times=np.arange(1, n + 1),
    )


def test_criterion_01_smap_matches_weighted_ls_oracle():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(100):
        n = int(rng.integers(20, 61))
        e = int(rng.integers(1, 5))
        theta = 0.0 if i % 4 == 0 else float(rng.uniform(0.0, 9.0))
        lib = random_embedding(rng, n, e)
        q = rng.normal(size=e)
        out = smap_predict(lib, q[None, :], theta)[0]

        # independent oracle: dense weighted normal equations
        d = np.sqrt(((lib.points - q) ** 2).sum(axis=1))
        w = np.exp(-theta * d / d.mean())
        a = np.hstack([np.ones((n, 1)), lib.points])
        aw = w[:, None] * a
        coef = np.linalg.solve(aw.T @ aw, aw.T @ (w * lib.targets))
        pred = coef[0] + coef[1:] @ q
        worst = max(worst, float(np.abs(out.coefficients - coef).max()), abs(out.prediction - pred))

        if theta == 0.0:
            ols, *_ = np.linalg.lstsq(a, lib.targets, rcond=None)
            worst = max(worst, float(np.abs(out.coefficients - ols).max()))
    elapsed = time.perf_counter() - t0
    report(
        1,
        worst < 1e-8 and elapsed < 10.0,
        f"100 random instances, worst |error| {worst:.2e} vs 1e-8, {elapsed:.1f}s < 10s",
    )


def test_criterion_02_knn_and_simplex_contracts():
    rng = np.random.default_rng(1002)
    lib = random_embedding(rng, 100, 3)
    mismatches = 0
    for _ in range(1000):
        q = rng.normal(size=3)
        k = int(rng.integers(1, 12))
        nn = knn(lib, q, k)
        d = np.sqrt(((lib.points - q) ** 2).sum(axis=1))
        oracle = sorted(range(100), key=lambda j: (d[j], j))[:k]
        if nn.indices.tolist() != oracle:
            mismatches += 1

    # zero-distance contract: an exact state match returns its target exactly
    exact = simplex_predict(lib, lib.points[17][None, :])[0]
    zero_ok = exact == lib.targets[17]
    # equidistant pair: exact midpoint
    pair = Embedding(np.array([[0.0], [2.0]]), np.array([4.0, 6.0]), np.array([1, 2]))
    mid_ok = simplex_predict(pair, np.array([[1.0]]), k=2)[0] == 5.0
    # weight normalization
    w = _simplex_weights(np.array([0.5, 1.0, 2.5]))
    wn = w / w.sum()
    norm_ok = abs(wn.sum() - 1.0) < 1e-15 and bool(np.all((wn > 0) & (wn <= 1))) and w.max() == w[0]
    report(
        2,
        mismatches == 0 and zero_ok and mid_ok and norm_ok,
        f"knn oracle mismatches {mismatches}/1000; zero-distance exact {zero_ok};"
        f" midpoint exact {mid_ok}; weights normalized {norm_ok}",
    )


def test_criterion_03_fig4_scan_shapes(cfg):
    t0 = time.perf_counter()
    frame = standard_run(cfg, seed=0, steps=8000, control=False, legitimacy_mode="constant")
    series = frame.column("active")
    escan = ec.embed_dimension_scan(series, e_max=10, tp=5)
    gap = float(np.nanmax(escan.rho) - escan.rho[4])
    tscan = ec.tp_scan(series, e=5, tp_max=5)
    serial = tscan.rho[0] > tscan.rho[4] and tscan.rho[1] > tscan.rho[4]
    elapsed = time.perf_counter() - t0
    report(
        3,
        gap <= 0.05 and serial and elapsed < 120.0,
        f"rho(E=5)={escan.rho[4]:.3f} within {gap:.3f} of max {np.nanmax(escan.rho):.3f}"
        f" (tol 0.05); rho(Tp=1)={tscan.rho[0]:.3f}, rho(Tp=2)={tscan.rho[1]:.3f}"
        f" > rho(Tp=5)={tscan.rho[4]:.3f}: {serial}; {elapsed:.0f}s < 120s",
    )


def test_criterion_04_out_of_sample_protocol(cfg):
    rhos = []
    for seed in range(5):
        frame = standard_run(cfg, seed=seed, steps=3100, control=False, legitimacy_mode="random-full")
        rep = ec.evaluate_out_of_sample(
            frame, CONTROL_EMBEDDING, (1, 1500), (1601, 3100), theta=None
        )
        rhos.append(rep.rho)
    mean = float(np.mean(rhos))
    report(
        4,
        mean >= 0.9,
        f"library 1-1500, prediction 1601-3100, tuned theta: mean rho {mean:.4f} >= 0.9"
        f" (per-seed {[round(r, 3) for r in rhos]})",
    )


def test_criterion_05_control_efficacy(cfg, uncontrolled_suite, controlled_suite):
    unc_frames, unc_t = uncontrolled_suite
    con_frames, con_t = controlled_suite
    floor, dur = cfg["trapped_active_floor"], cfg["trapped_min_duration"]
    unc = sum(len(ec.detect_trapped_state(f, floor, dur)) for f in unc_frames)
    con = sum(len(ec.detect_trapped_state(f, floor, dur)) for f in con_frames)
    elapsed = unc_t + con_t
    report(
        5,
        unc >= 1 and con == 0 and elapsed < 600.0,
        f"trapped intervals over 20 seeds: uncontrolled {unc} (>=1), controlled {con} (==0);"
        f" suite {elapsed:.0f}s < 600s",
    )


def test_criterion_06_punctuated_equilibrium(cfg, nominal_suite):
    frames, _ = nominal_suite
    passed = 0
    for f in frames:
        onsets = ec.outburst_onsets(f, floor=cfg["outburst_floor"])
        waits = ec.waiting_times(onsets)
        if len(waits) >= 10:
            _, p = ec.exponential_gof(waits)
            passed += p > 0.01
    report(
        6,
        passed >= 15,
        f"exponential waiting-time fit at alpha=0.01: {passed}/20 seeds (need >= 15)",
    )


def test_criterion_07_controller_arithmetic():
    params = ControllerParams()
    exact = propaganda_response(50.0, params) == 0.33
    rng = np.random.default_rng(1007)
    bounded = all(
        0.06 < propaganda_response(float(a), params) < 0.6
        for a in rng.uniform(-200.0, 1500.0, size=1000)
    )
    mono = True
    for a, delta in zip(rng.uniform(-50, 450, size=1000), rng.uniform(0.01, 200, size=1000)):
        if not propaganda_response(float(a), params) < propaganda_response(float(a + delta), params):
            mono = False
            break
    report(
        7,
        exact and bounded and mono,
        f"P(50)==0.33 exactly: {exact}; 1000 outputs in (0.06, 0.6): {bounded};"
        f" strictly increasing on 1000 pairs: {mono}",
    )


def test_criterion_08_jacobian_variance_direction(cfg, controlled_suite):
    frames, _ = controlled_suite
    low_parts, high_parts = [], []
    for f in frames[:5]:
        jac = ec.interaction_coefficients(f, theta=cfg["jacobian_theta"])
        idx = jac.times - f.time[0]
        part = ec.partition_variance(
            jac,
            f.column("legitimacy")[idx],
            threshold=cfg["legitimacy_threshold"],
            window=cfg["jacobian_window"],
            stride=cfg["jacobian_stride"],
        )
        low_parts.append(part.low)
        high_parts.append(part.high)
    low = np.concatenate(low_parts)
    high = np.concatenate(high_parts)
    _, p = stats.mannwhitneyu(low, high, alternative="greater")
    report(
        8,
        p < 0.05,
        f"low-legitimacy variance dominates (one-sided rank test): p={p:.2e} < 0.05"
        f" (low n={low.size} median {np.median(low):.3g},"
        f" high n={high.size} median {np.median(high):.3g})",
    )


SMALL_CFG = """
grid_width = 20
grid_height = 20
n_citizens = 120
n_cops = 12
vision = 3
legitimacy = 0.7
jail_capacity = 60
warmup_ticks = 60
schedule_changes = 5
"""


def test_criterion_09_cli_replay_determinism(tmp_path):
    cfg_path = tmp_path / "small.cfg"
    cfg_path.write_text(SMALL_CFG)
    checks = []

    def run_and_replay(name, argv, outputs):
        first = tmp_path / name
        assert cli_main([*argv, "--out", str(first)]) == 0
        second = tmp_path / f"{name}_replay"
        assert cli_main(["replay", str(first / "manifest.json"), "--out", str(second)]) == 0
        same = all(
            (first / o).read_bytes() == (second / o).read_bytes() for o in outputs
        )
        manifest = json.loads((first / "manifest.json").read_text())
        checks.append((name, same and sorted(outputs) == manifest["outputs"]))

    run_and_replay(
        "sim",
        ["simulate", "--config", str(cfg_path), "--seed", "3", "--steps", "200",
         "--control", "on", "--legitimacy", "random"],
        ["frame.csv"],
    )
    run_and_replay(
        "scan",
        ["scan", "--mode", "E", "--generate", "--config", str(cfg_path), "--seed", "1",
         "--steps", "300", "--e-max", "3", "--tp", "2"],
        ["scan.csv"],
    )
    run_and_replay(
        "export",
        ["export-comparison", "--config", str(cfg_path), "--seed", "2", "--steps", "300",
         "--train", "1:150", "--test", "161:300"],
        ["train.csv", "test.csv"],
    )
    frame_csv = tmp_path / "sim" / "frame.csv"
    run_and_replay(
        "forecast",
        ["forecast", "--data", str(frame_csv), "--coords", "jailed:0,quiet:0",
         "--target", "active", "--tp", "1", "--lib", "1:100", "--pred", "111:190",
         "--theta", "1"],
        ["predictions.csv", "skill.json"],
    )
    ok = all(same for _, same in checks)
    report(9, ok, "byte-identical replay for " + ", ".join(n for n, _ in checks))


def test_criterion_10_population_conservation(
    cfg, nominal_suite, uncontrolled_suite, controlled_suite
):
    n = cfg["n_citizens"]
    violations = 0
    total = 0
    for frames, _ in (nominal_suite, uncontrolled_suite, controlled_suite):
        for f in frames:
            s = f.column("quiet") + f.column("active") + f.column("jailed")
            violations += int((s != n).sum())
            total += len(f)
    report(
        10,
        violations == 0,
        f"quiet+active+jailed == {n} at every tick: {total} ticks checked,"
        f" {violations} violations",
    )
