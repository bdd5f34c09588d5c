import logging
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from edmcontrol.edm import pearson_rho, simplex_predict
from edmcontrol.evaluation import (
    THETA_GRID,
    _aligned_simplex_scan,
    _chronological_split,
    embed_dimension_scan,
    evaluate_out_of_sample,
    theta_scan,
    tp_scan,
    tune_theta,
)
from edmcontrol.timeseries import (
    EmbeddingSpec,
    Frame,
    build_delay_embedding,
)


def logistic_map(n, r=3.9, x0=0.4):
    x = np.empty(n)
    x[0] = x0
    for i in range(1, n):
        x[i] = r * x[i - 1] * (1 - x[i - 1])
    return x


class TestEmbedDimensionScan:
    def test_logistic_map_predictable_at_true_dimension(self):
        series = logistic_map(800)
        res = embed_dimension_scan(series, e_max=5, tp=1)
        # one-dimensional deterministic map: strong skill from E=1 up
        assert res.rho[0] > 0.99
        assert np.nanmax(res.rho) > 0.99

    def test_white_noise_skill_indistinguishable_from_zero(self):
        rng = np.random.default_rng(2)
        series = rng.normal(size=1200)
        res = embed_dimension_scan(series, e_max=6, tp=1)
        n = res.reports[0].n
        assert np.all(np.abs(res.rho) < 3.0 / np.sqrt(n))

    def test_axis_and_alignment(self):
        series = logistic_map(200)
        res = embed_dimension_scan(series, e_max=4, tp=2)
        assert res.axis.tolist() == [1, 2, 3, 4]
        assert all(r.n == res.reports[0].n for r in res.reports)

    def test_csv_output(self, tmp_path):
        res = embed_dimension_scan(logistic_map(300), e_max=3, tp=1)
        path = tmp_path / "scan.csv"
        res.write_csv(path, param_name="E")
        lines = path.read_text().splitlines()
        assert lines[0] == "E,rho,mae,rmse,n"
        assert len(lines) == 4


class TestTpScan:
    def test_persistence_series_decays(self):
        # strongly autocorrelated AR(1): skill decreases with horizon
        rng = np.random.default_rng(3)
        x = np.zeros(1500)
        for i in range(1, 1500):
            x[i] = 0.97 * x[i - 1] + rng.normal() * 0.1
        res = tp_scan(x, e=2, tp_max=8)
        assert res.rho[0] > res.rho[-1]
        assert res.rho[0] > res.rho[4]

    def test_sine_perfect_at_period(self):
        period = 20
        t = np.arange(1200)
        series = np.sin(2 * np.pi * t / period)
        res = tp_scan(series, e=2, tp_max=period)
        assert res.rho[period - 1] == pytest.approx(1.0, abs=1e-6)


def reference_scan(series, points, split, tau):
    """The per-point scan loop: one embedding, split and simplex_predict call
    per ``(E, Tp)`` point, on the origins valid at the largest E and Tp."""
    x = np.asarray(series, dtype=np.float64)
    first = (max(e for e, _ in points) - 1) * tau
    last = x.size - 1 - max(tp for _, tp in points)
    reports = []
    for e, tp in points:
        emb = build_delay_embedding(x, e, tau, tp)
        emb = emb.take(np.flatnonzero((emb.times >= first) & (emb.times <= last)))
        lib, pred = _chronological_split(emb, split)
        reports.append(pearson_rho(simplex_predict(lib, pred), pred.targets))
    return tuple(reports)


def assert_same_reports(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.mae, g.rmse, g.n, g.degenerate) == (w.mae, w.rmse, w.n, w.degenerate)
        assert g.rho == w.rho or (math.isnan(g.rho) and math.isnan(w.rho))


def count_series(n, seed=7):
    """Integer-valued series with many tied distances, like Active counts."""
    rng = np.random.default_rng(seed)
    return np.round(8 * logistic_map(n, r=3.8) + rng.integers(0, 3, size=n)).astype(float)


SERIES = {
    "logistic": lambda: logistic_map(260, r=3.8),
    "counts": lambda: count_series(260),
}


class TestScanMatchesPerPointReference:
    """The shared neighbour search gives exactly the per-point loop's skills."""

    @pytest.mark.parametrize("split", [0.3, 0.6, 0.9])
    @pytest.mark.parametrize("tau", [1, 2, 3])
    @pytest.mark.parametrize("kind", sorted(SERIES))
    def test_full_grid(self, kind, tau, split):
        x = SERIES[kind]()
        points = [(e, tp) for e in range(1, 11) for tp in range(0, 11)]
        assert_same_reports(
            _aligned_simplex_scan(x, points, split, tau), reference_scan(x, points, split, tau)
        )

    @pytest.mark.parametrize("split", [0.3, 0.6, 0.9])
    @pytest.mark.parametrize("tau", [1, 2, 3])
    @pytest.mark.parametrize("kind", sorted(SERIES))
    def test_public_scans(self, kind, tau, split):
        x = SERIES[kind]()
        for tp in range(0, 11):
            points = [(e, tp) for e in range(1, 11)]
            got = embed_dimension_scan(x, 10, tp, split=split, tau=tau).reports
            assert_same_reports(got, reference_scan(x, points, split, tau))
        for e in range(1, 11):
            points = [(e, tp) for tp in range(1, 11)]
            got = tp_scan(x, e, 10, split=split, tau=tau).reports
            assert_same_reports(got, reference_scan(x, points, split, tau))

    @pytest.mark.parametrize("where", ["start", "middle", "end"])
    @pytest.mark.parametrize("kind", sorted(SERIES))
    def test_non_finite_values(self, kind, where):
        x = SERIES[kind]()
        at = {"start": [0, 1], "middle": [120, 131], "end": [x.size - 1]}[where]
        x[at] = np.nan
        for tau in (1, 2):
            for points in (
                [(e, 2) for e in range(1, 9)],
                [(3, tp) for tp in range(1, 9)],
                [(e, tp) for e in range(1, 6) for tp in range(0, 6)],
            ):
                assert_same_reports(
                    _aligned_simplex_scan(x, points, 0.6, tau), reference_scan(x, points, 0.6, tau)
                )

    @pytest.mark.parametrize("nan", [False, True])
    def test_k_above_library_size_warns_once_per_point(self, nan):
        x = count_series(16)
        if nan:
            x[8] = np.nan
        for points in ([(e, 1) for e in range(1, 6)], [(4, tp) for tp in range(1, 4)]):
            with warnings.catch_warnings(record=True) as got_warnings:
                warnings.simplefilter("always")
                got = _aligned_simplex_scan(x, points, 0.3, 1)
            with warnings.catch_warnings(record=True) as want_warnings:
                warnings.simplefilter("always")
                want = reference_scan(x, points, 0.3, 1)
            assert_same_reports(got, want)
            assert len(want_warnings) > 0
            assert [str(w.message) for w in got_warnings] == [str(w.message) for w in want_warnings]


class TestScanLogging:
    def test_one_debug_line_per_scan(self, caplog):
        x = count_series(200)
        with caplog.at_level(logging.DEBUG, logger="edmcontrol"):
            embed_dimension_scan(x, 6, 2)
            tp_scan(x, 3, 5)
            x[50] = np.nan
            tp_scan(x, 3, 5)
        messages = [r.getMessage() for r in caplog.records if r.name == "edmcontrol.evaluation"]
        assert messages == [
            "simplex scan: 6 points, 6 neighbour searches, per-point path: False",
            "simplex scan: 5 points, 1 neighbour searches, per-point path: False",
            "simplex scan: 5 points, 5 neighbour searches, per-point path: True",
        ]

    def test_silent_by_default(self):
        code = (
            "import numpy as np\n"
            "from edmcontrol.evaluation import embed_dimension_scan\n"
            "embed_dimension_scan(np.sin(np.arange(300) * 0.3), 4, 1)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert (done.stdout, done.stderr) == ("", "")


class TestEmptyGrid:
    def test_e_max_below_one(self):
        with pytest.raises(ValueError, match="e_max"):
            embed_dimension_scan(logistic_map(100), 0, 1)

    def test_tp_max_below_one(self):
        with pytest.raises(ValueError, match="tp_max"):
            tp_scan(logistic_map(100), 2, 0)


class TestThetaScan:
    def test_grid_and_best(self):
        series = logistic_map(500)
        res = theta_scan(series, e=2, tp=1)
        assert res.axis.tolist() == list(THETA_GRID)
        # chaotic map: nonlinear kernel beats the global linear fit
        assert res.best() > 0.0

    def test_tune_theta_on_library(self):
        series = logistic_map(600)
        emb = build_delay_embedding(series, 2, 1, 1)
        theta = tune_theta(emb)
        assert theta in THETA_GRID
        assert theta > 0.0


class TestOutOfSample:
    def test_exact_linear_target_gives_rho_one(self):
        rng = np.random.default_rng(4)
        n = 400
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        # y at tick t+2 is an exact linear function of (a, b) at tick t
        frame = Frame(
            np.arange(1, n + 1),
            {"a": a, "b": b, "y": np.roll(2 * a - 3 * b, 2)},
        )
        spec = EmbeddingSpec((("a", 0), ("b", 0)), target="y", tp=2)
        rep = evaluate_out_of_sample(frame, spec, (1, 200), (221, 390), theta=0.0)
        assert rep.rho == pytest.approx(1.0, abs=1e-9)

    def test_shuffled_target_control(self):
        rng = np.random.default_rng(5)
        n = 600
        x = np.cumsum(rng.normal(size=n))
        frame = Frame(
            np.arange(1, n + 1),
            {"x": x, "y": rng.permutation(x)},
        )
        spec = EmbeddingSpec((("x", 0), ("x", 1)), target="y", tp=1)
        rep = evaluate_out_of_sample(frame, spec, (1, 300), (321, 590), theta=2.0)
        assert abs(rep.rho) < 0.2

    def test_library_never_contains_prediction_origins(self):
        # instrumented check: overlapping protocol ranges must raise
        rng = np.random.default_rng(6)
        frame = Frame(np.arange(1, 101), {"x": rng.normal(size=100), "y": rng.normal(size=100)})
        spec = EmbeddingSpec((("x", 0),), target="y", tp=1)
        with pytest.raises(ValueError, match="overlap"):
            evaluate_out_of_sample(frame, spec, (1, 60), (50, 99), theta=0.0)


class TestDeterminism:
    def test_scans_are_deterministic(self):
        series = logistic_map(400, r=3.8)
        a = embed_dimension_scan(series, 4, 1)
        b = embed_dimension_scan(series, 4, 1)
        assert np.array_equal(a.rho, b.rho)
