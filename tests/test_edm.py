import logging
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edmcontrol import edm
from edmcontrol.analysis import ANALYSIS_EMBEDDING
from edmcontrol.control import CONTROL_EMBEDDING
from edmcontrol.edm import knn, pearson_rho, simplex_predict, smap_predict, smap_predictions
from edmcontrol.scenarios import standard_run
from edmcontrol.timeseries import Embedding, build_generalized_embedding


def embedding_from(points, targets, times=None):
    points = np.asarray(points, dtype=float)
    if times is None:
        times = np.arange(1, len(points) + 1)
    return Embedding(points, np.asarray(targets, dtype=float), times)


def brute_force_knn(points, query, k):
    """Oracle: exhaustive distance sort with row-id tie-break."""
    d = np.sqrt(((points - query) ** 2).sum(axis=1))
    order = sorted(range(len(points)), key=lambda i: (d[i], i))[:k]
    return np.array(order), d[list(order)]


def wls_oracle(points, targets, query, theta):
    """Oracle: dense weighted normal equations, coded independently."""
    d = np.sqrt(((points - query) ** 2).sum(axis=1))
    dbar = d.mean()
    w = np.exp(-theta * d / dbar)
    a = np.hstack([np.ones((len(points), 1)), points])
    aw = w[:, None] * a
    bw = w * targets
    coef = np.linalg.pinv(aw.T @ aw) @ (aw.T @ bw)
    return coef, coef[0] + coef[1:] @ query


def sorted_reference_smap(lib, q, theta, keep=None):
    """Reference S-map solved in (distance, row id) order: lexsort, gather, lstsq.

    Returns (coefficients, prediction, rank_deficient, degenerate).
    """
    d = np.sqrt(((lib.points - q) ** 2).sum(axis=1))
    ids = np.arange(len(lib))
    if keep is not None:
        d, ids = d[keep], ids[keep]
    order = np.lexsort((ids, d))
    d, ids = d[order], ids[order]
    targets = lib.targets[ids]
    dbar = d.mean()
    if dbar == 0.0:
        coef = np.zeros(lib.e + 1)
        coef[0] = targets.mean()
        return coef, coef[0], False, True
    w = np.exp(-theta * d / dbar)
    a = np.hstack([np.ones((ids.size, 1)), lib.points[ids]])
    coef, _, rank, _ = np.linalg.lstsq(a * w[:, None], targets * w, rcond=None)
    return coef, coef[0] + coef[1:] @ q, rank < lib.e + 1, False


def assert_close(got, want, rtol=1e-9):
    """Agreement to ``rtol`` relative to max(1, |want|), elementwise."""
    got, want = np.asarray(got), np.asarray(want)
    assert np.all(np.abs(got - want) <= rtol * np.maximum(1.0, np.abs(want))), (got, want)


def _points_times(queries):
    if isinstance(queries, Embedding):
        return queries.points, queries.times
    return np.atleast_2d(np.asarray(queries, dtype=float)), None


def loop_reference_smap(lib, queries, theta, exclusion_radius=-1):
    """The per-query S-map loop that the blocked kernel replaced: per query,
    distances, exclusion mask, kernel weights and one lstsq on ``(1 | X)`` in
    stored row order.

    Returns (coefficients, prediction, rank_deficient, degenerate) per query.
    """
    pts, times = _points_times(queries)
    design = np.hstack([np.ones((len(lib), 1)), lib.points])
    out = []
    for i, q in enumerate(pts):
        d = np.sqrt(((lib.points - q) ** 2).sum(axis=1))
        a, y = design, lib.targets
        if exclusion_radius >= 0:
            keep = np.abs(lib.times - times[i]) > exclusion_radius
            d, a, y = d[keep], a[keep], y[keep]
        d_mean = float(d.mean())
        if d_mean == 0.0:
            coef = np.zeros(lib.e + 1)
            coef[0] = float(y.mean())
            out.append((coef, coef[0], False, True))
            continue
        w = np.exp(-theta * d / d_mean)
        coef, _, rank, _ = np.linalg.lstsq(a * w[:, None], y * w, rcond=None)
        out.append((coef, coef[0] + float(np.dot(coef[1:], q)), rank < lib.e + 1, False))
    return out


def reference_knn(lib, q, k):
    """The single-query knn that the blocked kernel replaced: a full lexsort
    by (distance, row id)."""
    d = np.sqrt(((lib.points - q) ** 2).sum(axis=1))
    ids = np.arange(len(lib))
    if k > ids.size:
        warnings.warn(f"k={k} exceeds usable library size {ids.size}; returning all rows", stacklevel=2)
        k = ids.size
    order = np.lexsort((ids, d))[:k]
    return ids[order], d[order]


def reference_simplex(lib, queries, k=None):
    """The knn-based simplex loop that the blocked kernel replaced."""
    pts, _ = _points_times(queries)
    k = lib.e + 1 if k is None else k
    out = np.empty(len(pts))
    for i, q in enumerate(pts):
        ids, d = reference_knn(lib, q, k)
        w = np.zeros_like(d)
        if d[0] == 0.0:
            w[d == 0.0] = 1.0
        else:
            w = np.exp(-d / d[0])
        out[i] = np.dot(w, lib.targets[ids]) / w.sum()
    return out


def svd_oracle(points, targets, query, theta):
    """Minimum-norm weighted least squares from an explicit SVD, singular
    values below lstsq's default cutoff dropped: (coefficients, prediction)."""
    d = np.sqrt(((points - query) ** 2).sum(axis=1))
    w = np.exp(-theta * d / d.mean())
    a = w[:, None] * np.hstack([np.ones((len(points), 1)), points])
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    keep = s > np.finfo(float).eps * max(a.shape) * s[0]
    coef = vt[keep].T @ ((u[:, keep].T @ (w * targets)) / s[keep])
    return coef, coef[0] + coef[1:] @ query


class TestKnn:
    def test_single_neighbor(self):
        lib = embedding_from([[0.0], [1.0], [2.0]], [0, 0, 0])
        nn = knn(lib, np.array([0.9]), k=1)
        assert nn.indices.tolist() == [1]
        assert nn.distances[0] == pytest.approx(0.1)

    def test_exact_match_first_with_zero_distance(self):
        lib = embedding_from([[3.0, 4.0], [1.0, 1.0], [0.0, 0.0]], [0, 0, 0])
        nn = knn(lib, np.array([1.0, 1.0]), k=3)
        assert nn.indices[0] == 1
        assert nn.distances[0] == 0.0

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(50, 3))
        lib = embedding_from(pts, np.zeros(50))
        for _ in range(25):
            q = rng.normal(size=3)
            nn = knn(lib, q, k=7)
            oi, od = brute_force_knn(pts, q, 7)
            assert nn.indices.tolist() == oi.tolist()
            assert np.allclose(nn.distances, od)

    def test_tie_break_by_row_id(self):
        lib = embedding_from([[1.0], [1.0], [1.0]], [0, 0, 0])
        nn = knn(lib, np.array([0.0]), k=2)
        assert nn.indices.tolist() == [0, 1]

    def test_k_exceeds_library_warns(self):
        lib = embedding_from([[0.0], [1.0]], [0, 0])
        with pytest.warns(UserWarning, match="exceeds"):
            nn = knn(lib, np.array([0.5]), k=5)
        assert len(nn.indices) == 2

    def test_dimension_mismatch(self):
        lib = embedding_from([[0.0, 1.0]], [0])
        with pytest.raises(ValueError, match="shape"):
            knn(lib, np.array([0.0]), k=1)

    def test_empty_library(self):
        lib = Embedding(np.empty((0, 1)), np.empty(0), np.empty(0, dtype=int))
        with pytest.raises(ValueError, match="empty"):
            knn(lib, np.array([0.0]), k=1)


class TestSimplex:
    def test_exact_match_returns_its_target(self):
        lib = embedding_from([[0.0], [1.0], [2.0], [3.0]], [10, 20, 30, 40])
        pred = simplex_predict(lib, np.array([[1.0]]))
        assert pred[0] == 20.0

    def test_equidistant_pair_averages(self):
        lib = embedding_from([[0.0], [2.0], [9.0]], [4, 6, 50])
        pred = simplex_predict(lib, np.array([[1.0]]), k=2)
        assert pred[0] == pytest.approx(5.0)

    def test_three_neighbor_hand_computation(self):
        # distances (1, 2, 3) and targets (1, 2, 3): weights exp(-d/1)
        w = np.exp([-1.0, -2.0, -3.0])
        expected = (w * [1.0, 2.0, 3.0]).sum() / w.sum()
        lib = embedding_from([[1.0], [2.0], [3.0]], [1, 2, 3])
        pred = simplex_predict(lib, np.array([[0.0]]), k=3)
        assert pred[0] == pytest.approx(expected, abs=1e-12)

    def test_weights_properties(self):
        rng = np.random.default_rng(11)
        lib = embedding_from(rng.normal(size=(30, 2)), rng.normal(size=30))
        q = rng.normal(size=2)
        nn = knn(lib, q, k=3)
        from edmcontrol.edm import _simplex_weights

        w = _simplex_weights(nn.distances)
        assert np.all(w > 0) and np.all(w <= 1)
        assert w[0] == w.max()
        wn = w / w.sum()
        assert wn.sum() == pytest.approx(1.0)

    def test_library_permutation_invariance(self):
        rng = np.random.default_rng(13)
        pts = rng.normal(size=(40, 2))
        tgt = rng.normal(size=40)
        lib = embedding_from(pts, tgt)
        q = rng.normal(size=(5, 2))
        base = simplex_predict(lib, q)
        perm = rng.permutation(40)
        lib2 = embedding_from(pts[perm], tgt[perm], times=np.arange(1, 41)[perm])
        assert np.allclose(simplex_predict(lib2, q), base)

    def test_affine_equivariance_in_targets(self):
        rng = np.random.default_rng(17)
        lib = embedding_from(rng.normal(size=(25, 2)), rng.normal(size=25))
        shifted = embedding_from(lib.points, lib.targets + 11.0)
        q = rng.normal(size=(6, 2))
        assert np.allclose(simplex_predict(shifted, q), simplex_predict(lib, q) + 11.0)


    def test_zero_queries_give_an_empty_array(self):
        rng = np.random.default_rng(151)
        lib = embedding_from(rng.normal(size=(20, 2)), rng.normal(size=20))
        got = simplex_predict(lib, np.empty((0, 2)))
        assert got.shape == (0,) and got.dtype == np.float64


class TestSmap:
    def test_theta_zero_equals_ols(self):
        rng = np.random.default_rng(19)
        pts = rng.normal(size=(30, 2))
        tgt = rng.normal(size=30)
        lib = embedding_from(pts, tgt)
        q = rng.normal(size=2)
        out = smap_predict(lib, q[None, :], theta=0.0)[0]
        a = np.hstack([np.ones((30, 1)), pts])
        coef, *_ = np.linalg.lstsq(a, tgt, rcond=None)
        assert np.allclose(out.coefficients, coef, atol=1e-10)

    def test_exact_linear_rule_recovered(self):
        rng = np.random.default_rng(23)
        pts = rng.normal(size=(40, 2))
        tgt = 2.0 + 3.0 * pts[:, 0] - pts[:, 1]
        lib = embedding_from(pts, tgt)
        qs = rng.normal(size=(8, 2))
        for theta in (0.0, 1.0, 4.0):
            for out, q in zip(smap_predict(lib, qs, theta), qs):
                assert np.allclose(out.coefficients, [2.0, 3.0, -1.0], atol=1e-8)
                assert out.prediction == pytest.approx(2 + 3 * q[0] - q[1], abs=1e-8)

    def test_matches_weighted_normal_equations_oracle(self):
        rng = np.random.default_rng(29)
        pts = rng.normal(size=(40, 2))
        tgt = rng.normal(size=40)
        lib = embedding_from(pts, tgt)
        q = rng.normal(size=2)
        out = smap_predict(lib, q[None, :], theta=2.0)[0]
        coef, pred = wls_oracle(pts, tgt, q, 2.0)
        assert np.allclose(out.coefficients, coef, atol=1e-8)
        assert out.prediction == pytest.approx(pred, abs=1e-8)

    def test_coincident_library_degenerate(self):
        lib = embedding_from(np.ones((5, 2)), np.full(5, 7.0))
        out = smap_predict(lib, np.array([[1.0, 1.0]]), theta=2.0)[0]
        assert out.degenerate
        assert out.prediction == 7.0
        assert np.all(out.coefficients[1:] == 0.0)

    def test_non_finite_query_gives_nan_fit(self):
        # no weights exist for a query whose distance mean is not finite:
        # NaN prediction and coefficients, and no least-squares call
        rng = np.random.default_rng(37)
        lib = embedding_from(rng.normal(size=(30, 2)), rng.normal(size=30))
        bad = np.array([[np.nan, 0.0], [np.inf, 0.0]])
        finite = rng.normal(size=2)
        outputs = [smap_predict(lib, q[None, :], theta=2.0)[0] for q in bad]
        outputs += smap_predict(lib, np.vstack([bad, finite]), theta=2.0)[:2]
        for out in outputs:
            assert math.isnan(out.prediction)
            assert out.coefficients.shape == (3,) and np.isnan(out.coefficients).all()
            assert not (out.rank_deficient or out.degenerate)
        block_finite = smap_predict(lib, np.vstack([bad, finite]), theta=2.0)[2]
        coef, pred = wls_oracle(lib.points, lib.targets, finite, 2.0)
        assert block_finite.prediction == pytest.approx(pred, abs=1e-8)

    def test_rank_deficient_flag(self):
        rng = np.random.default_rng(31)
        x = rng.normal(size=20)
        pts = np.column_stack([x, 2 * x])  # collinear coordinates
        lib = embedding_from(pts, rng.normal(size=20))
        out = smap_predict(lib, np.array([[0.0, 0.0]]), theta=0.0)[0]
        assert out.rank_deficient
        assert math.isfinite(out.prediction)

    def test_exclusion_radius_with_plain_array_queries_rejected(self):
        rng = np.random.default_rng(47)
        lib = embedding_from(rng.normal(size=(20, 2)), rng.normal(size=20))
        with pytest.raises(ValueError, match="query times"):
            smap_predict(lib, rng.normal(size=(3, 2)), theta=2.0, exclusion_radius=100)

    def test_exclusion_radius_removing_every_row_rejected(self):
        lib = embedding_from(np.random.default_rng(53).normal(size=(6, 1)), np.zeros(6))
        with pytest.raises(ValueError, match="every library row"):
            smap_predict(lib, lib, theta=1.0, exclusion_radius=10)

    def test_library_too_small(self):
        lib = embedding_from(np.ones((3, 2)), np.ones(3))
        with pytest.raises(ValueError, match="at least"):
            smap_predict(lib, np.array([[0.0, 0.0]]), theta=1.0)

    def test_negative_theta_rejected(self):
        lib = embedding_from(np.random.default_rng(0).normal(size=(10, 1)), np.zeros(10))
        with pytest.raises(ValueError, match="theta"):
            smap_predict(lib, np.array([[0.0]]), theta=-1.0)

    @given(shift=st.floats(-50, 50))
    @settings(max_examples=20, deadline=None)
    def test_affine_equivariance_in_targets(self, shift):
        rng = np.random.default_rng(37)
        pts = rng.normal(size=(25, 2))
        tgt = rng.normal(size=25)
        q = rng.normal(size=(3, 2))
        base = smap_predictions(smap_predict(embedding_from(pts, tgt), q, theta=1.5))
        moved = smap_predictions(smap_predict(embedding_from(pts, tgt + shift), q, theta=1.5))
        assert np.allclose(moved, base + shift, atol=1e-7)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(41)
        pts = rng.normal(size=(30, 3))
        tgt = rng.normal(size=30)
        q = rng.normal(size=(4, 3))
        base = smap_predictions(smap_predict(embedding_from(pts, tgt), q, theta=2.0))
        perm = rng.permutation(30)
        lib2 = Embedding(pts[perm], tgt[perm], np.arange(1, 31)[perm])
        assert np.allclose(smap_predictions(smap_predict(lib2, q, theta=2.0)), base, atol=1e-9)

    def test_coefficients_track_analytic_jacobian(self):
        # logistic map: x' = r x (1 - x) has dx'/dx = r (1 - 2x); a well
        # localized S-map coefficient should recover it within 10%
        from edmcontrol.timeseries import build_delay_embedding

        r = 3.9
        x = np.empty(2000)
        x[0] = 0.4
        for i in range(1, 2000):
            x[i] = r * x[i - 1] * (1 - x[i - 1])
        emb = build_delay_embedding(x, e=1, tau=1, tp=1)
        lib = emb.take(np.arange(1500))
        pred = emb.take(np.arange(1500, len(emb)))
        outs = smap_predict(lib, pred, theta=9.0)
        q = pred.points[:, 0]
        true = r * (1 - 2 * q)
        fitted = np.array([o.coefficients[1] for o in outs])
        away_from_zero = np.abs(true) > 0.5
        rel = np.abs(fitted - true)[away_from_zero] / np.abs(true)[away_from_zero]
        assert np.median(rel) < 0.10


class TestSmapStoredOrderEquivalence:
    """The stored-order solve agrees with a solve over rows sorted by distance."""

    @staticmethod
    def assert_matches_reference(lib, queries, theta, exclusion_radius=-1):
        outs = smap_predict(lib, queries, theta, exclusion_radius=exclusion_radius)
        for i, out in enumerate(outs):
            q = queries.points[i] if hasattr(queries, "points") else queries[i]
            keep = None
            if exclusion_radius >= 0:
                keep = np.abs(lib.times - queries.times[i]) > exclusion_radius
            coef, pred, rank_deficient, degenerate = sorted_reference_smap(lib, q, theta, keep)
            got = np.append(out.coefficients, out.prediction)
            want = np.append(coef, pred)
            assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(1.0, np.abs(want)))
            assert out.rank_deficient == rank_deficient
            assert out.degenerate == degenerate
        return outs

    def test_random_libraries(self):
        rng = np.random.default_rng(59)
        for i in range(40):
            n = int(rng.integers(10, 200))
            e = int(rng.integers(1, 8))
            theta = 0.0 if i % 5 == 0 else float(rng.uniform(0.0, 9.0))
            lib = embedding_from(rng.normal(size=(n, e)), rng.normal(size=n))
            self.assert_matches_reference(lib, rng.normal(size=(3, e)), theta)

    def test_collinear_library_rank_deficient(self):
        rng = np.random.default_rng(61)
        x = rng.normal(size=50)
        lib = embedding_from(np.column_stack([x, 2 * x, -x]), rng.normal(size=50))
        for theta in (0.0, 2.0, 8.0):
            outs = self.assert_matches_reference(lib, rng.normal(size=(4, 3)), theta)
            assert all(o.rank_deficient for o in outs)

    def test_coincident_library_degenerate(self):
        lib = embedding_from(np.full((8, 3), 0.25), np.arange(8.0))
        outs = self.assert_matches_reference(lib, np.full((2, 3), 0.25), 3.0)
        assert all(o.degenerate for o in outs)

    def test_exclusion_radius(self):
        rng = np.random.default_rng(67)
        lib = embedding_from(rng.normal(size=(120, 4)), rng.normal(size=120))
        for radius in (0, 3, 25):
            self.assert_matches_reference(lib, lib, 4.0, exclusion_radius=radius)

    def test_exclusion_equals_fit_on_kept_rows(self):
        from edmcontrol.timeseries import build_delay_embedding

        rng = np.random.default_rng(71)
        emb = build_delay_embedding(np.cumsum(rng.normal(size=300)), e=3, tau=2, tp=1)
        for radius in (0, 5):
            outs = smap_predict(emb, emb, 2.5, exclusion_radius=radius)
            for i, out in enumerate(outs):
                kept = emb.take(np.flatnonzero(np.abs(emb.times - emb.times[i]) > radius))
                ref = smap_predict(kept, emb.points[i : i + 1], 2.5)[0]
                assert_close(out.prediction, ref.prediction)
                assert_close(out.coefficients, ref.coefficients)
                assert (out.rank_deficient, out.degenerate) == (ref.rank_deficient, ref.degenerate)


class TestBlockedKernelEquivalence:
    """The blocked kernel against the per-query loops it replaced."""

    @staticmethod
    def assert_smap_matches_loop(lib, queries, theta, exclusion_radius=-1):
        outs = smap_predict(lib, queries, theta, exclusion_radius=exclusion_radius)
        refs = loop_reference_smap(lib, queries, theta, exclusion_radius)
        assert len(outs) == len(refs)
        for out, (coef, pred, rank_deficient, degenerate) in zip(outs, refs):
            assert (out.rank_deficient, out.degenerate) == (rank_deficient, degenerate)
            assert_close(np.append(out.coefficients, out.prediction), np.append(coef, pred))
        return outs

    @staticmethod
    def assert_simplex_matches_loop(lib, queries, k=None):
        got = simplex_predict(lib, queries, k=k)
        assert np.array_equal(got, reference_simplex(lib, queries, k))
        for q in _points_times(queries)[0]:
            nn = knn(lib, q, lib.e + 1 if k is None else k)
            ids, d = reference_knn(lib, q, lib.e + 1 if k is None else k)
            assert np.array_equal(nn.indices, ids) and np.array_equal(nn.distances, d)
        return got

    def test_smap_random_libraries(self):
        rng = np.random.default_rng(73)
        for i in range(42):
            n = int(rng.integers(10, 200))
            e = 1 + i % 7
            theta = 0.0 if i % 6 == 0 else float(rng.uniform(0.0, 9.0))
            lib = embedding_from(rng.normal(size=(n, e)), rng.normal(size=n))
            self.assert_smap_matches_loop(lib, rng.normal(size=(5, e)), theta)

    def test_smap_collinear_library(self):
        rng = np.random.default_rng(79)
        x = rng.normal(size=60)
        lib = embedding_from(np.column_stack([x, 2 * x, -x]), rng.normal(size=60))
        for theta in (0.0, 2.0, 9.0):
            outs = self.assert_smap_matches_loop(lib, rng.normal(size=(4, 3)), theta)
            assert all(o.rank_deficient for o in outs)

    def test_smap_constant_column(self):
        # the jail at capacity: one coordinate never moves
        rng = np.random.default_rng(83)
        quiet = rng.integers(50, 90, size=80).astype(float)
        lib = embedding_from(np.column_stack([np.full(80, 60.0), quiet]), rng.normal(size=80))
        queries = np.column_stack([np.full(6, 60.0), rng.integers(50, 90, size=6)])
        for theta in (0.0, 2.0, 9.0):
            outs = self.assert_smap_matches_loop(lib, queries, theta)
            assert all(o.rank_deficient for o in outs)

    def test_smap_ill_conditioned_library(self):
        # full rank, but the scaled Gram condition number is far above the
        # limit: every query must take the lstsq fallback
        rng = np.random.default_rng(137)
        x = rng.normal(size=200)
        z = rng.normal(size=200)
        pts = np.column_stack([x, x + 1e-6 * rng.normal(size=200), z])
        lib = embedding_from(pts, x + z + 0.1 * rng.normal(size=200))
        queries = rng.normal(size=(6, 3))
        for theta in (0.0, 3.0):
            outs = self.assert_smap_matches_loop(lib, queries, theta)
            assert not any(o.rank_deficient for o in outs)
            assert not edm._smap_kernel(lib, queries, theta, -1)[1].any()

    def test_smap_far_from_origin(self):
        # count-like coordinates far from the origin, with lags of one series
        # strongly correlated: the intercept cancels large terms, which the
        # refinement step of the Gram solve keeps accurate
        rng = np.random.default_rng(139)
        n = 1500
        a = 3e4 + np.cumsum(rng.normal(size=n + 4))
        b = 3e5 + np.cumsum(rng.normal(size=n + 4))
        pts = np.column_stack([a[4:], a[2:-2], a[:-4], b[4:], b[2:-2], b[:-4]])
        lib = embedding_from(pts, 0.3 * pts[:, 0] - 0.2 * pts[:, 3] + rng.normal(size=n))
        queries = pts[rng.choice(n, 5)] + rng.normal(size=(5, 6))
        self.assert_smap_matches_loop(lib, queries, 2.0)
        assert edm._smap_kernel(lib, queries, 2.0, -1)[1].all()

    def test_smap_coincident_library(self):
        lib = embedding_from(np.full((8, 3), 0.25), np.arange(8.0))
        outs = self.assert_smap_matches_loop(lib, np.full((3, 3), 0.25), 3.0)
        assert all(o.degenerate for o in outs)

    @pytest.mark.parametrize("radius", [0, 3, 25])
    def test_smap_exclusion_radius(self, radius):
        rng = np.random.default_rng(89)
        lib = embedding_from(rng.normal(size=(150, 4)), rng.normal(size=150))
        self.assert_smap_matches_loop(lib, lib, 4.0, exclusion_radius=radius)

    @pytest.mark.parametrize("n_queries", [1, 10], ids=["one_query", "partial_last_block"])
    def test_blocks(self, monkeypatch, n_queries):
        rng = np.random.default_rng(97)
        lib = embedding_from(rng.normal(size=(40, 3)), rng.normal(size=40))
        # four queries per block: 40 rows x (e + 2) float64 values each
        monkeypatch.setattr(edm, "_BLOCK_BYTES", 4 * 40 * 5 * 8)
        assert edm._blocks(10, lib)[-1] == slice(8, 12)
        queries = embedding_from(
            rng.normal(size=(n_queries, 3)), np.zeros(n_queries), times=np.arange(n_queries) + 15
        )
        self.assert_smap_matches_loop(lib, queries, 2.0)
        self.assert_smap_matches_loop(lib, queries, 2.0, exclusion_radius=4)
        self.assert_simplex_matches_loop(lib, queries)

    def test_library_smaller_than_a_block(self):
        rng = np.random.default_rng(101)
        lib = embedding_from(rng.normal(size=(6, 2)), rng.normal(size=6))
        queries = rng.normal(size=(30, 2))
        assert len(edm._blocks(30, lib)) == 1
        self.assert_smap_matches_loop(lib, queries, 1.5)
        self.assert_simplex_matches_loop(lib, queries, k=3)

    def test_simplex_random_libraries(self):
        rng = np.random.default_rng(103)
        for i in range(42):
            n = int(rng.integers(10, 200))
            e = 1 + i % 7
            lib = embedding_from(rng.normal(size=(n, e)), rng.normal(size=n))
            k = None if i % 3 == 0 else int(rng.integers(1, 16))
            self.assert_simplex_matches_loop(lib, rng.normal(size=(5, e)), k)

    def test_simplex_ties_at_kth_distance(self):
        # integer points on a small grid: many rows share the k-th distance
        rng = np.random.default_rng(107)
        lib = embedding_from(rng.integers(0, 4, size=(80, 2)), rng.normal(size=80))
        queries = rng.integers(0, 4, size=(20, 2)) + 0.5 * rng.integers(0, 2, size=(20, 1))
        for k in (1, 2, 3, 5, 8, 13):
            self.assert_simplex_matches_loop(lib, queries, k)

    def test_simplex_zero_distance_matches(self):
        rng = np.random.default_rng(109)
        pts = rng.normal(size=(30, 3))
        lib = embedding_from(np.vstack([pts, pts[:10]]), rng.normal(size=40))
        out = self.assert_simplex_matches_loop(lib, pts)
        # a duplicated point averages its two targets; a single match returns its own
        assert out[0] == (lib.targets[0] + lib.targets[30]) / 2
        assert out[20] == lib.targets[20]

    @pytest.mark.parametrize("k", [6, 9])
    def test_simplex_k_exceeds_library_warns(self, k):
        rng = np.random.default_rng(127)
        lib = embedding_from(rng.normal(size=(5, 2)), rng.normal(size=5))
        queries = rng.normal(size=(3, 2))
        with pytest.warns(UserWarning, match=f"k={k} exceeds usable library size 5"):
            got = simplex_predict(lib, queries, k=k)
        with pytest.warns(UserWarning, match=f"k={k} exceeds usable library size 5"):
            want = reference_simplex(lib, queries, k=k)
        assert np.array_equal(got, want)

    def test_simplex_k_equal_to_usable_rows_is_silent(self):
        rng = np.random.default_rng(131)
        lib = embedding_from(rng.normal(size=(12, 2)), rng.normal(size=12))
        queries = rng.normal(size=(3, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = simplex_predict(lib, queries, k=12)
        assert np.array_equal(got, reference_simplex(lib, queries, k=12))

    @pytest.mark.parametrize("k", [2, 5, 6, 9])
    def test_nan_query_and_nan_library_row(self, k):
        # a NaN distance is a candidate like any other and sorts last: every
        # query still gets exactly min(k, rows) neighbours, none of them -1
        rng = np.random.default_rng(149)
        points = rng.normal(size=(6, 2))
        points[2] = np.nan
        lib = embedding_from(points, rng.normal(size=6))
        queries = np.vstack([rng.normal(size=(3, 2)), [np.nan, 0.0], points[4]])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            got = simplex_predict(lib, queries, k=k)
            want = reference_simplex(lib, queries, k=k)
            for q in queries:
                nn = knn(lib, q, k)
                ids, d = reference_knn(lib, q, k)
                assert nn.indices.shape == (min(k, 6),) and (nn.indices >= 0).all()
                assert np.array_equal(nn.indices, ids)
                assert np.array_equal(nn.distances, d, equal_nan=True)
                finite = np.isfinite(nn.distances)
                assert not (~finite[:-1] & finite[1:]).any()  # NaN last
                assert (nn.indices[~finite] == 2).all() or np.isnan(q).any()
        assert np.array_equal(got, want, equal_nan=True)
        # the NaN row is taken only when k reaches it, and it makes the
        # forecast NaN; the NaN query's neighbours are rows 0, 1, ... by id
        assert np.isnan(got[:3]).tolist() == [k >= 6] * 3
        assert knn(lib, queries[3], 2).indices.tolist() == [0, 1]


class TestOneQueryBranch:
    """One query without an exclusion window takes ``_smap_one``; its output
    equals the block path's on the same query bit for bit.

    The block path is run on that single query, not on the query stacked
    with a copy of itself: with two queries in a block its refinement step
    takes matrix-matrix products where one query takes matrix-vector
    products, so it agrees with its own one-query result only to rounding.
    """

    @staticmethod
    def assert_branches_agree(lib, q, theta):
        (one,), solved = edm._smap_kernel(lib, q[None, :], theta, -1)
        (block,), block_solved = edm._smap_blocks(lib, edm._centred(lib), q[None, :], None, theta, -1)
        assert np.array_equal(
            np.append(one.coefficients, one.prediction),
            np.append(block.coefficients, block.prediction),
            equal_nan=True,
        )
        assert (one.rank_deficient, one.degenerate) == (block.rank_deficient, block.degenerate)
        assert solved.tolist() == block_solved.tolist()
        public = smap_predict(lib, q[None, :], theta)[0]
        assert np.array_equal(public.coefficients, one.coefficients, equal_nan=True)
        return one, bool(solved[0])

    def test_random_libraries(self):
        rng = np.random.default_rng(157)
        for i in range(42):
            n = int(rng.integers(10, 400))
            e = 1 + i % 7
            theta = 0.0 if i % 6 == 0 else float(rng.uniform(0.0, 9.0))
            points = rng.normal(size=(n, e)) * 10 + 50
            if i % 2:  # integer counts, and rows stored one per coordinate as the controller keeps them
                points = np.asfortranarray(np.round(points))
            lib = embedding_from(points, rng.normal(size=n))
            for q in rng.normal(size=(3, e)) * 10 + 50:
                self.assert_branches_agree(lib, q, theta)

    def test_collinear_library(self):
        rng = np.random.default_rng(79)
        x = rng.normal(size=60)
        lib = embedding_from(np.column_stack([x, 2 * x, -x]), rng.normal(size=60))
        for theta in (0.0, 2.0, 9.0):
            out, solved = self.assert_branches_agree(lib, rng.normal(size=3), theta)
            assert out.rank_deficient and not solved

    def test_constant_column(self):
        rng = np.random.default_rng(83)
        quiet = rng.integers(50, 90, size=80).astype(float)
        lib = embedding_from(np.column_stack([np.full(80, 60.0), quiet]), rng.normal(size=80))
        for theta in (0.0, 2.0, 9.0):
            out, solved = self.assert_branches_agree(lib, np.array([60.0, 70.0]), theta)
            assert out.rank_deficient and not solved

    def test_coincident_library(self):
        lib = embedding_from(np.full((8, 3), 0.25), np.arange(8.0))
        out, solved = self.assert_branches_agree(lib, np.full(3, 0.25), 3.0)
        assert out.degenerate and not solved

    def test_ill_conditioned_library(self):
        rng = np.random.default_rng(137)
        x = rng.normal(size=200)
        z = rng.normal(size=200)
        pts = np.column_stack([x, x + 1e-6 * rng.normal(size=200), z])
        lib = embedding_from(pts, x + z + 0.1 * rng.normal(size=200))
        for theta in (0.0, 3.0):
            out, solved = self.assert_branches_agree(lib, rng.normal(size=3), theta)
            assert not out.rank_deficient and not solved

    def test_coordinate_rows_are_read_in_place(self):
        rng = np.random.default_rng(167)
        rows = rng.normal(size=(3, 50))
        kept = embedding_from(rows[:, :40].T, rng.normal(size=40))
        assert np.shares_memory(edm._coordinate_rows(kept), rows)
        stored = embedding_from(rows.T.copy(), rng.normal(size=50))
        coords = edm._coordinate_rows(stored)
        assert coords.flags.c_contiguous and not np.shares_memory(coords, stored.points)


@pytest.fixture(scope="module")
def small_frames():
    from edmcontrol.config import resolve

    cfg = dict(resolve())
    cfg.update(
        grid_width=20, grid_height=20, n_citizens=120, n_cops=12, vision=3.0,
        legitimacy=0.7, jail_capacity=60, warmup_ticks=60, schedule_changes=5,
    )
    return {
        control: standard_run(cfg, seed=0, steps=400, control=control, legitimacy_mode="random")
        for control in (True, False)
    }


@pytest.mark.parametrize("control", [True, False], ids=["controlled", "uncontrolled"])
def test_gram_solves_match_svd_oracle_on_frames(small_frames, control):
    """Every solve the Gram path accepts agrees with the SVD minimum-norm oracle."""
    frame = small_frames[control]
    accepted = 0
    emb = build_generalized_embedding(frame, CONTROL_EMBEDDING)
    n_lib = int(0.6 * len(emb))
    lib, queries = emb.take(np.arange(n_lib)), emb.take(np.arange(n_lib, len(emb)))
    for theta in (0.0, 2.0, 9.0):
        outs, solved = edm._smap_kernel(lib, queries, theta, -1)
        for i in np.flatnonzero(solved):
            coef, pred = svd_oracle(lib.points, lib.targets, queries.points[i], theta)
            assert_close(np.append(outs[i].coefficients, outs[i].prediction), np.append(coef, pred))
        accepted += int(solved.sum())
    emb = build_generalized_embedding(frame, ANALYSIS_EMBEDDING)
    radius = ANALYSIS_EMBEDDING.max_lag + ANALYSIS_EMBEDDING.tp
    for theta in (0.1, 2.0):
        outs, solved = edm._smap_kernel(emb, emb, theta, radius)
        for i in np.flatnonzero(solved):
            keep = np.abs(emb.times - emb.times[i]) > radius
            coef, pred = svd_oracle(emb.points[keep], emb.targets[keep], emb.points[i], theta)
            assert_close(np.append(outs[i].coefficients, outs[i].prediction), np.append(coef, pred))
        accepted += int(solved.sum())
    assert accepted > 0


class TestLogging:
    def test_library_is_silent_by_default(self):
        code = (
            "import numpy as np\n"
            "from edmcontrol.edm import smap_predict\n"
            "from edmcontrol.timeseries import Embedding\n"
            "x = np.arange(20.0)\n"
            "lib = Embedding(np.column_stack([x, 2 * x]), np.sin(x), np.arange(20))\n"
            "assert smap_predict(lib, np.zeros((3, 2)), 1.0)[0].rank_deficient\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "" and proc.stderr == ""
        handlers = logging.getLogger("edmcontrol").handlers
        assert any(isinstance(h, logging.NullHandler) for h in handlers)

    def test_debug_reports_fallback_count(self, caplog):
        rng = np.random.default_rng(131)
        x = rng.normal(size=30)
        collinear = embedding_from(np.column_stack([x, 2 * x]), rng.normal(size=30))
        plain = embedding_from(rng.normal(size=(30, 2)), rng.normal(size=30))
        with caplog.at_level(logging.DEBUG, logger="edmcontrol"):
            smap_predict(collinear, rng.normal(size=(3, 2)), 1.0)
            smap_predict(plain, rng.normal(size=(4, 2)), 1.0)
        messages = [r.getMessage() for r in caplog.records if r.name == "edmcontrol.edm"]
        assert messages == [
            "S-map: 3 of 3 queries took the lstsq fallback",
            "S-map: 0 of 4 queries took the lstsq fallback",
        ]


class TestPearson:
    def test_identical_sequences(self):
        rep = pearson_rho([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert rep.rho == pytest.approx(1.0)
        assert rep.mae == 0.0 and rep.rmse == 0.0

    def test_negation(self):
        x = np.array([1.0, -2.0, 3.0, 0.5])
        rep = pearson_rho(x, -x)
        assert rep.rho == pytest.approx(-1.0)

    def test_textbook_formula_oracle(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        y = np.array([1.1, 1.9, 3.2, 3.8])
        # independent textbook computation
        sxy = ((x - x.mean()) * (y - y.mean())).sum()
        expected = sxy / math.sqrt(((x - x.mean()) ** 2).sum() * ((y - y.mean()) ** 2).sum())
        rep = pearson_rho(x, y)
        assert rep.rho == pytest.approx(expected, abs=1e-12)
        assert rep.n == 4

    def test_nan_pairs_excluded(self):
        rep = pearson_rho([1.0, np.nan, 3.0, 4.0], [1.0, 2.0, np.nan, 4.0])
        assert rep.n == 2

    def test_zero_variance_degenerate_not_zero(self):
        rep = pearson_rho([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        assert rep.degenerate
        assert math.isnan(rep.rho)

    def test_too_few_pairs(self):
        with pytest.raises(ValueError, match="finite pairs"):
            pearson_rho([1.0, np.nan], [1.0, 2.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            pearson_rho([1.0], [1.0, 2.0])
