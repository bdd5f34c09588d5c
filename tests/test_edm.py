import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edmcontrol.edm import knn, pearson_rho, simplex_predict, smap_predict, smap_predictions
from edmcontrol.timeseries import Embedding


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

    def test_exclusion_radius(self):
        lib = embedding_from([[0.0], [0.1], [5.0]], [0, 0, 0], times=[10, 11, 12])
        nn = knn(lib, np.array([0.0]), k=1, query_time=10, exclusion_radius=1)
        assert nn.indices.tolist() == [2]
        with pytest.raises(ValueError, match="every library row"):
            knn(lib, np.array([0.0]), k=1, query_time=11, exclusion_radius=5)

    def test_exclusion_radius_without_query_time_rejected(self):
        lib = embedding_from([[0.0], [0.1], [5.0]], [0, 0, 0], times=[10, 11, 12])
        with pytest.raises(ValueError, match="query times"):
            knn(lib, np.array([0.0]), k=1, exclusion_radius=0)


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

    def test_exclusion_radius_with_plain_array_queries_rejected(self):
        rng = np.random.default_rng(43)
        lib = embedding_from(rng.normal(size=(20, 2)), rng.normal(size=20))
        with pytest.raises(ValueError, match="query times"):
            simplex_predict(lib, rng.normal(size=(3, 2)), exclusion_radius=2)

    def test_affine_equivariance_in_targets(self):
        rng = np.random.default_rng(17)
        lib = embedding_from(rng.normal(size=(25, 2)), rng.normal(size=25))
        shifted = embedding_from(lib.points, lib.targets + 11.0)
        q = rng.normal(size=(6, 2))
        assert np.allclose(simplex_predict(shifted, q), simplex_predict(lib, q) + 11.0)


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

    def test_exclusion_equals_fit_on_kept_rows_bit_for_bit(self):
        from edmcontrol.timeseries import build_delay_embedding

        rng = np.random.default_rng(71)
        emb = build_delay_embedding(np.cumsum(rng.normal(size=300)), e=3, tau=2, tp=1)
        for radius in (0, 5):
            outs = smap_predict(emb, emb, 2.5, exclusion_radius=radius)
            for i, out in enumerate(outs):
                kept = emb.take(np.flatnonzero(np.abs(emb.times - emb.times[i]) > radius))
                ref = smap_predict(kept, emb.points[i : i + 1], 2.5)[0]
                assert out.prediction == ref.prediction
                assert np.array_equal(out.coefficients, ref.coefficients)
                assert (out.rank_deficient, out.degenerate) == (ref.rank_deficient, ref.degenerate)


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
