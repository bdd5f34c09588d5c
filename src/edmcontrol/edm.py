"""Nearest-neighbor search, simplex projection, and S-map regression.

The S-map fits, per query, a linear model over every usable library row
reweighted by an exponential kernel ``exp(-theta * d / D)`` where ``d`` is the
distance from the query and ``D`` the mean distance over the usable rows.  The
fitted coefficient vector doubles as an estimate of the local Jacobian between
the target and each state-space coordinate.

Both methods run one blocked kernel: each block of queries gets its
distances and weights in one pass, simplex selects neighbours with a partial
sort, and the S-map solves each query's small Gram system in one batched
solve.  A single S-map query without an exclusion window, the closed loop's
one forecast per tick, runs the same operations on 2-D arrays, without the
block bookkeeping, and gives the block path's result bit for bit.  S-map
queries whose fit is degenerate, singular or ill-conditioned fall back to a
rank-revealing least-squares solve.  Only the S-map takes an exclusion
window, for its leave-one-out use; simplex forecasts out of sample and may
use every library row.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .timeseries import Embedding

__all__ = [
    "NeighborSet",
    "SMapOutput",
    "SkillReport",
    "knn",
    "simplex_predict",
    "smap_predict",
    "smap_predictions",
    "pearson_rho",
]

logger = logging.getLogger(__name__)

# Bytes of the largest array one query block builds: the S-map's stacked
# product, E + 2 float64 values per query and library row (simplex's few
# queries x rows arrays fit the same budget).  Blocks stay near a MB
# whatever the library size.
_BLOCK_BYTES = 1 << 20

# A Gram matrix scaled to unit diagonal is solved directly, with one step of
# refinement, up to this condition number.  The normal equations square the
# condition number of the weighted design; beyond it the rank-revealing
# lstsq is the accurate answer.
_GRAM_COND_MAX = 1e6


@dataclass(frozen=True)
class NeighborSet:
    """Library row positions ordered by distance (ties broken by row id)."""

    indices: np.ndarray
    distances: np.ndarray


@dataclass(frozen=True)
class SMapOutput:
    """One S-map solve: prediction plus the fitted local linear model.

    ``coefficients[0]`` is the intercept; ``coefficients[1:]`` align with the
    embedding coordinates and estimate the partial derivatives of the target
    with respect to each coordinate.
    """

    prediction: float
    coefficients: np.ndarray
    rank_deficient: bool = False
    degenerate: bool = False


@dataclass(frozen=True)
class SkillReport:
    """Forecast skill over finite (prediction, observation) pairs."""

    rho: float
    mae: float
    rmse: float
    n: int
    degenerate: bool = False


def _query_points_times(library: Embedding, queries):
    if isinstance(queries, Embedding):
        pts, times = queries.points, queries.times
    else:
        pts, times = np.atleast_2d(np.asarray(queries, dtype=np.float64)), None
    if pts.ndim != 2 or pts.shape[1] != library.e:
        raise ValueError(f"query has shape {pts.shape[1:]}, library dimension is {library.e}")
    return pts, times


def _blocks(n_queries: int, library: Embedding):
    """Query slices whose (queries, rows, E + 2) arrays fit in ``_BLOCK_BYTES``."""
    size = max(1, _BLOCK_BYTES // (8 * len(library) * (library.e + 2)))
    return [slice(i, i + size) for i in range(0, n_queries, size)]


def _coordinate_rows(library: Embedding) -> np.ndarray:
    """The library coordinates one per row (E x N): ``points.T`` itself when
    each coordinate's values are already contiguous, else a copy that makes
    them so."""
    coords = library.points.T
    if coords.strides[1] != coords.itemsize:
        coords = np.ascontiguousarray(coords)
    return coords


def _block_distances(coords, pts):
    """Distances from each query to every library row.

    ``coords`` holds the library coordinates one per row (E x N), so the
    squared differences are summed coordinate by coordinate: the same sums
    as a row-wise ``sum`` up to E = 7, without a reduction over a short axis.
    """
    diff = coords[None, :, :] - pts[:, :, None]
    diff *= diff
    return np.sqrt(diff.sum(axis=1))


def _nearest(dist: np.ndarray, k: int):
    """Each query's k nearest rows in (distance, row id) order.

    ``np.partition`` finds each query's k-th distance; only the rows at or
    below it are sorted.  Every query has at least ``min(k, rows)`` such
    candidates, so the first that many of each query's sorted candidates
    are its ids and distances, of shape ``(queries, min(k, rows))``.
    """
    n_queries, n_rows = dist.shape
    width = min(k, n_rows)
    kth = np.partition(dist, width - 1, axis=1)[:, width - 1 : width]
    q, ids = np.nonzero(~(dist > kth))  # NaN distances stay candidates and sort last
    d = dist[q, ids]
    order = np.lexsort((ids, d, q))
    q, ids, d = q[order], ids[order], d[order]
    take = np.arange(q.size) - np.searchsorted(q, q) < width
    return ids[take].reshape(n_queries, width), d[take].reshape(n_queries, width)


def _neighbors(library: Embedding, pts, k: int):
    """:func:`_nearest` over every query, block by block, warning when ``k``
    exceeds the library size."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(library) == 0:
        raise ValueError("empty library")
    coords = _coordinate_rows(library)
    # at least one block, so that zero queries give empty (0, min(k, rows)) tables
    blocks = _blocks(len(pts), library) or [slice(0, 0)]
    parts = [_nearest(_block_distances(coords, pts[b]), k) for b in blocks]
    ids = np.concatenate([p[0] for p in parts])
    dist = np.concatenate([p[1] for p in parts])
    _warn_if_short(k, len(library), stacklevel=4)
    return ids, dist


def _warn_if_short(k: int, rows: int, stacklevel: int) -> None:
    """Warn when ``k`` exceeds the library's ``rows``."""
    if k > rows:
        warnings.warn(
            f"k={k} exceeds usable library size {rows}; returning all rows",
            stacklevel=stacklevel,
        )


def knn(library: Embedding, query: np.ndarray, k: int) -> NeighborSet:
    """Exact k nearest library rows to ``query`` by Euclidean distance.

    Ties are broken by ascending library row id, so the result is
    deterministic.  If ``k`` exceeds the library size, all rows are
    returned with a warning.
    """
    q = np.asarray(query, dtype=np.float64)
    if q.shape != (library.e,):
        raise ValueError(f"query has shape {q.shape}, library dimension is {library.e}")
    ids, dist = _neighbors(library, q[None, :], k)
    return NeighborSet(indices=ids[0], distances=dist[0])


def _simplex_weights(distances: np.ndarray) -> np.ndarray:
    """Exponential simplex kernel along the last axis, scaled by the nearest
    (first) distance.

    Zero-distance neighbors (exact state matches) take over entirely:
    they get uniform weight and all others get zero.
    """
    nearest = distances[..., :1]
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.exp(-distances / nearest)
    return np.where(nearest == 0.0, (distances == 0.0).astype(np.float64), w)


def simplex_predict(library: Embedding, queries, k: int | None = None) -> np.ndarray:
    """Simplex projection: distance-weighted average of neighbor targets.

    ``queries`` may be an :class:`Embedding` or a plain 2-D array of state
    vectors.  ``k`` defaults to ``E + 1``.
    """
    pts, _ = _query_points_times(library, queries)
    if k is None:
        k = library.e + 1
    ids, dist = _neighbors(library, pts, k)
    w = _simplex_weights(dist)
    y = library.targets[ids]
    return (w[:, None, :] @ y[:, :, None])[:, 0, 0] / w.sum(axis=1)


def _lstsq_fit(library: Embedding, query, dist, keep, theta: float) -> SMapOutput:
    """One S-map query by rank-revealing least squares on the usable rows.

    Takes the fits the Gram solve does not: all usable rows at the query
    (``D = 0``, flagged degenerate: mean target, zero slopes), singular and
    ill-conditioned ones.  It returns the minimum-norm solution.  A
    non-finite distance mean (a NaN or infinite coordinate in the query or a
    used library row) leaves no weights to fit with: the prediction and
    coefficients are NaN.
    """
    a = np.empty((len(library), library.e + 1), dtype=np.float64)
    a[:, 0] = 1.0
    a[:, 1:] = library.points
    y = library.targets
    if keep is not None:
        dist, a, y = dist[keep], a[keep], y[keep]
    d_mean = float(dist.mean())
    if not math.isfinite(d_mean):
        return SMapOutput(math.nan, np.full(library.e + 1, math.nan))
    if d_mean == 0.0:
        coef = np.zeros(library.e + 1)
        coef[0] = float(y.mean())
        return SMapOutput(coef[0], coef, degenerate=True)
    w = np.exp(-theta * dist / d_mean)
    coef, _, rank, _ = np.linalg.lstsq(a * w[:, None], y * w, rcond=None)
    return SMapOutput(
        prediction=coef[0] + float(np.dot(coef[1:], query)),
        coefficients=coef,
        rank_deficient=rank < library.e + 1,
    )


def _centred(library: Embedding):
    """The library as the Gram solve reads it: the coordinate rows (E x N),
    their mean, and the stacked rows ``(1, X - mean, y)``.

    One stacked product of these rows gives a query's weighted Gram matrix
    and right-hand side.  Centring the coordinates keeps the intercept column
    from dominating the Gram matrix.
    """
    coords = _coordinate_rows(library)
    center = coords.sum(axis=1) / len(library)
    rows = np.empty((library.e + 2, len(library)), dtype=np.float64)
    rows[0] = 1.0
    np.subtract(coords, center[:, None], out=rows[1:-1])
    rows[-1] = library.targets
    return coords, center, rows


def _smap_blocks(library: Embedding, centred, pts, times, theta: float, exclusion_radius: int):
    """S-map outputs for any number of queries, block by block, plus a mask
    of the queries the Gram solve took."""
    coords, center, rows = centred
    design, target = rows[:-1], rows[-1]
    outputs: list[SMapOutput] = []
    solved = np.zeros(len(pts), dtype=bool)
    for b in _blocks(len(pts), library):
        q = pts[b]
        dist = _block_distances(coords, q)
        keep = None
        if exclusion_radius < 0:
            d_mean = dist.mean(axis=1)
        else:
            keep = np.abs(library.times[None, :] - times[b, None]) > exclusion_radius
            if not keep.any(axis=1).all():
                raise ValueError("exclusion radius removed every library row")
            d_mean = np.where(keep, dist, 0.0).sum(axis=1) / keep.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            w2 = np.exp(-2.0 * theta * dist / d_mean[:, None])
        if keep is not None:
            w2[~keep] = 0.0
        moments = (rows[None, :, :] * w2[:, None, :]) @ rows.T
        gram, rhs = moments[:, :-1, :-1], moments[:, :-1, -1]
        diag = np.diagonal(gram, axis1=1, axis2=2)
        ok = np.flatnonzero((d_mean > 0.0) & (diag > 0.0).all(axis=1))
        s = 1.0 / np.sqrt(diag[ok])
        scaled = gram[ok] * s[:, :, None] * s[:, None, :]
        eig = np.linalg.eigvalsh(scaled)
        well = eig[:, 0] > eig[:, -1] / _GRAM_COND_MAX
        ok, s, scaled = ok[well], s[well], scaled[well]
        c = s * np.linalg.solve(scaled, (s * rhs[ok])[:, :, None])[:, :, 0]
        # one refinement step from the weighted residuals: the intercept
        # cancels large terms when coordinates sit far from the origin
        resid = (target - c @ design) * w2[ok]
        c += s * np.linalg.solve(scaled, (s * (resid @ design.T))[:, :, None])[:, :, 0]
        coef = c.copy()
        coef[:, 0] -= c[:, 1:] @ center
        pred = c[:, 0] + ((q[ok] - center) * c[:, 1:]).sum(axis=1)
        solved[b][ok] = True
        fits = dict(zip(ok.tolist(), zip(pred, coef)))
        for j in range(len(q)):
            if j in fits:
                outputs.append(SMapOutput(*fits[j]))
            else:
                kept = None if keep is None else keep[j]
                outputs.append(_lstsq_fit(library, q[j], dist[j], kept, theta))
    return outputs, solved


def _smap_one(library: Embedding, centred, query, theta: float):
    """One query without an exclusion window: the operations of
    :func:`_smap_blocks` on 2-D arrays, falling back to :func:`_lstsq_fit`
    under the same conditions.  Returns the output and whether the Gram
    solve took it."""
    coords, center, rows = centred
    dist = _block_distances(coords, query[None, :])[0]
    d_mean = dist.mean()
    with np.errstate(divide="ignore", invalid="ignore"):
        w2 = np.exp(-2.0 * theta * dist / d_mean)
    moments = (rows * w2) @ rows.T
    gram, rhs = moments[:-1, :-1], moments[:-1, -1]
    diag = np.diagonal(gram)
    if d_mean > 0.0 and (diag > 0.0).all():
        s = 1.0 / np.sqrt(diag)
        scaled = gram * s[:, None] * s[None, :]
        eig = np.linalg.eigvalsh(scaled)
        if eig[0] > eig[-1] / _GRAM_COND_MAX:
            design, target = rows[:-1], rows[-1]
            c = s * np.linalg.solve(scaled, (s * rhs)[:, None])[:, 0]
            resid = (target - c @ design) * w2
            c += s * np.linalg.solve(scaled, (s * (resid @ design.T))[:, None])[:, 0]
            coef = c.copy()
            coef[0] -= c[1:] @ center
            return SMapOutput(c[0] + ((query - center) * c[1:]).sum(), coef), True
    return _lstsq_fit(library, query, dist, None, theta), False


def _smap_kernel(library: Embedding, queries, theta: float, exclusion_radius: int):
    """S-map outputs, plus a mask of the queries the Gram solve took (the
    others went to :func:`_lstsq_fit`).  A single query without an exclusion
    window takes :func:`_smap_one`, every other call :func:`_smap_blocks`."""
    if theta < 0:
        raise ValueError("theta must be >= 0")
    min_rows = library.e + 2
    if len(library) < min_rows:
        raise ValueError(
            f"library has {len(library)} rows; S-map needs at least {min_rows} for e={library.e}"
        )
    pts, times = _query_points_times(library, queries)
    if exclusion_radius >= 0 and times is None:
        raise ValueError("exclusion_radius needs query times: pass an Embedding")
    centred = _centred(library)
    if len(pts) == 1 and exclusion_radius < 0:
        output, solved = _smap_one(library, centred, pts[0], theta)
        return [output], np.array([solved])
    return _smap_blocks(library, centred, pts, times, theta, exclusion_radius)


def smap_predict(
    library: Embedding,
    queries,
    theta: float,
    exclusion_radius: int = -1,
) -> list[SMapOutput]:
    """Locally weighted linear prediction (S-map) for each query.

    For a query ``y``: take every usable library row (locality comes from
    the kernel alone), compute the mean distance ``D`` over the usable rows,
    reweight the design matrix ``(1 | X)`` and the response by
    ``exp(-theta * d_i / D)``, solve the weighted least-squares problem, and
    evaluate the fitted affine map at ``y``.  Well-conditioned fits are
    solved through their normal equations; the rest through a rank-revealing
    factorization, which gives the minimum-norm solution and sets
    ``rank_deficient``.

    With ``theta = 0`` every weight is 1 and the solve reduces to ordinary
    least squares over the usable rows.  If all usable rows coincide with
    the query (``D = 0``) the output is flagged degenerate: the prediction
    is the mean target and the coordinate coefficients are zero.
    """
    outputs, solved = _smap_kernel(library, queries, theta, exclusion_radius)
    n_lstsq = solved.size - int(solved.sum())
    logger.debug("S-map: %d of %d queries took the lstsq fallback", n_lstsq, solved.size)
    return outputs


def smap_predictions(outputs: list[SMapOutput]) -> np.ndarray:
    """Prediction column from a list of S-map outputs."""
    return np.array([o.prediction for o in outputs], dtype=np.float64)


def pearson_rho(predictions, observations) -> SkillReport:
    """Pearson correlation, MAE and RMSE over finite pairs.

    Zero variance in either sequence makes the correlation undefined: the
    report is flagged degenerate and ``rho`` is NaN rather than 0.
    """
    p = np.asarray(predictions, dtype=np.float64)
    o = np.asarray(observations, dtype=np.float64)
    if p.shape != o.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {o.shape}")
    finite = np.isfinite(p) & np.isfinite(o)
    n = int(finite.sum())
    if n < 2:
        raise ValueError(f"need at least 2 finite pairs, got {n}")
    p, o = p[finite], o[finite]
    err = p - o
    mae = float(np.abs(err).mean())
    rmse = float(np.sqrt((err**2).mean()))
    dp = p - p.mean()
    do = o - o.mean()
    sp = float(np.sqrt((dp**2).sum()))
    so = float(np.sqrt((do**2).sum()))
    # scale-relative zero-variance test: constant sequences carry only
    # rounding dust, which must not masquerade as correlation
    tiny_p = 1e-12 * max(1.0, float(np.abs(p).max())) * math.sqrt(n)
    tiny_o = 1e-12 * max(1.0, float(np.abs(o).max())) * math.sqrt(n)
    if sp <= tiny_p or so <= tiny_o:
        return SkillReport(rho=math.nan, mae=mae, rmse=rmse, n=n, degenerate=True)
    rho = float(np.clip(np.dot(dp, do) / (sp * so), -1.0, 1.0))
    return SkillReport(rho=rho, mae=mae, rmse=rmse, n=n)
