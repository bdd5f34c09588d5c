"""Nearest-neighbor search, simplex projection, and S-map regression.

The S-map fits, per query, a linear model over every usable library row
reweighted by an exponential kernel ``exp(-theta * d / D)`` where ``d`` is the
distance from the query and ``D`` the mean distance over the usable rows.  The
fitted coefficient vector doubles as an estimate of the local Jacobian between
the target and each state-space coordinate.
"""

from __future__ import annotations

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


def _distances_from(library: Embedding, query: np.ndarray) -> np.ndarray:
    q = np.asarray(query, dtype=np.float64)
    if q.shape != (library.e,):
        raise ValueError(f"query has shape {q.shape}, library dimension is {library.e}")
    return np.sqrt(((library.points - q) ** 2).sum(axis=1))


def _exclusion_mask(library: Embedding, query_time, exclusion_radius: int) -> np.ndarray | None:
    """Boolean mask of library rows to keep, or None when nothing is excluded."""
    if exclusion_radius < 0:
        return None
    if query_time is None:
        raise ValueError("exclusion_radius needs query times: pass an Embedding or query_time")
    keep = np.abs(library.times - int(query_time)) > exclusion_radius
    if not keep.any():
        raise ValueError("exclusion radius removed every library row")
    return keep


def knn(
    library: Embedding,
    query: np.ndarray,
    k: int,
    query_time: int | None = None,
    exclusion_radius: int = -1,
) -> NeighborSet:
    """Exact k nearest library rows to ``query`` by Euclidean distance.

    Ties are broken by ascending library row id, so the result is
    deterministic.  When ``query_time`` is given, rows whose origin lies
    within ``exclusion_radius`` ticks of it are removed first (leave-one-out
    support).  If ``k`` exceeds the usable library size, all rows are
    returned with a warning.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(library) == 0:
        raise ValueError("empty library")
    dist = _distances_from(library, query)
    ids = np.arange(len(library))
    keep = _exclusion_mask(library, query_time, exclusion_radius)
    if keep is not None:
        dist, ids = dist[keep], ids[keep]
    if k > ids.size:
        warnings.warn(
            f"k={k} exceeds usable library size {ids.size}; returning all rows",
            stacklevel=2,
        )
        k = ids.size
    order = np.lexsort((ids, dist))[:k]
    return NeighborSet(indices=ids[order], distances=dist[order])


def _simplex_weights(distances: np.ndarray) -> np.ndarray:
    """Exponential simplex kernel, scaled by the nearest distance.

    Zero-distance neighbors (exact state matches) take over entirely:
    they get uniform weight and all others get zero.
    """
    w = np.zeros_like(distances)
    if distances[0] == 0.0:
        w[distances == 0.0] = 1.0
    else:
        w = np.exp(-distances / distances[0])
    return w


def _query_points_times(queries):
    if isinstance(queries, Embedding):
        return queries.points, queries.times
    pts = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    return pts, None


def simplex_predict(
    library: Embedding,
    queries,
    k: int | None = None,
    exclusion_radius: int = -1,
) -> np.ndarray:
    """Simplex projection: distance-weighted average of neighbor targets.

    ``queries`` may be an :class:`Embedding` (whose origin times drive the
    optional exclusion window) or a plain 2-D array of state vectors.
    ``k`` defaults to ``E + 1``.
    """
    pts, times = _query_points_times(queries)
    if k is None:
        k = library.e + 1
    out = np.empty(pts.shape[0], dtype=np.float64)
    for i, q in enumerate(pts):
        qt = None if times is None else times[i]
        nn = knn(library, q, k, query_time=qt, exclusion_radius=exclusion_radius)
        w = _simplex_weights(nn.distances)
        out[i] = np.dot(w, library.targets[nn.indices]) / w.sum()
    return out


def smap_predict(
    library: Embedding,
    queries,
    theta: float,
    exclusion_radius: int = -1,
) -> list[SMapOutput]:
    """Locally weighted linear prediction (S-map) for each query.

    For a query ``y``: take every usable library row in stored order
    (locality comes from the kernel alone), compute the mean distance ``D``
    over the usable rows, reweight the design matrix ``(1 | X)`` and the
    response by ``exp(-theta * d_i / D)``, solve the least-squares problem
    with a rank-revealing factorization, and evaluate the fitted affine map
    at ``y``.

    With ``theta = 0`` every weight is 1 and the solve reduces to ordinary
    least squares over the usable rows.  If all usable rows coincide with
    the query (``D = 0``) the output is flagged degenerate: the prediction
    is the mean target and the coordinate coefficients are zero.
    """
    if theta < 0:
        raise ValueError("theta must be >= 0")
    min_rows = library.e + 2
    if len(library) < min_rows:
        raise ValueError(
            f"library has {len(library)} rows; S-map needs at least {min_rows} for e={library.e}"
        )
    pts, times = _query_points_times(queries)
    design = np.empty((len(library), library.e + 1), dtype=np.float64)
    design[:, 0] = 1.0
    design[:, 1:] = library.points
    outputs: list[SMapOutput] = []
    for i, q in enumerate(pts):
        dist = _distances_from(library, q)
        a, y = design, library.targets
        keep = _exclusion_mask(library, None if times is None else times[i], exclusion_radius)
        if keep is not None:
            dist, a, y = dist[keep], a[keep], y[keep]
        d_mean = float(dist.mean())
        if d_mean == 0.0:
            coef = np.zeros(library.e + 1)
            coef[0] = float(y.mean())
            outputs.append(SMapOutput(coef[0], coef, degenerate=True))
            continue
        w = np.exp(-theta * dist / d_mean)
        coef, _, rank, _ = np.linalg.lstsq(a * w[:, None], y * w, rcond=None)
        outputs.append(
            SMapOutput(
                prediction=coef[0] + float(np.dot(coef[1:], q)),
                coefficients=coef,
                rank_deficient=rank < library.e + 1,
            )
        )
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
