"""Independent reference computations for the benchmark's output checks.

Nothing here calls edmcontrol: embeddings are indexed straight from frame
columns, the S-map oracle takes the minimum-norm weighted least-squares
solution from an explicit SVD, and the simplex oracle orders neighbours by
(distance, row id) with a stable sort.

The S-map oracle avoids the normal equations and unpivoted QR on purpose.
The normal equations square the condition number: the controller's jailed
and quiet coordinates are nearly collinear (condition numbers near 5e6), and
there they alone are off by 1e-8 while an SVD agrees with a 60-digit solve
to 1e-11.  Unpivoted QR breaks down when the jail sits at capacity and the
jailed coordinates are constant, which makes most forecast solves on an
uncontrolled frame exactly rank-deficient; the minimum-norm solution is then
the defined answer.
"""

from __future__ import annotations

import numpy as np


def lagged_embedding(columns: dict, coords, target: str, tp: int, origins: np.ndarray):
    """Points and targets at the given origin positions (not ticks)."""
    points = np.column_stack([columns[name][origins - lag] for name, lag in coords])
    return points, columns[target][origins + tp]


def wls_coefficients(points, targets, query, theta: float) -> np.ndarray:
    """S-map fit over every library row: intercept first, then one per coordinate.

    Singular values below ``eps * max(rows, columns)`` times the largest are
    dropped, the default cutoff of ``numpy.linalg.lstsq``.
    """
    d = np.sqrt(((points - query) ** 2).sum(axis=1))
    w = np.exp(-theta * d / d.mean())
    a = w[:, None] * np.hstack([np.ones((points.shape[0], 1)), points])
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    keep = s > np.finfo(float).eps * max(a.shape) * s[0]
    return vt[keep].T @ ((u[:, keep].T @ (w * targets)) / s[keep])


def wls_prediction(points, targets, query, theta: float) -> float:
    coef = wls_coefficients(points, targets, query, theta)
    return float(coef[0] + coef[1:] @ query)


def simplex_predictions(lib_points, lib_targets, queries, k: int) -> np.ndarray:
    """Simplex projection with (distance, row id) neighbour order."""
    out = np.empty(queries.shape[0])
    for i, q in enumerate(queries):
        d = np.sqrt(((lib_points - q) ** 2).sum(axis=1))
        nn = np.argsort(d, kind="stable")[:k]
        dn = d[nn]
        w = (dn == 0.0).astype(float) if dn[0] == 0.0 else np.exp(-dn / dn[0])
        out[i] = (w @ lib_targets[nn]) / w.sum()
    return out


def skill(predictions, observations) -> tuple[float, float, float]:
    """Pearson rho, MAE and RMSE."""
    err = predictions - observations
    rho = float(np.corrcoef(predictions, observations)[0, 1])
    return rho, float(np.abs(err).mean()), float(np.sqrt((err**2).mean()))


def delay_scan_point(series: np.ndarray, e: int, tp: int, first: int, last: int, split: float):
    """One aligned simplex scan point: delay embedding of ``series`` on origins
    ``first..last``, chronological library/prediction split, k = e + 1."""
    origins = np.arange(first, last + 1)
    points = np.column_stack([series[origins - j] for j in range(e)])
    targets = series[origins + tp]
    n_lib = int(np.floor(origins.size * split))
    preds = simplex_predictions(points[:n_lib], targets[:n_lib], points[n_lib:], e + 1)
    return skill(preds, targets[n_lib:])
