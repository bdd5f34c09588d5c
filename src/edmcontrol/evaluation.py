"""Forecast-skill scans over embedding dimension, horizon, and kernel width.

All scans share one protocol: build an embedding from a scalar series, split
its rows into a library (first fraction, chronological) and an out-of-sample
prediction block, forecast the prediction block, and score Pearson skill.
Rows are aligned across scan points so the skills are comparable.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .edm import (
    SkillReport,
    _blocks,
    _nearest,
    _simplex_weights,
    _warn_if_short,
    pearson_rho,
    smap_predict,
    smap_predictions,
)
from .timeseries import (
    Embedding,
    EmbeddingSpec,
    Frame,
    build_delay_embedding,
    build_generalized_embedding,
    split_library_prediction,
)

__all__ = [
    "ScanResult",
    "THETA_GRID",
    "embed_dimension_scan",
    "tp_scan",
    "theta_scan",
    "theta_scan_split",
    "tune_theta",
    "evaluate_out_of_sample",
]

# Default kernel-width grid for theta tuning.
THETA_GRID = (0.0, 0.1, 0.3, 1.0, 2.0, 3.0, 5.0, 9.0)

DEFAULT_SPLIT = 0.6

# Share of a library's rows, taken from its end, that theta tuning validates on.
VALIDATION_FRACTION = 0.25

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ScanResult:
    """Skill per scanned parameter value."""

    axis: np.ndarray
    reports: tuple[SkillReport, ...]

    @property
    def rho(self) -> np.ndarray:
        return np.array([r.rho for r in self.reports], dtype=np.float64)

    def best(self) -> float:
        """Axis value with the highest finite rho."""
        rho = self.rho
        finite = np.isfinite(rho)
        if not finite.any():
            raise ValueError("no finite skill value in scan")
        masked = np.where(finite, rho, -np.inf)
        return float(self.axis[int(np.argmax(masked))])

    def write_csv(self, path, param_name: str = "param") -> None:
        import csv

        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow([param_name, "rho", "mae", "rmse", "n"])
            for x, r in zip(self.axis, self.reports):
                w.writerow([x, repr(r.rho), repr(r.mae), repr(r.rmse), r.n])


def _chronological_split(embedding: Embedding, split: float) -> tuple[Embedding, Embedding]:
    n = len(embedding)
    n_lib = int(np.floor(n * split))
    if n_lib < 1 or n_lib >= n:
        raise ValueError(f"split fraction {split} leaves an empty partition for {n} rows")
    idx = np.arange(n)
    lib, pred = embedding.take(idx[:n_lib]), embedding.take(idx[n_lib:])
    if np.intersect1d(lib.times, pred.times).size:
        raise RuntimeError("library and prediction sets share origin times")
    return lib, pred


def _aligned_simplex_scan(series, points, split: float, tau: int) -> tuple[SkillReport, ...]:
    """Simplex skill at each ``(E, Tp)`` point, all on the same origin rows.

    Only origins valid at the largest E and the largest Tp scanned are kept,
    under one chronological library/prediction split, so the skills are
    comparable across points.  On a finite series every point therefore
    splits the same rows, and one pass over them serves the whole grid.
    Non-finite values make each point drop its own rows, so then each point
    gets a pass over the rows it keeps.
    """
    x = np.asarray(series, dtype=np.float64)
    first = (max(e for e, _ in points) - 1) * tau
    last = x.size - 1 - max(tp for _, tp in points)
    per_point = not np.isfinite(x).all()
    groups = [[p] for p in points] if per_point else [points]
    skills: dict = {}
    for group in groups:
        emb = build_delay_embedding(x, max(e for e, _ in group), tau, max(tp for _, tp in group))
        emb = emb.take(np.flatnonzero((emb.times >= first) & (emb.times <= last)))
        lib, pred = _chronological_split(emb, split)
        skills.update(_simplex_skills(x, lib, pred, group))
    logger.debug(
        "simplex scan: %d points, %d neighbour searches, per-point path: %s",
        len(points),
        sum(len({e for e, _ in group}) for group in groups),
        per_point,
    )
    return tuple(skills[p] for p in points)


def _simplex_skills(x: np.ndarray, lib: Embedding, pred: Embedding, points) -> dict:
    """Simplex skill of ``pred`` against ``lib`` at each ``(E, Tp)`` point.

    The rows hold the delay coordinates up to the largest E of ``points``,
    most recent first, and a point of dimension E uses the first E of them.
    Per query block, the squared coordinate differences are added one
    coordinate at a time in that order, the order in which
    :func:`edm._block_distances` sums them, so the distances at each E are
    the ones ``simplex_predict`` computes on E-dimensional rows.  Each E gets
    one neighbour search (k = E + 1); every Tp at that E reuses its
    neighbours and weights, and only the targets ``x[t + Tp]`` change.
    """
    tps: dict[int, list[int]] = {}
    for e, tp in points:
        tps.setdefault(e, []).append(tp)
    coords = np.ascontiguousarray(lib.points.T)
    forecasts = {p: np.empty(len(pred)) for p in points}
    for b in _blocks(len(pred), lib):
        q = pred.points[b]
        sq = np.zeros((len(q), len(lib)))
        for e in range(1, max(tps) + 1):
            diff = coords[e - 1] - q[:, e - 1, None]
            sq += diff * diff
            if e not in tps:
                continue
            ids, dist = _nearest(np.sqrt(sq), e + 1)
            w = _simplex_weights(dist)
            for tp in tps[e]:
                y = x[lib.times[ids] + tp]
                forecasts[e, tp][b] = (w[:, None, :] @ y[:, :, None])[:, 0, 0] / w.sum(axis=1)
    skills = {}
    for (e, tp), forecast in forecasts.items():
        _warn_if_short(e + 1, len(lib), stacklevel=5)
        skills[e, tp] = pearson_rho(forecast, x[pred.times + tp])
    return skills


def embed_dimension_scan(
    series,
    e_max: int,
    tp: int,
    split: float = DEFAULT_SPLIT,
    tau: int = 1,
) -> ScanResult:
    """Simplex skill as a function of embedding dimension E = 1..e_max.

    Every E uses the same origin rows (those valid at ``e_max``) and the same
    chronological library/prediction split, so the resulting skill curve is
    comparable across dimensions.
    """
    if e_max < 1:
        raise ValueError(f"e_max must be >= 1, got {e_max}")
    return ScanResult(
        axis=np.arange(1, e_max + 1),
        reports=_aligned_simplex_scan(series, [(e, tp) for e in range(1, e_max + 1)], split, tau),
    )


def tp_scan(
    series,
    e: int,
    tp_max: int,
    split: float = DEFAULT_SPLIT,
    tau: int = 1,
) -> ScanResult:
    """Simplex skill as a function of forecast interval Tp = 1..tp_max at fixed E."""
    if tp_max < 1:
        raise ValueError(f"tp_max must be >= 1, got {tp_max}")
    return ScanResult(
        axis=np.arange(1, tp_max + 1),
        reports=_aligned_simplex_scan(series, [(e, tp) for tp in range(1, tp_max + 1)], split, tau),
    )


def theta_scan_split(library: Embedding, queries: Embedding, grid=THETA_GRID) -> ScanResult:
    """S-map skill on a fixed library/query split for each theta in the grid."""
    reports = []
    for theta in grid:
        preds = smap_predictions(smap_predict(library, queries, theta))
        reports.append(pearson_rho(preds, queries.targets))
    return ScanResult(axis=np.asarray(grid, dtype=np.float64), reports=tuple(reports))


def theta_scan(
    series,
    e: int,
    tp: int,
    split: float = DEFAULT_SPLIT,
    grid=THETA_GRID,
    tau: int = 1,
) -> ScanResult:
    """S-map skill over the kernel-width grid on a delay embedding of a series."""
    emb = build_delay_embedding(np.asarray(series, dtype=np.float64), e, tau, tp)
    lib, pred = _chronological_split(emb, split)
    return theta_scan_split(lib, pred, grid)


def tune_theta(library: Embedding, grid=THETA_GRID) -> float:
    """Pick theta by skill on the last ``VALIDATION_FRACTION`` of the library's
    rows, fitted on the rows before them."""
    fit, val = _chronological_split(library, 1.0 - VALIDATION_FRACTION)
    return theta_scan_split(fit, val, grid).best()


def evaluate_out_of_sample(
    frame: Frame,
    spec: EmbeddingSpec,
    lib_range: tuple[int, int],
    pred_range: tuple[int, int],
    theta: float | None = None,
) -> SkillReport:
    """Out-of-sample S-map skill under a train/test protocol on tick ranges.

    Builds the generalized embedding, partitions rows by origin tick into the
    (disjoint) library and prediction ranges, S-maps the prediction block
    against the library, and reports skill.  ``theta=None`` tunes the kernel
    width on a validation slice of the library first.
    """
    emb = build_generalized_embedding(frame, spec)
    lib, pred = split_library_prediction(emb, lib_range, pred_range)
    if theta is None:
        theta = tune_theta(lib)
    preds = smap_predictions(smap_predict(lib, pred, theta))
    return pearson_rho(preds, pred.targets)
