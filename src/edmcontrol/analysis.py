"""Post-hoc analyses of scenario output frames.

Covers the S-map interaction-coefficient series (the time-varying partial
derivative of the Active count with respect to propaganda), variance
partitioning of that series by legitimacy regime, sustained-rebellion
(trapped-state) detection, and outburst waiting-time statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .control import CONTROL_EMBEDDING
from .edm import smap_predict
from .timeseries import EmbeddingSpec, Frame, build_generalized_embedding

__all__ = [
    "JacobianSeries",
    "TrappedIntervals",
    "VariancePartition",
    "ANALYSIS_EMBEDDING",
    "interaction_coefficients",
    "partition_variance",
    "detect_trapped_state",
    "outburst_onsets",
    "waiting_times",
    "exponential_gof",
]

# Analysis state space: the control-loop coordinates plus the propaganda
# level, so the fitted local model carries a d(active)/d(propaganda) term.
ANALYSIS_EMBEDDING = EmbeddingSpec(
    coordinates=CONTROL_EMBEDDING.coordinates + (("propaganda", 0),),
    target="active",
    tp=5,
)


@dataclass(frozen=True)
class JacobianSeries:
    """Per-query S-map coefficient for the propaganda coordinate.

    ``times[i]`` is the query origin tick; ``coef[i]`` estimates the change in
    the Active forecast per unit of propaganda at that tick.  Queries whose
    solve failed to produce a finite coefficient are NaN and counted in
    ``n_flagged``.
    """

    times: np.ndarray
    coef: np.ndarray
    n_flagged: int = 0

    def write_csv(self, path) -> None:
        import csv

        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["time", "coef"])
            for t, c in zip(self.times, self.coef):
                w.writerow([int(t), repr(float(c))])


def interaction_coefficients(frame: Frame, theta: float = 0.1) -> JacobianSeries:
    """S-map interaction coefficients over a whole recorded run.

    Embeds the frame with the 7-D analysis spec, runs a leave-one-out S-map
    scan (library rows within ``max_lag + tp`` ticks of each query are
    excluded so a query never matches its own temporal neighborhood), and
    extracts the regression coefficient aligned with the propaganda
    coordinate.

    A constant coordinate column makes that coefficient unidentifiable; such
    solves come back rank-deficient and their coefficients are flagged NaN
    rather than fabricated.
    """
    spec = ANALYSIS_EMBEDDING
    emb = build_generalized_embedding(frame, spec)
    ci = spec.coordinates.index(("propaganda", 0)) + 1  # skip intercept
    radius = spec.max_lag + spec.tp
    outputs = smap_predict(emb, emb, theta, exclusion_radius=radius)
    coef = np.empty(len(outputs))
    flagged = 0
    for i, out in enumerate(outputs):
        c = float(out.coefficients[ci])
        if out.rank_deficient or out.degenerate or not math.isfinite(c):
            coef[i] = math.nan
            flagged += 1
        else:
            coef[i] = c
    return JacobianSeries(times=emb.times.copy(), coef=coef, n_flagged=flagged)


@dataclass(frozen=True)
class VariancePartition:
    """Sliding-window coefficient variances split by legitimacy regime.

    ``low_starts`` / ``high_starts`` hold the origin tick of each window;
    ``n_skipped`` counts the windows dropped for non-finite coefficients.
    """

    low: np.ndarray
    high: np.ndarray
    low_starts: np.ndarray
    high_starts: np.ndarray
    n_skipped: int

    def write_csv(self, path) -> None:
        import csv

        rows = sorted(
            [(int(t), "low", float(v)) for t, v in zip(self.low_starts, self.low)]
            + [(int(t), "high", float(v)) for t, v in zip(self.high_starts, self.high)]
        )
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["window_start", "legitimacy_regime", "variance"])
            for t, regime, v in rows:
                w.writerow([t, regime, repr(v)])


def partition_variance(
    jacobians: JacobianSeries,
    legitimacy: np.ndarray,
    threshold: float = 0.7,
    window: int = 100,
    stride: int = 10,
) -> VariancePartition:
    """Sliding-window variance of the coefficient series, split by legitimacy.

    ``legitimacy`` must align with ``jacobians.times``.  Each window's
    variance joins the low or high sample according to whether its mean
    legitimacy lies below ``threshold``.  Windows containing non-finite
    coefficients are skipped and counted in ``n_skipped``.
    """
    coef = np.asarray(jacobians.coef, dtype=np.float64)
    leg = np.asarray(legitimacy, dtype=np.float64)
    if leg.shape != coef.shape:
        raise ValueError(f"legitimacy length {leg.shape} does not match coefficients {coef.shape}")
    if window > coef.size:
        raise ValueError(f"window {window} longer than record {coef.size}")
    times = np.asarray(jacobians.times)
    low, high = [], []
    low_starts, high_starts = [], []
    n_skipped = 0
    for start in range(0, coef.size - window + 1, stride):
        chunk = coef[start : start + window]
        if not np.isfinite(chunk).all():
            n_skipped += 1
            continue
        label = float(leg[start : start + window].mean())
        var = float(np.var(chunk))
        if label < threshold:
            low.append(var)
            low_starts.append(int(times[start]))
        else:
            high.append(var)
            high_starts.append(int(times[start]))
    return VariancePartition(
        low=np.asarray(low, dtype=np.float64),
        high=np.asarray(high, dtype=np.float64),
        low_starts=np.asarray(low_starts, dtype=np.int64),
        high_starts=np.asarray(high_starts, dtype=np.int64),
        n_skipped=n_skipped,
    )


@dataclass(frozen=True)
class TrappedIntervals:
    """Disjoint, sorted (start, end) tick intervals of sustained rebellion."""

    intervals: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.intervals)

    def write_csv(self, path) -> None:
        import csv

        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["start", "end"])
            for s, e in self.intervals:
                w.writerow([s, e])


def detect_trapped_state(
    frame: Frame,
    active_floor: float = 100.0,
    min_duration: int = 200,
) -> TrappedIntervals:
    """Maximal runs of ticks with Active >= floor lasting at least min_duration.

    Interval endpoints are inclusive ticks; re-applying the detector to its
    own output regime or appending quiescent data does not change the result.
    """
    active = frame.column("active")
    times = frame.time
    above = active >= active_floor
    intervals: list[tuple[int, int]] = []
    start = None
    for i, flag in enumerate(above):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            if i - start >= min_duration:
                intervals.append((int(times[start]), int(times[i - 1])))
            start = None
    if start is not None and len(above) - start >= min_duration:
        intervals.append((int(times[start]), int(times[-1])))
    return TrappedIntervals(tuple(intervals))


def outburst_onsets(frame: Frame, floor: float = 20.0) -> np.ndarray:
    """Ticks where the Active count crosses up through ``floor``.

    The first tick counts as an onset if the record starts at or above the
    floor.
    """
    active = frame.column("active")
    above = active >= floor
    crossings = np.flatnonzero(above[1:] & ~above[:-1]) + 1
    if above[0]:
        crossings = np.concatenate(([0], crossings))
    return frame.time[crossings]


def waiting_times(onsets: np.ndarray) -> np.ndarray:
    """Inter-onset intervals in ticks."""
    onsets = np.asarray(onsets)
    return np.diff(onsets).astype(np.float64)


def exponential_gof(waits: np.ndarray) -> tuple[float, float]:
    """Kolmogorov-Smirnov fit of waiting times to an exponential distribution.

    The rate is estimated from the sample mean, which makes the test
    conservative.  Needs at least 10 waiting times.  Returns
    ``(statistic, p_value)``.
    """
    w = np.asarray(waits, dtype=np.float64)
    if w.size < 10:
        raise ValueError(f"need at least 10 waiting times, got {w.size}")
    if np.any(w <= 0):
        raise ValueError("waiting times must be positive")
    from scipy import stats  # imported here: it costs most of the package's import time

    stat, p = stats.kstest(w, "expon", args=(0.0, float(w.mean())))
    return float(stat), float(p)
