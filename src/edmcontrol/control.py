"""Logistic propaganda controller driven by state-space forecasts.

The closed loop embeds the jailed/quiet history, S-map-forecasts the Active
count five steps ahead from the most recent completed observation, and maps
the forecast through a bounded logistic response to set the propaganda level
for the next tick.  :class:`EdmController` keeps the embedding library across
ticks and appends one row per tick instead of re-embedding the history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .edm import smap_predict
from .timeseries import Embedding, EmbeddingSpec, Frame, build_state_vector

__all__ = [
    "ControllerParams",
    "LegitimacySchedule",
    "LoopConfig",
    "ControlDecision",
    "CONTROL_EMBEDDING",
    "propaganda_response",
    "make_legitimacy_schedule",
    "closed_loop_controller",
    "EdmController",
]

# Six-dimensional control-loop state space: jailed and quiet counts at lags
# 0, 2 and 4 ticks, forecasting the Active count five ticks ahead.
CONTROL_EMBEDDING = EmbeddingSpec(
    coordinates=(
        ("jailed", 0),
        ("jailed", 2),
        ("jailed", 4),
        ("quiet", 0),
        ("quiet", 2),
        ("quiet", 4),
    ),
    target="active",
    tp=5,
)


@dataclass(frozen=True)
class ControllerParams:
    """Bounds and shape of the logistic propaganda response."""

    p_min: float = 0.06
    p_max: float = 0.6
    slope: float = 0.05
    active_midpoint: float = 50.0

    def __post_init__(self):
        if not self.p_min < self.p_max:
            raise ValueError("p_min must be strictly below p_max")
        if self.slope <= 0:
            raise ValueError("slope must be positive")


def propaganda_response(a_hat: float, params: ControllerParams = ControllerParams()) -> float:
    """Logistic map from forecast Active count to a bounded propaganda level.

    ``P = (p_max - p_min) / (1 + exp(-slope * (a_hat - midpoint))) + p_min``;
    strictly increasing in the forecast and confined to the open interval
    (p_min, p_max).  Far in the logistic tails the floating-point result
    saturates; it is nudged back inside the open interval so the bound
    contract holds for any finite forecast.
    """
    if not math.isfinite(a_hat):
        raise ValueError(f"forecast must be finite, got {a_hat}")
    span = params.p_max - params.p_min
    z = min(-params.slope * (a_hat - params.active_midpoint), 700.0)
    p = span / (1.0 + math.exp(z)) + params.p_min
    lo = math.nextafter(params.p_min, math.inf)
    hi = math.nextafter(params.p_max, -math.inf)
    return min(max(p, lo), hi)


@dataclass(frozen=True)
class LegitimacySchedule:
    """Piecewise-constant legitimacy: 20 random change points over a run.

    ``values[0]`` holds from tick 1 until the first change tick; ``values[i]``
    holds from ``change_times[i-1]`` on, so there are ``len(change_times)``
    segments after the start.
    """

    change_times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        ct = np.asarray(self.change_times, dtype=np.int64)
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.size != ct.size + 1:
            raise ValueError("need one value per segment: len(values) == len(change_times) + 1")
        if ct.size and not np.all(np.diff(ct) > 0):
            raise ValueError("change times must be strictly increasing")
        object.__setattr__(self, "change_times", ct)
        object.__setattr__(self, "values", vals)

    def materialize(self, steps: int) -> np.ndarray:
        ticks = np.arange(1, steps + 1)
        segs = np.searchsorted(self.change_times, ticks, side="right")
        return self.values[segs]


def make_legitimacy_schedule(
    seed,
    total_ticks: int,
    n_changes: int = 20,
    low: float = 0.6,
    high: float = 0.85,
) -> LegitimacySchedule:
    """Draw a random legitimacy schedule: values uniform on (low, high].

    Change points are drawn uniformly without replacement from the open
    interval (0, total_ticks) and sorted.
    """
    if total_ticks <= n_changes:
        raise ValueError("total_ticks must exceed the number of change points")
    rng = np.random.default_rng(seed)
    change_times = np.sort(rng.choice(np.arange(1, total_ticks), size=n_changes, replace=False))
    # high - U[0, span) lies in (low, high]
    values = high - rng.random(n_changes + 1) * (high - low)
    return LegitimacySchedule(change_times, values)


@dataclass(frozen=True)
class LoopConfig:
    """Closed-loop configuration.

    ``warmup_ticks`` observations accumulate before the first control action;
    after that the library grows by one embedding row per tick.
    """

    warmup_ticks: int = 3000
    spec: EmbeddingSpec = CONTROL_EMBEDDING
    theta: float = 2.0

    def __post_init__(self):
        floor = self.spec.max_lag + self.spec.tp + (self.spec.e + 2)
        if self.warmup_ticks < floor:
            raise ValueError(
                f"warmup_ticks={self.warmup_ticks} below minimum {floor}"
                " (max lag + horizon + minimum library size)"
            )
        if self.theta < 0:
            raise ValueError("theta must be >= 0")


@dataclass(frozen=True)
class ControlDecision:
    """One controller evaluation: propaganda for the next tick plus audit data."""

    propaganda: float
    forecast: float = math.nan
    engaged: bool = False
    held: bool = False


def _same_start(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether views ``a`` and ``b`` start at the same element of one buffer
    with the same strides: their first elements then occupy the same bytes."""
    return (
        a.base is not None
        and a.base is b.base
        and a.strides == b.strides
        and np.may_share_memory(a[:1], b[:1])
    )


def _grown(a: np.ndarray, n: int, capacity: int) -> np.ndarray:
    """A copy of ``a`` with room for ``capacity`` entries along its last axis,
    the first ``n`` of them copied."""
    out = np.empty(a.shape[:-1] + (capacity,), dtype=a.dtype)
    out[..., :n] = a[..., :n]
    return out


class _GrowingLibrary:
    """The closed loop's embedding library, kept across ticks.

    Holds the rows :func:`build_generalized_embedding` would build from the
    history, in the same order and with the same values: the coordinates one
    row per coordinate in an ``(E, capacity)`` array, so the S-map reads them
    without a copy, plus targets and origin ticks.  A row is appended once
    its target tick has been observed; a row with a non-finite value is
    dropped.

    A history extends the last one when it is no shorter and its time and
    used columns are views that start where the last history's did, in the
    same buffers, as the growing views :func:`run_scenario` passes are.
    Rows already seen are taken never to be rewritten.  Any other history
    rebuilds the library from row 0 through the same append.
    """

    def __init__(self, spec: EmbeddingSpec):
        self.spec = spec
        self._names = tuple(dict.fromkeys([name for name, _ in spec.coordinates] + [spec.target]))
        self._coord_names = spec.coord_names()
        self._coords = np.empty((spec.e, 0))
        self._targets = np.empty(0)
        self._times = np.empty(0, dtype=np.int64)
        self._rows = 0
        self._next = spec.max_lag  # first origin position not yet appended
        self._source: tuple[np.ndarray, ...] = ()

    def embedding(self, history: Frame) -> Embedding:
        """The library for ``history``: every row whose target is observed."""
        source = (history.time, *(history.column(name) for name in self._names))
        extends = (
            self._source
            and len(history) >= len(self._source[0])
            and all(_same_start(a, b) for a, b in zip(source, self._source))
        )
        if not extends:
            self._rows, self._next = 0, self.spec.max_lag
        self._source = source
        self._append(history, len(history) - self.spec.tp)
        n = self._rows
        return Embedding(self._coords[:, :n].T, self._targets[:n], self._times[:n], self._coord_names)

    def _append(self, history: Frame, stop: int) -> None:
        """Append the rows with origin positions ``_next`` up to ``stop``."""
        start, spec = self._next, self.spec
        if stop <= start:
            return
        points = np.empty((spec.e, stop - start), dtype=np.float64)
        for j, (name, lag) in enumerate(spec.coordinates):
            points[j] = history.columns[name][start - lag : stop - lag]
        targets = history.columns[spec.target][start + spec.tp : stop + spec.tp]
        times = history.time[start:stop]
        keep = np.isfinite(points).all(axis=0) & np.isfinite(targets)
        if not keep.all():
            points, targets, times = points[:, keep], targets[keep], times[keep]
        n, k = self._rows, targets.size
        if n + k > self._targets.size:
            capacity = max(2 * self._targets.size, n + k)
            self._coords, self._targets, self._times = (
                _grown(a, n, capacity) for a in (self._coords, self._targets, self._times)
            )
        self._coords[:, n : n + k] = points
        self._targets[n : n + k] = targets
        self._times[n : n + k] = times
        self._rows, self._next = n + k, stop


def closed_loop_controller(
    history: Frame,
    config: LoopConfig = LoopConfig(),
    params: ControllerParams = ControllerParams(),
    library: _GrowingLibrary | None = None,
) -> ControlDecision:
    """Compute the next-tick propaganda level from the observation history.

    Before the warmup completes the initial propaganda value passes through
    unchanged.  Afterwards every embedding row of the history with an
    observed target forms the library, the query is the state vector at the
    most recent tick, and the S-map Active forecast feeds the logistic
    response.  A non-finite forecast (degenerate library) holds the previous
    propaganda level and flags the decision.

    ``library`` is a library kept from earlier calls, made for
    ``config.spec`` (:class:`EdmController` keeps one); without it the
    library is built from the whole history.
    """
    prop = history.column("propaganda")
    if len(history) < config.warmup_ticks:
        return ControlDecision(propaganda=float(prop[0]))
    if library is None:
        library = _GrowingLibrary(config.spec)
    elif library.spec != config.spec:
        raise ValueError("library was made for a different embedding spec")
    embedding = library.embedding(history)
    query = build_state_vector(history, config.spec)
    out = smap_predict(embedding, query[None, :], config.theta)[0]
    if not math.isfinite(out.prediction):
        return ControlDecision(
            propaganda=float(prop[-1]), engaged=True, held=True
        )
    return ControlDecision(
        propaganda=propaganda_response(out.prediction, params),
        forecast=out.prediction,
        engaged=True,
    )


class EdmController:
    """Callable wrapper binding a loop configuration to controller parameters.

    It keeps the S-map library across calls: a history that extends the last
    one appends its new rows, and any other history rebuilds the library.
    """

    def __init__(
        self,
        config: LoopConfig = LoopConfig(),
        params: ControllerParams = ControllerParams(),
    ):
        self.config = config
        self.params = params
        self.library = _GrowingLibrary(config.spec)

    def __call__(self, history: Frame) -> ControlDecision:
        return closed_loop_controller(history, self.config, self.params, self.library)
