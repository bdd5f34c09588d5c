"""Logistic propaganda controller driven by state-space forecasts.

The closed loop embeds the jailed/quiet history, S-map-forecasts the Active
count five steps ahead from the most recent completed observation, and maps
the forecast through a bounded logistic response to set the propaganda level
for the next tick.  Like the reference EDM implementations, it re-embeds the
whole history and refits on every engaged tick; :class:`EdmController` only
binds the configuration and keeps nothing between ticks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .edm import smap_predict
from .timeseries import EmbeddingSpec, Frame, build_generalized_embedding, build_state_vector

__all__ = [
    "ControllerParams",
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


def make_legitimacy_schedule(
    seed,
    total_ticks: int,
    n_changes: int = 20,
    low: float = 0.6,
    high: float = 0.85,
) -> np.ndarray:
    """Draw a random piecewise-constant legitimacy for ticks 1..total_ticks.

    The ``n_changes`` change ticks are drawn uniformly without replacement
    from the open interval (0, total_ticks) and sorted, then the
    ``n_changes + 1`` segment values uniformly on (low, high].  The first
    value holds from tick 1 until the first change tick, and value ``i``
    from change tick ``i`` on.  Returns one value per tick.
    """
    if total_ticks <= n_changes:
        raise ValueError("total_ticks must exceed the number of change points")
    rng = np.random.default_rng(seed)
    change_times = np.sort(rng.choice(np.arange(1, total_ticks), size=n_changes, replace=False))
    # high - U[0, span) lies in (low, high]
    values = high - rng.random(n_changes + 1) * (high - low)
    return values[np.searchsorted(change_times, np.arange(1, total_ticks + 1), side="right")]


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


def closed_loop_controller(
    history: Frame,
    config: LoopConfig = LoopConfig(),
    params: ControllerParams = ControllerParams(),
) -> ControlDecision:
    """Compute the next-tick propaganda level from the observation history.

    Before the warmup completes the initial propaganda value passes through
    unchanged.  Afterwards the whole history is embedded on every call:
    every embedding row with an observed target forms the library, the
    query is the state vector at the most recent tick, and the S-map Active
    forecast feeds the logistic response.  A non-finite forecast (degenerate
    library) holds the previous propaganda level and flags the decision.
    """
    prop = history.column("propaganda")
    if len(history) < config.warmup_ticks:
        return ControlDecision(propaganda=float(prop[0]))
    embedding = build_generalized_embedding(history, config.spec)
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

    It keeps nothing between calls: each call is
    ``closed_loop_controller(history, config, params)``.
    """

    def __init__(
        self,
        config: LoopConfig = LoopConfig(),
        params: ControllerParams = ControllerParams(),
    ):
        self.config = config
        self.params = params

    def __call__(self, history: Frame) -> ControlDecision:
        return closed_loop_controller(history, self.config, self.params)
