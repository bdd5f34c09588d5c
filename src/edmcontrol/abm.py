"""Agent-based model of civil disobedience on a torus grid.

Citizens carry fixed uniform random draws of risk aversion and perceived
hardship, and each tick re-decide whether to rebel: a citizen turns Active
when ``grievance - risk_aversion * arrest_probability`` exceeds the current
propaganda threshold, where ``grievance = hardship * (1 - legitimacy)``.
Cops arrest one Active citizen within vision per tick; arrested citizens sit
out a uniform random jail term.

Scheduling is phase-synchronous: each tick releases finished jail terms,
moves every free agent, lets all citizens re-decide against the post-move
snapshot, then lets cops enforce in a uniformly shuffled order.  All
randomness flows from a single root seed through three named streams
(placement, attributes, per-tick events), so a run is exactly reproducible
from ``(params, seed, schedule, controller)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .timeseries import Frame

__all__ = [
    "STATE_QUIET",
    "STATE_ACTIVE",
    "STATE_JAILED",
    "K_ARREST_90",
    "WorldParams",
    "GovState",
    "TickObservation",
    "WorldState",
    "init_world",
    "grievance",
    "arrest_probability",
    "citizen_behavior",
    "step",
    "run_scenario",
    "OBSERVATION_COLUMNS",
]

STATE_QUIET = 0
STATE_ACTIVE = 1
STATE_JAILED = 2

# Arrest-rate constant: one cop per active citizen yields a 90% arrest chance.
K_ARREST_90 = math.log(10.0)

OBSERVATION_COLUMNS = ("quiet", "active", "jailed", "legitimacy", "propaganda")


@dataclass(frozen=True)
class WorldParams:
    """World configuration.  Defaults give the 1600-cell, 1200-agent setup."""

    grid_width: int = 40
    grid_height: int = 40
    n_citizens: int = 1120
    n_cops: int = 80
    vision: float = 7.0
    max_jail_term: int = 30
    k_arrest: float = K_ARREST_90
    jail_capacity: int | None = 470
    legitimacy: float = 0.84
    propaganda: float = 0.1

    def __post_init__(self):
        if self.grid_width < 1 or self.grid_height < 1:
            raise ValueError("grid dimensions must be positive")
        if self.n_citizens < 1 or self.n_cops < 0:
            raise ValueError("need at least one citizen and a non-negative cop count")
        if self.vision < 1:
            raise ValueError("vision must be >= 1 cell")
        if 2 * int(self.vision) + 1 > min(self.grid_width, self.grid_height):
            raise ValueError("vision diameter exceeds grid size; torus counts would double")
        if not 1 <= self.max_jail_term < 2**32:
            raise ValueError("max_jail_term must lie in 1..2**32 - 1 ticks")
        if self.jail_capacity is not None and self.jail_capacity < 0:
            raise ValueError("jail_capacity must be >= 0 (or None for no limit)")
        if not 0.0 < self.legitimacy <= 1.0:
            raise ValueError("legitimacy must lie in (0, 1]")
        if self.propaganda < 0.0:
            raise ValueError("propaganda must be >= 0")

    @property
    def n_cells(self) -> int:
        return self.grid_width * self.grid_height

    @property
    def n_agents(self) -> int:
        return self.n_citizens + self.n_cops


@dataclass
class GovState:
    """Government parameters: legitimacy scales grievance, propaganda is the threshold."""

    legitimacy: float
    propaganda: float


@dataclass(frozen=True)
class TickObservation:
    time: int
    quiet: int
    active: int
    jailed: int
    legitimacy: float
    propaganda: float


@dataclass(frozen=True)
class _Geometry:
    """Tables for one ``(width, height, vision)``; none grows as cells squared.

    ``disc_segments`` stamps vision discs onto two grids, cops then Actives,
    laid out row after row in rows of ``width + 2r + 1`` cells: the grid's
    columns, then ``2r`` overhang columns standing for columns ``0..2r-1``
    again, then one spare column.  A disc's row segment starts at its left
    end's torus column, so no segment wraps and none starts in the spare
    column.  Row ``c`` of the table (a cop-grid cell, or ``n_cells + c`` for
    the same cell on the Active grid) holds the flat start indices of the
    2r + 1 row segments of the disc centred on that cell, then their
    one-past-end indices offset by the two grids' size.

    A move adds ``move_dx[k]``, an offset shifted by r, to a column, and
    ``wrap_x`` maps the sum back onto the torus; rows likewise.
    """

    move_dx: np.ndarray  # (n,) dx + r of the nonzero moves within vision
    move_dy: np.ndarray  # (n,) dy + r of the same moves
    wrap_x: np.ndarray  # (width + 2r,) column x + r  ->  torus column of x
    wrap_y: np.ndarray  # (height + 2r,) row y + r  ->  torus row of y
    sx: np.ndarray  # (width, width) squared torus distance between columns
    sy: np.ndarray  # (height, height) squared torus distance between rows
    reach: int  # largest integer squared distance within vision
    radius: int  # r, the integer part of vision
    disc_segments: np.ndarray  # (2 * n_cells, 2 * (2r + 1)) segment starts, then ends


def _squared_torus_distances(n: int) -> np.ndarray:
    d = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    return (np.minimum(d, n - d) ** 2).astype(np.int32)


@lru_cache(maxsize=8)
def _geometry(width: int, height: int, vision: float) -> _Geometry:
    r = int(math.floor(vision))
    reach = int(math.floor(vision * vision))
    offs = [
        (dx, dy)
        for dx in range(-r, r + 1)
        for dy in range(-r, r + 1)
        if 0 < dx * dx + dy * dy <= reach
    ]
    stride = width + 2 * r + 1
    size = height * stride  # one stamped grid
    dys = np.arange(-r, r + 1)
    half = np.array([math.isqrt(reach - dy * dy) for dy in dys])  # segment half-widths
    x = np.tile(np.arange(width), height)[:, None]
    rows = (np.repeat(np.arange(height), width)[:, None] + dys) % height
    starts = rows * stride + (x - half) % width
    ends = starts + 2 * half + 1
    cop = np.hstack([starts, ends + 2 * size])
    active = np.hstack([starts + size, ends + 3 * size])
    segments = np.vstack([cop, active]).astype(np.intp)
    move_dx, move_dy = (np.array(offs, dtype=np.int64) + r).T.copy()
    wrap_x = (np.arange(width + 2 * r) - r) % width
    wrap_y = (np.arange(height + 2 * r) - r) % height
    sx = _squared_torus_distances(width)
    sy = _squared_torus_distances(height)
    return _Geometry(move_dx, move_dy, wrap_x, wrap_y, sx, sy, reach, r, segments)


@lru_cache(maxsize=8)
def _arrest_table(n_cops: int, k: float) -> np.ndarray:
    """``arrest_probability(ratio, k)`` for every cop/Active ratio 0..n_cops,
    read-only since every step shares it."""
    table = arrest_probability(np.arange(n_cops + 1), k)
    table.flags.writeable = False
    return table


@dataclass
class WorldState:
    """Full mutable simulation state; reproducible from (params, seed)."""

    params: WorldParams
    t: int
    gov: GovState
    citizen_x: np.ndarray
    citizen_y: np.ndarray
    citizen_state: np.ndarray
    risk_aversion: np.ndarray
    hardship: np.ndarray
    jail_remaining: np.ndarray
    cop_x: np.ndarray
    cop_y: np.ndarray
    rng: np.random.Generator


def _as_seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def init_world(params: WorldParams, seed) -> WorldState:
    """Place agents uniformly at random on distinct cells, all citizens Quiet.

    The seed feeds a root ``SeedSequence`` split into three child streams in
    fixed order: agent placement, citizen attribute draws (risk aversion then
    hardship), and the per-tick event stream used by :func:`step`.
    """
    if params.n_agents > params.n_cells:
        raise ValueError(
            f"{params.n_agents} agents exceed {params.n_cells} cells;"
            " distinct placement impossible"
        )
    place_ss, attr_ss, step_ss = _as_seed_sequence(seed).spawn(3)
    place_rng = np.random.default_rng(place_ss)
    attr_rng = np.random.default_rng(attr_ss)

    cells = place_rng.choice(params.n_cells, size=params.n_agents, replace=False)
    cx = cells % params.grid_width
    cy = cells // params.grid_width
    n = params.n_citizens
    return WorldState(
        params=params,
        t=0,
        gov=GovState(legitimacy=params.legitimacy, propaganda=params.propaganda),
        citizen_x=cx[:n].copy(),
        citizen_y=cy[:n].copy(),
        citizen_state=np.full(n, STATE_QUIET, dtype=np.int8),
        risk_aversion=attr_rng.random(n),
        hardship=attr_rng.random(n),
        jail_remaining=np.zeros(n, dtype=np.int64),
        cop_x=cx[n:].copy(),
        cop_y=cy[n:].copy(),
        rng=np.random.default_rng(step_ss),
    )


def grievance(hardship, legitimacy):
    """Perceived hardship scaled by illegitimacy: ``hardship * (1 - legitimacy)``."""
    return hardship * (1.0 - legitimacy)


def arrest_probability(cop_ratio, k: float = K_ARREST_90):
    """``1 - exp(-k * cop_ratio)``; with the default k, ratio 1 gives 0.9."""
    return 1.0 - np.exp(-k * np.asarray(cop_ratio, dtype=np.float64))


def citizen_behavior(hardship, risk_aversion, arrest_prob, gov: GovState):
    """Threshold rule, re-evaluated every tick for every non-jailed citizen.

    Active iff ``grievance - risk_aversion * arrest_prob`` exceeds the
    propaganda threshold; otherwise Quiet.  Accepts scalars or arrays.
    """
    g = grievance(np.asarray(hardship, dtype=np.float64), gov.legitimacy)
    net = g - np.asarray(risk_aversion, dtype=np.float64) * np.asarray(arrest_prob)
    # Quiet is 0 and Active is 1, so the comparison is the new state
    return (net > gov.propaganda).astype(np.int8)


def _neighborhood_counts(world: WorldState) -> np.ndarray:
    """Cop and Active counts within the vision disc of every cell.

    Returns a ``(2, n_cells)`` stack: cop counts, then Active counts.  Each
    cop and each Active stamps the row segments of the disc centred on its
    cell: one ``bincount`` of the segments' starts minus ends, then one
    running sum over the stamped grids, gives every cell the number of
    discs covering it.  A row's marks sum to zero, so nothing carries from
    one row into the next.  The ``2r`` overhang columns then fold back onto
    the torus.  With no Active citizen only the cop grid is stamped and
    summed, and the Active counts are zeros.  The counts are exact
    integers, and their cost grows with cops plus Actives, not with cells.
    """
    p = world.params
    width, height = p.grid_width, p.grid_height
    geo = _geometry(width, height, p.vision)
    r = geo.radius
    stride = width + 2 * r + 1
    size = height * stride  # one stamped grid
    cells = world.cop_y * width + world.cop_x
    active = np.flatnonzero(world.citizen_state == STATE_ACTIVE)
    grids = 1
    if active.size:
        grids = 2
        act_cells = world.citizen_y[active] * width + world.citizen_x[active]
        cells = np.concatenate([cells, act_cells + p.n_cells])
    # starts land in the first ``grids`` grids, ends two grids further on
    segments = geo.disc_segments.take(cells, axis=0).ravel()
    marks = np.bincount(segments, minlength=(2 + grids) * size)
    cover = marks[: grids * size] - marks[2 * size :]
    np.cumsum(cover, out=cover)
    cover = cover.reshape(grids, height, stride)
    counts = np.zeros((2, height, width), dtype=np.int64)
    counts[:grids] = cover[:, :, :width]
    counts[:grids, :, : 2 * r] += cover[:, :, width : width + 2 * r]
    return counts.reshape(2, p.n_cells)


def _below(next32, bits, n: int) -> int:
    """``Generator.integers(n)`` for ``1 <= n < 2**32``, from 32-bit words.

    ``next32(bits)`` is the bit generator's ``ctypes.next_uint32`` called on
    its ``ctypes.state``.  This is numpy's bounded-integer rule (Lemire's
    multiply-shift with rejection): ``n == 1`` draws no word; otherwise the
    word times ``n`` is redrawn while its low 32 bits fall below
    ``(2**32 - n) % n``, and the high 32 bits are the draw.  It consumes the
    same words and returns the same integer as ``integers(n)``.
    """
    if n == 1:
        return 0
    m = next32(bits) * n
    if (m & 0xFFFFFFFF) < n:
        threshold = (0x100000000 - n) % n
        while (m & 0xFFFFFFFF) < threshold:
            m = next32(bits) * n
    return m >> 32


def _enforce(world: WorldState) -> list[int]:
    """Enforcement phase: shuffled cops each jail one visible Active citizen.

    Each cop picks uniformly among the not-yet-arrested Active citizens in
    its vision, and the jail term is drawn uniformly from
    ``1..max_jail_term``.  Arrests stop once jail capacity is reached.  The
    cop order is drawn only when some cop sees an Active citizen.  Returns
    the arrested citizens in arrest order.

    Each pick and each term is drawn by :func:`_below` straight from the bit
    generator's 32-bit words, by numpy's bounded-integer rule, so the same
    words give the same integers as ``rng.integers``.  Those ctypes calls
    skip the bit generator's lock: one world is stepped by one thread.
    """
    p = world.params
    state = world.citizen_state
    active_ids = np.flatnonzero(state == STATE_ACTIVE)
    if active_ids.size == 0 or p.n_cops == 0:
        return []
    geo = _geometry(p.grid_width, p.grid_height, p.vision)
    # within[c, i]: cop c sees Active citizen active_ids[i]
    within = (
        geo.sx.take(world.citizen_x[active_ids], axis=1)[world.cop_x]
        + geo.sy.take(world.citizen_y[active_ids], axis=1)[world.cop_y]
        <= geo.reach
    )
    sees = within.any(axis=1)
    if not sees.any():
        return []
    room = active_ids.size
    if p.jail_capacity is not None:
        room = min(room, p.jail_capacity - np.count_nonzero(state == STATE_JAILED))
    order = world.rng.permutation(p.n_cops)
    bits = world.rng.bit_generator.ctypes
    next32, ptr, max_term = bits.next_uint32, bits.state, p.max_jail_term
    alive = np.ones(active_ids.size, dtype=bool)
    picks: list[int] = []
    terms: list[int] = []
    # a cop that sees no Active now sees none later, so it draws nothing
    for c in order[sees[order]].tolist():
        if len(picks) >= room:
            break
        cand = (within[c] & alive if picks else within[c]).nonzero()[0]
        if cand.size == 0:
            continue
        pick = int(cand[_below(next32, ptr, cand.size)])
        terms.append(_below(next32, ptr, max_term) + 1)
        alive[pick] = False
        picks.append(pick)
    arrested = active_ids[picks]
    state[arrested] = STATE_JAILED
    world.jail_remaining[arrested] = terms
    return arrested.tolist()


def step(world: WorldState) -> TickObservation:
    """Advance the world one tick and return the population observation.

    Phases: jail countdown and release; simultaneous random movement of all
    free agents within vision; simultaneous citizen decisions against the
    post-move snapshot; cop enforcement in shuffled order.  With no Active
    citizen before the decisions the cop/Active division is skipped, with
    none after them enforcement is, and the observation is counted from
    the free citizens, the decisions and the arrests.
    """
    p = world.params
    geo = _geometry(p.grid_width, p.grid_height, p.vision)
    world.t += 1
    state = world.citizen_state

    # 1. Jail countdown; release exactly when the term reaches zero.
    jailed = state == STATE_JAILED
    if jailed.any():
        world.jail_remaining -= jailed
        state[jailed & (world.jail_remaining == 0)] = STATE_QUIET

    # 2. Movement: free citizens first, then cops (fixed draw order).
    free = np.flatnonzero(state != STATE_JAILED)
    n_moves = geo.move_dx.size
    picks = world.rng.integers(0, n_moves, size=free.size)
    x = geo.wrap_x[world.citizen_x[free] + geo.move_dx[picks]]
    y = geo.wrap_y[world.citizen_y[free] + geo.move_dy[picks]]
    world.citizen_x[free] = x
    world.citizen_y[free] = y
    picks = world.rng.integers(0, n_moves, size=p.n_cops)
    world.cop_x = geo.wrap_x[world.cop_x + geo.move_dx[picks]]
    world.cop_y = geo.wrap_y[world.cop_y + geo.move_dy[picks]]

    # 3. Decisions: every free citizen re-assesses against the same snapshot.
    cop_near, act_near = _neighborhood_counts(world)
    cells = y * p.grid_width + x
    ratio = cop_near[cells]
    if np.count_nonzero(act_near):
        # Epstein's estimated arrest probability: the citizen counts itself
        # on the active side, and the cop/active ratio is floored.
        ratio //= 1 + act_near[cells] - (state[free] == STATE_ACTIVE)
    prob = _arrest_table(p.n_cops, p.k_arrest)[ratio]
    decided = citizen_behavior(world.hardship[free], world.risk_aversion[free], prob, world.gov)
    state[free] = decided
    n_active = int(np.count_nonzero(decided))

    # 4. Enforcement: shuffled cops, each jails one visible Active citizen.
    arrests = len(_enforce(world)) if n_active else 0

    return TickObservation(
        time=world.t,
        quiet=free.size - n_active,
        active=n_active - arrests,
        jailed=p.n_citizens - free.size + arrests,
        legitimacy=world.gov.legitimacy,
        propaganda=world.gov.propaganda,
    )


def _legitimacy_per_tick(legitimacy, params: WorldParams, steps: int) -> np.ndarray:
    if legitimacy is None:
        return np.full(steps, params.legitimacy)
    if np.isscalar(legitimacy):
        return np.full(steps, float(legitimacy))
    arr = np.asarray(legitimacy, dtype=np.float64)
    if arr.shape != (steps,):
        raise ValueError(f"legitimacy array must have length {steps}, got {arr.shape}")
    return arr


def run_scenario(
    params: WorldParams,
    steps: int,
    seed,
    legitimacy=None,
    controller: Callable[[Frame], "object"] | None = None,
) -> Frame:
    """Run a full scenario and return the observation frame (ticks 1..steps).

    ``legitimacy`` may be None (constant ``params.legitimacy``), a scalar, or
    a per-tick array of length ``steps``.  When a
    ``controller`` is supplied it is called after every tick with the history
    frame so far and must return an object with ``propaganda`` (applied from
    the next tick on) and ``forecast`` attributes; the frame then carries a
    ``forecast_active`` audit column.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    leg = _legitimacy_per_tick(legitimacy, params, steps)
    world = init_world(params, seed)

    times = np.arange(1, steps + 1, dtype=np.int64)
    cols = {name: np.empty(steps, dtype=np.float64) for name in OBSERVATION_COLUMNS}
    forecast = np.full(steps, np.nan)

    for i in range(steps):
        world.gov.legitimacy = float(leg[i])
        obs = step(world)
        cols["quiet"][i] = obs.quiet
        cols["active"][i] = obs.active
        cols["jailed"][i] = obs.jailed
        cols["legitimacy"][i] = obs.legitimacy
        cols["propaganda"][i] = obs.propaganda
        if controller is not None:
            history = Frame._unchecked(
                times[: i + 1],
                {name: cols[name][: i + 1] for name in OBSERVATION_COLUMNS},
            )
            decision = controller(history)
            forecast[i] = decision.forecast
            world.gov.propaganda = float(decision.propaganda)

    columns = {name: cols[name] for name in OBSERVATION_COLUMNS}
    if controller is not None:
        columns["forecast_active"] = forecast
    return Frame(times, columns)
