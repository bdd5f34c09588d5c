import copy
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edmcontrol import abm
from edmcontrol.abm import (
    STATE_ACTIVE,
    STATE_JAILED,
    STATE_QUIET,
    GovState,
    WorldParams,
    WorldState,
    arrest_probability,
    _enforce,
    _neighborhood_counts,
    citizen_behavior,
    grievance,
    init_world,
    run_scenario,
    step,
)

# Test-only references: a fresh torus-distance matrix per call, disc sums from
# wrapped row cumulative sums, and enforcement that loops over every cop.  The
# step's cached tables and stamped row segments must reproduce them exactly.


def _torus_within(ax, ay, x, y, width, height, vision) -> np.ndarray:
    dx = np.abs(ax - x)
    dy = np.abs(ay - y)
    dx = np.minimum(dx, width - dx)
    dy = np.minimum(dy, height - dy)
    return dx * dx + dy * dy <= vision * vision


def row_segment_disc_sums(grids, vision):
    """Disc sums from wrapped row cumulative sums combined by circular shifts."""
    height, width = grids.shape[-2:]
    r = int(math.floor(vision))
    widths = [int(math.floor(math.sqrt(vision * vision - dy * dy))) for dy in range(-r, r + 1)]
    wrapped = np.concatenate([grids[..., width - r :], grids, grids[..., :r]], axis=-1)
    cs = np.zeros(wrapped.shape[:-1] + (wrapped.shape[-1] + 1,), dtype=np.int64)
    np.cumsum(wrapped, axis=-1, out=cs[..., 1:])
    xs = np.arange(width) + r
    out = np.zeros(grids.shape, dtype=np.int64)
    for dy in range(-r, r + 1):
        w = widths[dy + r]
        seg = cs[..., xs + w + 1] - cs[..., xs - w]
        padded = np.concatenate([seg[..., height - r :, :], seg, seg[..., :r, :]], axis=-2)
        out += padded[..., r + dy : r + dy + height, :]
    return out


def reference_neighborhood_counts(world):
    """Cop and Active counts from the agents' count grids and their disc sums."""
    p = world.params
    active = world.citizen_state == STATE_ACTIVE
    grids = np.stack(
        [
            np.bincount(world.cop_y * p.grid_width + world.cop_x, minlength=p.n_cells),
            np.bincount(
                (world.citizen_y * p.grid_width + world.citizen_x)[active], minlength=p.n_cells
            ),
        ]
    ).reshape(2, p.grid_height, p.grid_width)
    return row_segment_disc_sums(grids, p.vision).reshape(2, p.n_cells)


def reference_enforce(world):
    """Enforcement with a fresh torus-distance matrix and a loop over every cop."""
    p = world.params
    state = world.citizen_state
    active_ids = np.flatnonzero(state == STATE_ACTIVE)
    if active_ids.size == 0 or p.n_cops == 0:
        return []
    within = _torus_within(
        world.citizen_x[active_ids][None, :],
        world.citizen_y[active_ids][None, :],
        world.cop_x[:, None],
        world.cop_y[:, None],
        p.grid_width,
        p.grid_height,
        p.vision,
    )
    if not within.any():
        return []
    room = active_ids.size
    if p.jail_capacity is not None:
        room = min(room, p.jail_capacity - int((state == STATE_JAILED).sum()))
    alive = np.ones(active_ids.size, dtype=bool)
    arrested = []
    for c in world.rng.permutation(p.n_cops):
        if len(arrested) >= room:
            break
        cand = np.flatnonzero(within[c] & alive)
        if cand.size == 0:
            continue
        pick = int(cand[world.rng.integers(cand.size)])
        cid = int(active_ids[pick])
        state[cid] = STATE_JAILED
        world.jail_remaining[cid] = int(world.rng.integers(1, p.max_jail_term + 1))
        alive[pick] = False
        arrested.append(cid)
    return arrested


SMALL = WorldParams(
    grid_width=20,
    grid_height=20,
    n_citizens=120,
    n_cops=12,
    vision=3.0,
    jail_capacity=None,
    legitimacy=0.7,
)


class TestParams:
    def test_default_population_is_1200_agents_on_1600_cells(self):
        p = WorldParams()
        assert p.n_agents == 1200
        assert p.n_cells == 1600

    def test_rejects_zero_vision(self):
        with pytest.raises(ValueError, match="vision"):
            WorldParams(vision=0)

    def test_rejects_vision_wider_than_grid(self):
        with pytest.raises(ValueError, match="torus"):
            WorldParams(grid_width=10, grid_height=10, n_citizens=5, n_cops=0, vision=7)

    def test_rejects_bad_legitimacy(self):
        with pytest.raises(ValueError, match="legitimacy"):
            WorldParams(legitimacy=0.0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("jail_capacity", -1),
            ("jail_capacity", -5),
            ("max_jail_term", 0),
            ("max_jail_term", 2**32),
        ],
    )
    def test_rejects_enforcement_bounds_that_cannot_take_effect(self, field, value):
        # a negative capacity would act as a full jail; a term of 2**32 or more
        # lies outside the 32-bit draw enforcement uses
        with pytest.raises(ValueError, match=field):
            WorldParams(**{field: value})

    def test_accepts_enforcement_bounds_at_their_limits(self):
        p = WorldParams(jail_capacity=0, max_jail_term=2**32 - 1)
        assert (p.jail_capacity, p.max_jail_term) == (0, 2**32 - 1)


class TestInit:
    def test_deterministic_from_seed(self):
        a = init_world(SMALL, seed=9)
        b = init_world(SMALL, seed=9)
        assert np.array_equal(a.citizen_x, b.citizen_x)
        assert np.array_equal(a.cop_y, b.cop_y)
        assert np.array_equal(a.risk_aversion, b.risk_aversion)
        assert np.array_equal(a.hardship, b.hardship)

    def test_everyone_starts_quiet(self):
        w = init_world(SMALL, seed=1)
        assert list(np.bincount(w.citizen_state, minlength=3)) == [SMALL.n_citizens, 0, 0]

    def test_distinct_cells(self):
        w = init_world(SMALL, seed=2)
        cells = np.concatenate(
            [w.citizen_y * SMALL.grid_width + w.citizen_x, w.cop_y * SMALL.grid_width + w.cop_x]
        )
        assert len(np.unique(cells)) == SMALL.n_agents

    def test_different_seeds_differ(self):
        differing = 0
        for s in range(10):
            a = init_world(SMALL, seed=s)
            b = init_world(SMALL, seed=s + 1000)
            if not np.array_equal(a.citizen_x, b.citizen_x):
                differing += 1
        assert differing == 10

    def test_too_many_agents(self):
        p = WorldParams(grid_width=10, grid_height=10, n_citizens=99, n_cops=5, vision=3)
        with pytest.raises(ValueError, match="exceed"):
            init_world(p, seed=0)


class TestRules:
    def test_grievance_zero_at_full_legitimacy(self):
        assert grievance(0.8, 1.0) == 0.0

    def test_grievance_direct_substitution(self):
        assert grievance(0.5, 0.6) == pytest.approx(0.2)

    def test_mean_grievance_matches_expectation(self):
        rng = np.random.default_rng(0)
        h = rng.random(200_000)
        assert grievance(h, 0.7).mean() == pytest.approx(0.5 * 0.3, abs=2e-3)

    @pytest.mark.parametrize(
        "params",
        [WorldParams(), SMALL, dataclasses.replace(SMALL, k_arrest=0.37)],
        ids=["default", "small", "k=0.37"],
    )
    def test_arrest_table_is_arrest_probability(self, params):
        table = abm._arrest_table(params.n_cops, params.k_arrest)
        assert table.shape == (params.n_cops + 1,)
        for ratio in range(params.n_cops + 1):
            want = arrest_probability(ratio, params.k_arrest)
            assert table[ratio].tobytes() == want.tobytes(), ratio

    def test_arrest_probability_anchors(self):
        assert arrest_probability(0.0) == 0.0
        assert arrest_probability(1.0) == pytest.approx(0.9, abs=1e-12)
        assert arrest_probability(2.0) == pytest.approx(1 - math.exp(-2 * math.log(10)), abs=1e-12)
        assert arrest_probability(2.0) == pytest.approx(0.99, abs=1e-12)

    def test_citizen_behavior_hand_case(self):
        gov = GovState(legitimacy=0.5, propaganda=0.1)
        # grievance 0.5 with hardship 1.0; 0.5 - 0.4*0.9 = 0.14 > 0.1
        assert citizen_behavior(1.0, 0.4, 0.9, gov) == STATE_ACTIVE

    def test_propaganda_above_one_silences_everyone(self):
        rng = np.random.default_rng(1)
        gov = GovState(legitimacy=0.01, propaganda=1.0)
        states = citizen_behavior(rng.random(5000), rng.random(5000), 0.0, gov)
        assert np.all(states == STATE_QUIET)

    def test_full_legitimacy_silences_everyone(self):
        rng = np.random.default_rng(2)
        gov = GovState(legitimacy=1.0, propaganda=0.0)
        states = citizen_behavior(rng.random(5000), rng.random(5000), 0.0, gov)
        assert np.all(states == STATE_QUIET)

    @given(p_low=st.floats(0.0, 2.0), p_high=st.floats(0.0, 2.0))
    @settings(max_examples=50, deadline=None)
    def test_raising_propaganda_never_grows_active_set(self, p_low, p_high):
        if p_low > p_high:
            p_low, p_high = p_high, p_low
        rng = np.random.default_rng(3)
        h = rng.random(300)
        r = rng.random(300)
        prob = rng.random(300)
        low = citizen_behavior(h, r, prob, GovState(0.5, p_low)) == STATE_ACTIVE
        high = citizen_behavior(h, r, prob, GovState(0.5, p_high)) == STATE_ACTIVE
        assert not np.any(high & ~low)


class TestEnforce:
    ONE_COP = dataclasses.replace(SMALL, n_cops=1)

    def world_with_states(self, states):
        w = init_world(self.ONE_COP, seed=4)
        w.citizen_state[:] = STATE_QUIET
        for idx, s in states.items():
            w.citizen_state[idx] = s
        return w

    def test_no_active_in_vision_no_event(self):
        w = self.world_with_states({})
        assert _enforce(w) == []

    def test_single_visible_active_is_jailed(self):
        w = self.world_with_states({})
        # park citizen 0 on the cop's cell
        w.citizen_x[0] = w.cop_x[0]
        w.citizen_y[0] = w.cop_y[0]
        w.citizen_state[0] = STATE_ACTIVE
        assert _enforce(w) == [0]
        assert w.citizen_state[0] == STATE_JAILED
        assert 1 <= w.jail_remaining[0] <= SMALL.max_jail_term

    def test_uniform_choice_among_visible(self):
        counts = {1: 0, 2: 0, 3: 0}
        trials = 3000
        for t in range(trials):
            w = init_world(self.ONE_COP, seed=5 + t)
            for cid in (1, 2, 3):
                w.citizen_x[cid] = w.cop_x[0]
                w.citizen_y[cid] = w.cop_y[0]
                w.citizen_state[cid] = STATE_ACTIVE
            # move everyone else far away
            others = [i for i in range(SMALL.n_citizens) if i not in (1, 2, 3)]
            w.citizen_x[others] = (w.cop_x[0] + 10) % SMALL.grid_width
            w.citizen_y[others] = (w.cop_y[0] + 10) % SMALL.grid_height
            (arrested,) = _enforce(w)
            counts[arrested] += 1
        # binomial 3-sigma band around 1/3
        sigma = math.sqrt(trials * (1 / 3) * (2 / 3))
        for c in counts.values():
            assert abs(c - trials / 3) < 3 * sigma

    def test_jail_capacity_blocks_arrest(self):
        p = WorldParams(
            grid_width=20, grid_height=20, n_citizens=50, n_cops=1, vision=3, jail_capacity=0
        )
        w = init_world(p, seed=6)
        w.citizen_x[0] = w.cop_x[0]
        w.citizen_y[0] = w.cop_y[0]
        w.citizen_state[0] = STATE_ACTIVE
        assert _enforce(w) == []


# bounds for the word-by-word draw: no word at 1, small bounds, the paper's
# term, and large bounds whose redraw threshold rejects a quarter to half of
# the words (3 * 2**30 rejects 25%, 5 * 2**29 about 37%)
BELOW_BOUNDS = [1, 2, 3, 30, 1120, 3 * 2**30, 5 * 2**29, 2**32 - 1]


class TestBelow:
    def test_equals_generator_integers(self):
        fast, ref = np.random.default_rng(2024), np.random.default_rng(2024)
        bits = fast.bit_generator.ctypes
        picks = np.random.default_rng(7).integers(0, len(BELOW_BOUNDS), 200_000)
        for i, k in enumerate(picks.tolist()):
            n = BELOW_BOUNDS[k]
            assert abm._below(bits.next_uint32, bits.state, n) == ref.integers(n), (i, n)
            if i % 7 == 0:
                # a whole-word draw in between, as the step's other draws are
                assert fast.random() == ref.random()
        assert fast.bit_generator.state == ref.bit_generator.state


class TestEnforceManyCops:
    def crowd(self, params, actives, seed=3):
        """Two cops on one cell, the given citizens Active there, everyone else
        Quiet and out of sight."""
        w = init_world(params, seed=seed)
        w.citizen_state[:] = STATE_QUIET
        w.cop_x[:] = w.cop_x[0]
        w.cop_y[:] = w.cop_y[0]
        w.citizen_x[:] = (w.cop_x[0] + 10) % params.grid_width
        w.citizen_y[:] = (w.cop_y[0] + 10) % params.grid_height
        for cid in actives:
            w.citizen_x[cid] = w.cop_x[0]
            w.citizen_y[cid] = w.cop_y[0]
            w.citizen_state[cid] = STATE_ACTIVE
        return w

    def test_two_cops_one_active_one_arrest(self):
        w = self.crowd(dataclasses.replace(SMALL, n_cops=2), actives=[0])
        expected = copy.deepcopy(w.rng)
        assert _enforce(w) == [0]
        assert w.citizen_state[0] == STATE_JAILED
        assert (w.citizen_state == STATE_JAILED).sum() == 1
        # draws: the cop order, one candidate index, one jail term
        expected.permutation(2)
        expected.integers(1)
        assert w.jail_remaining[0] == expected.integers(1, SMALL.max_jail_term + 1)
        assert w.rng.bit_generator.state == expected.bit_generator.state

    def test_capacity_one_short_stops_second_arrest(self):
        p = dataclasses.replace(SMALL, n_cops=2, jail_capacity=3)
        w = self.crowd(p, actives=[0, 1])
        w.citizen_state[[5, 6]] = STATE_JAILED
        arrested = _enforce(w)
        assert len(arrested) == 1
        assert arrested[0] in (0, 1)
        assert (w.citizen_state == STATE_JAILED).sum() == p.jail_capacity

    @pytest.mark.parametrize("seed", range(5))
    def test_at_most_one_arrest_per_cop(self, seed):
        w = init_world(SMALL, seed=seed)
        w.citizen_state[:] = STATE_ACTIVE
        arrested = _enforce(w)
        assert 0 < len(arrested) <= SMALL.n_cops
        assert len(set(arrested)) == len(arrested)
        assert np.array_equal(
            np.flatnonzero(w.citizen_state == STATE_JAILED), np.sort(arrested)
        )


class TestNeighborhoodCounts:
    @staticmethod
    def brute_force(w):
        p = w.params
        active = w.citizen_state == STATE_ACTIVE
        cops = np.zeros(p.n_cells, dtype=np.int64)
        acts = np.zeros(p.n_cells, dtype=np.int64)
        for cell in range(p.n_cells):
            x, y = cell % p.grid_width, cell // p.grid_width
            args = (x, y, p.grid_width, p.grid_height, p.vision)
            cops[cell] = _torus_within(w.cop_x, w.cop_y, *args).sum()
            acts[cell] = _torus_within(w.citizen_x, w.citizen_y, *args)[active].sum()
        return cops, acts

    @pytest.mark.parametrize(
        "width,height,vision",
        [(20, 20, 3.0), (17, 11, 2.5), (9, 13, 4.0), (14, 7, 3.0)],
    )
    def test_matches_brute_force(self, width, height, vision):
        p = WorldParams(
            grid_width=width,
            grid_height=height,
            n_citizens=width * height // 2,
            n_cops=width * height // 8,
            vision=vision,
        )
        for seed in range(3):
            w = init_world(p, seed=seed)
            w.citizen_state[:] = np.random.default_rng(seed).integers(0, 3, p.n_citizens)
            cop_near, act_near = _neighborhood_counts(w)
            cops, acts = self.brute_force(w)
            assert np.array_equal(cop_near, cops)
            assert np.array_equal(act_near, acts)


# (width, height, vision): the paper grid, the small test grid, a
# non-square grid with fractional vision, and two grids where the disc
# diameter 2r + 1 equals the shorter side.
EQUIVALENCE_GEOMETRIES = [(40, 40, 7.0), (20, 20, 3.0), (17, 11, 2.5), (9, 13, 4.0), (14, 7, 3.0)]


def world_on_cells(width, height, vision, cop_cells, citizen_cells, states):
    """A world with cops and citizens on the given flat cells, several to a
    cell allowed; only what the neighbour counts read is filled in."""
    p = WorldParams(
        grid_width=width,
        grid_height=height,
        n_citizens=len(citizen_cells),
        n_cops=len(cop_cells),
        vision=vision,
    )
    n = p.n_citizens
    return WorldState(
        params=p,
        t=0,
        gov=GovState(p.legitimacy, p.propaganda),
        citizen_x=citizen_cells % width,
        citizen_y=citizen_cells // width,
        citizen_state=np.asarray(states, dtype=np.int8),
        risk_aversion=np.zeros(n),
        hardship=np.zeros(n),
        jail_remaining=np.zeros(n, dtype=np.int64),
        cop_x=cop_cells % width,
        cop_y=cop_cells // width,
        rng=np.random.default_rng(0),
    )


class TestDiscSumsEquivalence:
    """The stamped row segments equal the disc sums of the agents' count grids."""

    @staticmethod
    def assert_matches_reference(world):
        counts = _neighborhood_counts(world)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, reference_neighborhood_counts(world))

    @pytest.mark.parametrize("width,height,vision", EQUIVALENCE_GEOMETRIES)
    def test_random_stacks_match_row_segments(self, width, height, vision):
        rng = np.random.default_rng(width * height)
        for n_agents in (1, width * height // 3, 1200):
            cops, citizens = rng.integers(0, width * height, size=(2, n_agents))
            states = rng.integers(0, 3, n_agents)
            self.assert_matches_reference(
                world_on_cells(width, height, vision, cops, citizens, states)
            )

    @pytest.mark.parametrize("width,height,vision", EQUIVALENCE_GEOMETRIES)
    def test_every_agent_on_one_cell(self, width, height, vision):
        for y, x in [(0, 0), (height // 2, width // 2), (height - 1, width - 1)]:
            cops = np.full(1200, y * width + x)
            citizens = np.full(1120, (height - 1 - y) * width + x)
            states = np.full(1120, STATE_ACTIVE)
            world = world_on_cells(width, height, vision, cops, citizens, states)
            self.assert_matches_reference(world)
            assert _neighborhood_counts(world).max() == 1200

    @pytest.mark.parametrize("width,height,vision", EQUIVALENCE_GEOMETRIES)
    def test_every_citizen_active(self, width, height, vision):
        rng = np.random.default_rng(width + height)
        cops = rng.integers(0, width * height, 80)
        citizens = rng.integers(0, width * height, 1120)
        states = np.full(1120, STATE_ACTIVE)
        self.assert_matches_reference(world_on_cells(width, height, vision, cops, citizens, states))

    @pytest.mark.parametrize("width,height,vision", EQUIVALENCE_GEOMETRIES)
    def test_no_active_citizen(self, width, height, vision):
        rng = np.random.default_rng(width * height + 1)
        cops = rng.integers(0, width * height, 80)
        citizens = rng.integers(0, width * height, 1120)
        for states in (np.full(1120, STATE_QUIET), rng.choice([STATE_QUIET, STATE_JAILED], 1120)):
            world = world_on_cells(width, height, vision, cops, citizens, states)
            self.assert_matches_reference(world)
            cop_near, act_near = _neighborhood_counts(world)
            assert cop_near.any() and not act_near.any()


class TestEnforceEquivalence:
    @staticmethod
    def random_world(params, seed, active_share):
        w = init_world(params, seed=seed)
        rng = np.random.default_rng(seed)
        n = params.n_citizens
        w.citizen_x[:] = rng.integers(0, params.grid_width, n)
        w.citizen_y[:] = rng.integers(0, params.grid_height, n)
        w.cop_x[:] = rng.integers(0, params.grid_width, params.n_cops)
        w.cop_y[:] = rng.integers(0, params.grid_height, params.n_cops)
        u = rng.random(n)
        w.citizen_state[:] = np.where(
            u < active_share, STATE_ACTIVE, np.where(u < 0.5, STATE_JAILED, STATE_QUIET)
        )
        w.jail_remaining[w.citizen_state == STATE_JAILED] = 5
        return w

    def assert_same_outcome(self, world):
        fast, ref = copy.deepcopy(world), copy.deepcopy(world)
        arrested = _enforce(fast)
        assert arrested == reference_enforce(ref)
        assert fast.rng.bit_generator.state == ref.rng.bit_generator.state
        assert np.array_equal(fast.citizen_state, ref.citizen_state)
        assert np.array_equal(fast.jail_remaining, ref.jail_remaining)
        return arrested

    @pytest.mark.parametrize("width,height,vision", EQUIVALENCE_GEOMETRIES)
    def test_random_worlds_match_reference(self, width, height, vision):
        n_citizens = width * height // 2
        arrests = 0
        for capacity in (None, n_citizens // 2):
            p = WorldParams(
                grid_width=width,
                grid_height=height,
                n_citizens=n_citizens,
                n_cops=width * height // 10,
                vision=vision,
                jail_capacity=capacity,
            )
            for seed in range(6):
                for share in (0.002, 0.05, 0.3):
                    arrests += len(self.assert_same_outcome(self.random_world(p, seed, share)))
        assert arrests > 0

    @pytest.mark.parametrize("width,height,vision", EQUIVALENCE_GEOMETRIES)
    def test_small_jail_capacity_matches_reference(self, width, height, vision):
        p = WorldParams(
            grid_width=width,
            grid_height=height,
            n_citizens=width * height // 2,
            n_cops=width * height // 10,
            vision=vision,
        )
        for seed in range(6):
            world = self.random_world(p, seed, 0.3)
            jailed = int((world.citizen_state == STATE_JAILED).sum())
            # capacity 1 with an empty jail: exactly one arrest
            empty = copy.deepcopy(world)
            empty.params = dataclasses.replace(p, jail_capacity=1)
            empty.citizen_state[empty.citizen_state == STATE_JAILED] = STATE_QUIET
            assert len(self.assert_same_outcome(empty)) == 1
            # no spare place: the cop order is drawn, nobody is arrested
            full = copy.deepcopy(world)
            full.params = dataclasses.replace(p, jail_capacity=jailed)
            assert self.assert_same_outcome(full) == []

    def test_whole_runs_match_reference_paths(self, monkeypatch):
        fast = [run_scenario(SMALL, 300, seed=s, legitimacy=0.6) for s in range(3)]
        calls = {"enforce": 0, "counts": 0}

        def counted(name, fn):
            def wrapper(world):
                calls[name] += 1
                return fn(world)

            return wrapper

        monkeypatch.setattr(abm, "_enforce", counted("enforce", reference_enforce))
        monkeypatch.setattr(
            abm, "_neighborhood_counts", counted("counts", reference_neighborhood_counts)
        )
        for s, frame in enumerate(fast):
            ref = run_scenario(SMALL, 300, seed=s, legitimacy=0.6)
            assert ref.column("jailed").max() > 0
            for col in frame.columns:
                assert np.array_equal(frame.columns[col], ref.columns[col]), (s, col)
        # the step took both reference paths, the counts on every tick
        assert calls["counts"] == 3 * 300
        assert calls["enforce"] > 0

    def test_paper_world_matches_reference_enforce(self, monkeypatch):
        # the trapped regime: hundreds of Actives against a jail that fills up
        params = WorldParams()
        fast = run_scenario(params, 300, seed=0, legitimacy=0.6)
        capped = []

        def reference_counting_capacity_stops(world):
            unlimited = copy.deepcopy(world)
            unlimited.params = dataclasses.replace(world.params, jail_capacity=None)
            arrested = reference_enforce(world)
            capped.append(len(reference_enforce(unlimited)) > len(arrested))
            return arrested

        monkeypatch.setattr(abm, "_enforce", reference_counting_capacity_stops)
        ref = run_scenario(params, 300, seed=0, legitimacy=0.6)
        for col in fast.columns:
            assert np.array_equal(fast.columns[col], ref.columns[col]), col
        assert fast.column("active").max() >= 150
        assert fast.column("jailed").max() == params.jail_capacity
        assert any(capped)


class TestStep:
    @pytest.mark.parametrize(
        "params",
        [SMALL, dataclasses.replace(SMALL, jail_capacity=15), WorldParams()],
        ids=["small", "small-capacity-15", "paper"],
    )
    def test_observation_counts_the_states(self, params):
        # calm, unrest, then calm again while the jail empties
        legitimacy = np.repeat([0.95, 0.6, 0.95], [100, 180, 20])
        w = init_world(params, seed=5)
        actives, jailed = [], []
        for leg in legitimacy:
            w.gov.legitimacy = leg
            obs = step(w)
            counts = np.bincount(w.citizen_state, minlength=3)
            assert (obs.quiet, obs.active, obs.jailed) == tuple(counts), obs.time
            assert type(obs.active) is type(obs.quiet) is type(obs.jailed) is int
            actives.append(obs.active)
            jailed.append(obs.jailed)
        # quiet ticks with and without jailed citizens, ticks with Actives
        assert max(actives) > 0 and actives[-1] == 0 and jailed[-1] > 0
        if params.jail_capacity == 15:
            assert max(jailed) == params.jail_capacity

    def test_conservation_over_many_steps(self):
        w = init_world(SMALL, seed=7)
        for _ in range(300):
            obs = step(w)
            assert obs.quiet + obs.active + obs.jailed == SMALL.n_citizens

    def test_jailed_never_move_and_release_on_zero(self):
        w = init_world(SMALL, seed=8)
        w.citizen_state[5] = STATE_JAILED
        w.jail_remaining[5] = 3
        pos = (w.citizen_x[5], w.citizen_y[5])
        for remaining in (2, 1):
            step(w)
            assert w.citizen_state[5] == STATE_JAILED
            assert (w.citizen_x[5], w.citizen_y[5]) == pos
            assert w.jail_remaining[5] == remaining
        step(w)
        assert w.citizen_state[5] != STATE_JAILED

    def test_fixed_seed_reproduces_trajectory(self):
        fa = run_scenario(SMALL, 400, seed=9)
        fb = run_scenario(SMALL, 400, seed=9)
        for col in fa.columns:
            assert np.array_equal(fa.columns[col], fb.columns[col])

    def test_movement_stays_within_vision(self):
        w = init_world(SMALL, seed=10)
        x0, y0 = w.citizen_x.copy(), w.citizen_y.copy()
        step(w)
        dx = np.abs(w.citizen_x - x0)
        dx = np.minimum(dx, SMALL.grid_width - dx)
        dy = np.abs(w.citizen_y - y0)
        dy = np.minimum(dy, SMALL.grid_height - dy)
        assert np.all(dx * dx + dy * dy <= SMALL.vision**2)


class TestScenario:
    def test_legitimacy_schedule_array(self):
        leg = np.linspace(0.9, 0.6, 100)
        f = run_scenario(SMALL, 100, seed=11, legitimacy=leg)
        assert np.array_equal(f.column("legitimacy"), leg)

    def test_constant_scalar_legitimacy(self):
        f = run_scenario(SMALL, 50, seed=12, legitimacy=0.75)
        assert np.all(f.column("legitimacy") == 0.75)

    def test_controller_sets_next_tick_propaganda(self):
        calls = []

        class FakeDecision:
            propaganda = 0.42
            forecast = 7.0

        def controller(history):
            calls.append(len(history))
            return FakeDecision()

        f = run_scenario(SMALL, 10, seed=13, controller=controller)
        assert calls == list(range(1, 11))
        prop = f.column("propaganda")
        assert prop[0] == SMALL.propaganda  # first tick ran before any decision
        assert np.all(prop[1:] == 0.42)
        assert np.all(f.column("forecast_active") == 7.0)

    def test_no_controller_propaganda_constant(self):
        f = run_scenario(SMALL, 30, seed=14)
        assert np.all(f.column("propaganda") == SMALL.propaganda)
        assert "forecast_active" not in f.columns
