import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from edmcontrol.control import (
    CONTROL_EMBEDDING,
    ControllerParams,
    EdmController,
    LoopConfig,
    closed_loop_controller,
    make_legitimacy_schedule,
    propaganda_response,
)
from edmcontrol.abm import WorldParams, run_scenario
from edmcontrol.config import controller_params, loop_config, resolve, world_params
from edmcontrol.edm import smap_predict
from edmcontrol.scenarios import legitimacy_profile, standard_run
from edmcontrol.timeseries import (
    Frame,
    build_generalized_embedding,
    build_state_vector,
)

PAPER = ControllerParams()  # p_min 0.06, p_max 0.6, slope 0.05, midpoint 50


class TestPropagandaResponse:
    def test_midpoint_is_exact(self):
        assert propaganda_response(50.0, PAPER) == 0.33

    def test_saturation_at_large_forecast(self):
        assert propaganda_response(1000.0, PAPER) == pytest.approx(0.6, abs=1e-9)

    def test_zero_forecast_value(self):
        # direct numeric evaluation of the logistic with the default constants
        expected = 0.54 / (1.0 + math.exp(0.05 * 50.0)) + 0.06
        assert propaganda_response(0.0, PAPER) == pytest.approx(expected, abs=1e-15)
        assert propaganda_response(0.0, PAPER) == pytest.approx(0.1010, abs=5e-4)

    @given(a=st.floats(-1e4, 1e4))
    @settings(max_examples=100, deadline=None)
    def test_bounded_open_interval(self, a):
        p = propaganda_response(a, PAPER)
        assert PAPER.p_min < p < PAPER.p_max

    @given(a=st.floats(-50, 400), delta=st.floats(0.01, 100))
    @settings(max_examples=100, deadline=None)
    def test_strictly_increasing(self, a, delta):
        # strict over the operational forecast range, for separations that
        # are resolvable in double precision (the far tails saturate)
        assert propaganda_response(a, PAPER) < propaganda_response(a + delta, PAPER)

    @given(a=st.floats(-1e6, 1e6), b=st.floats(-1e6, 1e6))
    @settings(max_examples=60, deadline=None)
    def test_monotone_everywhere(self, a, b):
        if a > b:
            a, b = b, a
        assert propaganda_response(a, PAPER) <= propaganda_response(b, PAPER)

    def test_rejects_nonfinite_forecast(self):
        with pytest.raises(ValueError, match="finite"):
            propaganda_response(math.nan, PAPER)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            ControllerParams(p_min=0.5, p_max=0.5)
        with pytest.raises(ValueError):
            ControllerParams(slope=0.0)


def change_positions(a):
    """Positions where a new segment of a per-tick schedule starts."""
    return np.flatnonzero(np.diff(a)) + 1


def segment_values(a):
    return np.concatenate([a[:1], a[change_positions(a)]])


class TestLegitimacySchedule:
    def test_values_within_half_open_interval(self):
        for seed in range(30):
            a = make_legitimacy_schedule(seed, 2000)
            assert a.shape == (2000,)
            assert np.all(a > 0.6)
            assert np.all(a <= 0.85)

    def test_same_seed_identical(self):
        a = make_legitimacy_schedule(42, 1500)
        b = make_legitimacy_schedule(42, 1500)
        assert np.array_equal(a, b)

    def test_twenty_change_points_sorted_in_open_interval(self):
        a = make_legitimacy_schedule(7, 3000)
        changes = change_positions(a)
        assert len(changes) == 20
        assert np.all(np.diff(changes) > 0)
        assert changes[0] > 0
        assert changes[-1] < 3000

    def test_per_tick_values_follow_the_draws(self):
        # change ticks first, then the segment values, from one generator;
        # values[0] holds before the first change tick and values[i] from
        # change_times[i-1] on
        rng = np.random.default_rng(3)
        change_times = np.sort(rng.choice(np.arange(1, 500), size=20, replace=False))
        values = 0.85 - rng.random(21) * 0.25
        expected, seg = [], 0
        for tick in range(1, 501):
            while seg < len(change_times) and tick >= change_times[seg]:
                seg += 1
            expected.append(values[seg])
        assert np.array_equal(make_legitimacy_schedule(3, 500), np.array(expected))

    def test_segment_values_uniform(self):
        # pooled segment values across many schedules: KS against U(0.6, 0.85)
        vals = np.concatenate(
            [segment_values(make_legitimacy_schedule(s, 1000)) for s in range(200)]
        )
        stat, p = stats.kstest(vals, "uniform", args=(0.6, 0.25))
        assert p > 0.01


def constant_history(n, active=30.0, jailed=200.0, propaganda=0.1):
    quiet = 1120.0 - active - jailed
    return Frame(
        np.arange(1, n + 1),
        {
            "quiet": np.full(n, quiet),
            "active": np.full(n, active),
            "jailed": np.full(n, jailed),
            "legitimacy": np.full(n, 0.82),
            "propaganda": np.full(n, propaganda),
        },
    )


class TestClosedLoop:
    CFG = LoopConfig(warmup_ticks=40)

    def test_warmup_passes_initial_propaganda_through(self):
        hist = constant_history(10, propaganda=0.17)
        d = closed_loop_controller(hist, self.CFG, PAPER)
        assert d.propaganda == 0.17
        assert not d.engaged
        assert math.isnan(d.forecast)

    def test_constant_history_forecasts_the_constant(self):
        hist = constant_history(60, active=35.0)
        d = closed_loop_controller(hist, self.CFG, PAPER)
        assert d.engaged
        assert d.forecast == pytest.approx(35.0, abs=1e-9)
        assert d.propaganda == pytest.approx(propaganda_response(35.0, PAPER), abs=1e-12)

    def test_varying_history_engages_smap(self):
        rng = np.random.default_rng(0)
        n = 80
        active = 30 + 10 * np.sin(np.arange(n) / 5) + rng.normal(size=n)
        jailed = 100 + np.cumsum(rng.normal(size=n))
        hist = Frame(
            np.arange(1, n + 1),
            {
                "quiet": 1120 - active - jailed,
                "active": active,
                "jailed": jailed,
                "legitimacy": np.full(n, 0.8),
                "propaganda": np.full(n, 0.1),
            },
        )
        d = closed_loop_controller(hist, self.CFG, PAPER)
        assert d.engaged and math.isfinite(d.forecast)
        assert PAPER.p_min < d.propaganda < PAPER.p_max

    def test_nan_latest_observation_holds(self, capfd):
        # a NaN in the query gives a NaN forecast, so the previous propaganda
        # holds; LAPACK is never handed NaN weights
        world = WorldParams(grid_width=20, grid_height=20, n_citizens=120, n_cops=12, vision=3.0)
        frame = run_scenario(world, 60, seed=0, legitimacy=0.6)
        cols = {k: v.copy() for k, v in frame.columns.items()}
        cols["propaganda"][-1] = 0.23
        cols["jailed"][-1] = np.nan
        d = closed_loop_controller(Frame(frame.time, cols), self.CFG, PAPER)
        assert (d.propaganda, d.engaged, d.held) == (0.23, True, True)
        assert math.isnan(d.forecast)
        assert capfd.readouterr().err == ""

    def test_no_lookahead_library_targets_are_observed(self):
        # every library row's target time must lie at or before the current
        # tick, and the decision is a pure function of the history prefix
        from edmcontrol.timeseries import build_generalized_embedding

        hist = constant_history(60, active=25.0)
        emb = build_generalized_embedding(hist, CONTROL_EMBEDDING)
        assert emb.times.max() + CONTROL_EMBEDDING.tp <= hist.time[-1]
        a = closed_loop_controller(hist, self.CFG, PAPER)
        b = closed_loop_controller(hist, self.CFG, PAPER)
        assert a == b

    def test_loop_config_floor(self):
        with pytest.raises(ValueError, match="minimum"):
            LoopConfig(warmup_ticks=5)

    def test_edm_controller_callable(self):
        ctl = EdmController(self.CFG, PAPER)
        hist = constant_history(60, active=35.0)
        d = ctl(hist)
        assert d.engaged
        assert d.propaganda == pytest.approx(propaganda_response(35.0, PAPER), abs=1e-12)


def small_cfg():
    cfg = dict(resolve())
    cfg.update(
        grid_width=20, grid_height=20, n_citizens=120, n_cops=12, vision=3.0,
        legitimacy=0.7, jail_capacity=60, warmup_ticks=60, schedule_changes=5,
    )
    return cfg


def prefix(frame, n, columns=None):
    """The first ``n`` ticks of ``frame`` as views, the way the loop passes history."""
    cols = frame.columns if columns is None else columns
    return Frame(frame.time[:n], {k: v[:n] for k, v in cols.items() if k != "forecast_active"})


class TestControllerDecisions:
    """Every decision of an :class:`EdmController` is the S-map forecast
    from the embedding of the whole history it is given."""

    CFG = small_cfg()

    def controller(self):
        return EdmController(loop_config(self.CFG), controller_params(self.CFG))

    def assert_decides_as_closed_loop(self, controller, history):
        decision = controller(history)
        assert decision == closed_loop_controller(history, controller.config, controller.params)
        return decision

    def test_every_tick_of_a_run_matches_the_whole_history_forecast(self):
        controller = self.controller()
        config = controller.config
        engaged = []

        def checked(history):
            decision = controller(history)
            if decision.engaged:
                ref = smap_predict(
                    build_generalized_embedding(history, config.spec),
                    build_state_vector(history, config.spec)[None, :],
                    config.theta,
                )[0]
                assert decision.forecast == ref.prediction
                engaged.append(len(history))
            return decision

        world_ss, schedule_ss = np.random.SeedSequence(0).spawn(2)
        leg = legitimacy_profile(self.CFG, schedule_ss, 300, "random")
        frame = run_scenario(world_params(self.CFG), 300, world_ss, legitimacy=leg, controller=checked)
        want = standard_run(self.CFG, 0, 300, control=True, legitimacy_mode="random")
        for name in want.columns:
            assert np.array_equal(frame.column(name), want.column(name), equal_nan=True), name
        assert engaged[0] == self.CFG["warmup_ticks"] and engaged[-1] == 300

    def test_mixed_histories_decide_as_closed_loop_controller(self):
        a = standard_run(self.CFG, 0, 200, control=False, legitimacy_mode="random")
        b = standard_run(self.CFG, 1, 200, control=False, legitimacy_mode="random")
        controller = self.controller()
        for n in range(60, 150):
            self.assert_decides_as_closed_loop(controller, prefix(a, n))
        # a new run from tick 1
        for n in (60, 61, 120):
            self.assert_decides_as_closed_loop(controller, prefix(b, n))
        # a frame of the same length with different values
        self.assert_decides_as_closed_loop(controller, prefix(a, 120))
        # a shorter prefix of the same buffers, then longer again
        self.assert_decides_as_closed_loop(controller, prefix(a, 90))
        self.assert_decides_as_closed_loop(controller, prefix(a, 100))
        # a frame with a NaN row: the rows that read it are dropped
        cols = {k: v.copy() for k, v in a.columns.items()}
        cols["jailed"][100] = np.nan
        history = prefix(a, 150, cols)
        decision = self.assert_decides_as_closed_loop(controller, history)
        assert decision.engaged and math.isfinite(decision.forecast)
        # origins 4..144, less the three whose lags 0, 2 and 4 read tick position 100
        assert len(build_generalized_embedding(history, controller.config.spec)) == 141 - 3
