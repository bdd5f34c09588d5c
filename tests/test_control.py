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
from edmcontrol import control
from edmcontrol.abm import WorldParams, run_scenario
from edmcontrol.config import controller_params, loop_config, resolve, world_params
from edmcontrol.edm import smap_predict
from edmcontrol.scenarios import legitimacy_profile, standard_run
from edmcontrol.timeseries import (
    EmbeddingSpec,
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


class TestLegitimacySchedule:
    def test_values_within_half_open_interval(self):
        for seed in range(30):
            s = make_legitimacy_schedule(seed, 2000)
            assert np.all(s.values > 0.6)
            assert np.all(s.values <= 0.85)

    def test_same_seed_identical(self):
        a = make_legitimacy_schedule(42, 1500)
        b = make_legitimacy_schedule(42, 1500)
        assert np.array_equal(a.change_times, b.change_times)
        assert np.array_equal(a.values, b.values)

    def test_twenty_change_points_sorted_in_open_interval(self):
        s = make_legitimacy_schedule(7, 3000)
        assert len(s.change_times) == 20
        assert np.all(np.diff(s.change_times) > 0)
        assert s.change_times[0] > 0
        assert s.change_times[-1] < 3000

    def test_materialize_follows_segment_rule(self):
        # values[0] holds before the first change tick; values[i] holds from
        # change_times[i-1] on.
        s = make_legitimacy_schedule(3, 500)
        expected, seg = [], 0
        for tick in range(1, 501):
            while seg < len(s.change_times) and tick >= s.change_times[seg]:
                seg += 1
            expected.append(s.values[seg])
        assert np.array_equal(s.materialize(500), np.array(expected))

    def test_segment_values_uniform(self):
        # pooled segment values across many schedules: KS against U(0.6, 0.85)
        vals = np.concatenate(
            [make_legitimacy_schedule(s, 1000).values for s in range(200)]
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


def assert_library_matches_embedding(controller, history):
    lib = controller.library.embedding(history)
    ref = build_generalized_embedding(history, controller.config.spec)
    assert np.array_equal(lib.points, ref.points)
    assert np.array_equal(lib.targets, ref.targets)
    assert np.array_equal(lib.times, ref.times)


class TestKeptLibrary:
    """EdmController keeps its library across ticks; every decision equals
    the one a fresh controller computes from the whole history."""

    CFG = small_cfg()

    def controller(self):
        return EdmController(loop_config(self.CFG), controller_params(self.CFG))

    def assert_fresh(self, controller, history):
        decision = controller(history)
        assert decision == closed_loop_controller(history, controller.config, controller.params)
        if decision.engaged:
            assert_library_matches_embedding(controller, history)
        return decision

    def test_every_tick_of_a_run_matches_the_fresh_decision(self, monkeypatch):
        controller = self.controller()
        config = controller.config
        spans = []
        append = control._GrowingLibrary._append

        def spy(library, history, stop):
            if library is controller.library:
                spans.append((library._next, stop))
            append(library, history, stop)

        monkeypatch.setattr(control._GrowingLibrary, "_append", spy)

        def checked(history):
            decision = self.assert_fresh(controller, history)
            if decision.engaged:
                # the embedding the controller built every tick before it kept a library
                ref = smap_predict(
                    build_generalized_embedding(history, config.spec),
                    build_state_vector(history, config.spec)[None, :],
                    config.theta,
                )[0]
                assert decision.forecast == ref.prediction
            return decision

        world_ss, schedule_ss = np.random.SeedSequence(0).spawn(2)
        leg = legitimacy_profile(self.CFG, schedule_ss, 300, "random")
        frame = run_scenario(world_params(self.CFG), 300, world_ss, legitimacy=leg, controller=checked)
        want = standard_run(self.CFG, 0, 300, control=True, legitimacy_mode="random")
        for name in want.columns:
            assert np.array_equal(frame.column(name), want.column(name), equal_nan=True), name
        # built once at the end of the warmup, then extended tick by tick
        spec = config.spec
        assert spans[0] == (spec.max_lag, self.CFG["warmup_ticks"] - spec.tp)
        assert all(start == stop for (_, stop), (start, _) in zip(spans, spans[1:]))
        assert spans[-1][1] == 300 - spec.tp

    def test_history_that_does_not_extend_rebuilds(self):
        a = standard_run(self.CFG, 0, 200, control=False, legitimacy_mode="random")
        b = standard_run(self.CFG, 1, 200, control=False, legitimacy_mode="random")
        controller = self.controller()
        for n in range(60, 150):
            self.assert_fresh(controller, prefix(a, n))
        # a new run from tick 1
        for n in (60, 61, 120):
            self.assert_fresh(controller, prefix(b, n))
        # a frame of the same length with different values
        self.assert_fresh(controller, prefix(a, 120))
        # a shorter prefix of the same buffers, then longer again
        self.assert_fresh(controller, prefix(a, 90))
        self.assert_fresh(controller, prefix(a, 100))
        # a frame with a NaN row: the rows that read it are dropped
        cols = {k: v.copy() for k, v in a.columns.items()}
        cols["jailed"][100] = np.nan
        history = prefix(a, 150, cols)
        decision = self.assert_fresh(controller, history)
        assert decision.engaged and math.isfinite(decision.forecast)
        # origins 4..144, less the three whose lags 0, 2 and 4 read tick position 100
        assert len(controller.library.embedding(history)) == 141 - 3

    def test_library_spec_must_match(self):
        history = constant_history(60, active=35.0)
        spec = EmbeddingSpec(coordinates=(("jailed", 0), ("quiet", 0)), target="active", tp=5)
        library = EdmController(LoopConfig(warmup_ticks=40), PAPER).library
        with pytest.raises(ValueError, match="different embedding spec"):
            closed_loop_controller(history, LoopConfig(warmup_ticks=40, spec=spec), PAPER, library)
