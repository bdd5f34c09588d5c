import numpy as np
import pytest

from edmcontrol.analysis import (
    ANALYSIS_EMBEDDING,
    JacobianSeries,
    detect_trapped_state,
    exponential_gof,
    interaction_coefficients,
    outburst_onsets,
    partition_variance,
    waiting_times,
)
from edmcontrol.timeseries import Frame


def frame_from(**cols):
    n = len(next(iter(cols.values())))
    return Frame(np.arange(1, n + 1), {k: np.asarray(v, dtype=float) for k, v in cols.items()})


def synthetic_controlled_frame(n=400, coef=3.0, noise=0.05, seed=0):
    """Planted linear dependence: active(t+5) = coef * propaganda(t) + f(j, q) + eps."""
    rng = np.random.default_rng(seed)
    jailed = rng.random(n)
    quiet = rng.random(n)
    propaganda = rng.random(n)
    active = np.zeros(n)
    tp = ANALYSIS_EMBEDDING.tp
    for t in range(n - tp):
        active[t + tp] = coef * propaganda[t] + 0.5 * jailed[t] - 0.25 * quiet[t]
    active += rng.normal(scale=noise, size=n)
    return frame_from(
        jailed=jailed, quiet=quiet, active=active, propaganda=propaganda,
        legitimacy=np.full(n, 0.7),
    )


class TestInteractionCoefficients:
    def test_planted_coefficient_recovered(self):
        frame = synthetic_controlled_frame(coef=3.0)
        jac = interaction_coefficients(frame, theta=0.5)
        finite = jac.coef[np.isfinite(jac.coef)]
        assert finite.size > 0.9 * len(jac.coef)
        assert abs(np.median(finite) - 3.0) < 0.3  # within 10%

    def test_constant_propaganda_flagged_not_fabricated(self):
        frame = synthetic_controlled_frame()
        cols = {k: v.copy() for k, v in frame.columns.items()}
        cols["propaganda"][:] = 0.1
        # rebuild active without the propaganda term so the system stays consistent
        frame2 = Frame(frame.time, cols)
        jac = interaction_coefficients(frame2, theta=0.5)
        assert jac.n_flagged == len(jac.coef)
        assert np.all(np.isnan(jac.coef))

    def test_times_align_with_embedding_origins(self):
        frame = synthetic_controlled_frame(n=120)
        jac = interaction_coefficients(frame, theta=1.0)
        assert jac.times[0] == 1 + ANALYSIS_EMBEDDING.max_lag
        assert jac.times[-1] == 120 - ANALYSIS_EMBEDDING.tp

    def test_csv_roundtrip(self, tmp_path):
        frame = synthetic_controlled_frame(n=100)
        jac = interaction_coefficients(frame, theta=1.0)
        path = tmp_path / "jac.csv"
        jac.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "time,coef"
        assert len(lines) == len(jac.coef) + 1


class TestPartitionVariance:
    def test_constant_series_zero_variance_everywhere(self):
        jac = JacobianSeries(times=np.arange(1, 301), coef=np.full(300, 2.0))
        leg = np.concatenate([np.full(150, 0.65), np.full(150, 0.8)])
        part = partition_variance(jac, leg, window=50, stride=10)
        assert np.all(part.low == 0.0)
        assert np.all(part.high == 0.0)

    def test_planted_variance_ratio_recovered(self):
        rng = np.random.default_rng(1)
        n = 2000
        leg = np.concatenate([np.full(n // 2, 0.6), np.full(n // 2, 0.8)])
        coef = np.concatenate(
            [rng.normal(scale=2.0, size=n // 2), rng.normal(scale=1.0, size=n // 2)]
        )
        jac = JacobianSeries(times=np.arange(1, n + 1), coef=coef)
        part = partition_variance(jac, leg, window=100, stride=20)
        ratio = np.median(part.low) / np.median(part.high)
        assert abs(ratio - 4.0) < 1.0  # planted 4:1, recover within 25%

    def test_label_by_window_mean(self):
        jac = JacobianSeries(times=np.arange(1, 101), coef=np.ones(100))
        leg = np.linspace(0.6, 0.8, 100)
        part = partition_variance(jac, leg, window=20, stride=20)
        assert part.low.size + part.high.size == 5

    def test_nonfinite_windows_skipped(self):
        coef = np.ones(100)
        coef[30] = np.nan
        jac = JacobianSeries(times=np.arange(1, 101), coef=coef)
        part = partition_variance(jac, np.full(100, 0.6), window=20, stride=10)
        assert part.low.size == 9 - 2  # windows starting at 20 and 30 are dropped
        assert part.n_skipped == 2
        clean = partition_variance(
            JacobianSeries(times=np.arange(1, 101), coef=np.ones(100)),
            np.full(100, 0.6), window=20, stride=10,
        )
        assert clean.n_skipped == 0

    def test_window_longer_than_record(self):
        jac = JacobianSeries(times=np.arange(1, 11), coef=np.ones(10))
        with pytest.raises(ValueError, match="window"):
            partition_variance(jac, np.full(10, 0.7), window=50)


class TestTrappedState:
    def test_all_zero_series_no_intervals(self):
        f = frame_from(active=np.zeros(500))
        assert detect_trapped_state(f).intervals == ()

    def test_single_block_interval(self):
        active = np.zeros(600)
        active[99:500] = 150.0  # ticks 100..500 inclusive
        f = frame_from(active=active)
        tr = detect_trapped_state(f, active_floor=100, min_duration=200)
        assert tr.intervals == ((100, 500),)

    def test_short_blocks_ignored(self):
        active = np.zeros(600)
        active[100:250] = 150.0  # 150 ticks < min duration
        f = frame_from(active=active)
        assert detect_trapped_state(f, 100, 200).intervals == ()

    def test_interval_reaching_end_of_record(self):
        active = np.zeros(400)
        active[150:] = 120.0
        f = frame_from(active=active)
        assert detect_trapped_state(f, 100, 200).intervals == ((151, 400),)

    def test_idempotent_under_quiescent_append(self):
        active = np.zeros(700)
        active[50:350] = 200.0
        f1 = frame_from(active=active[:400])
        f2 = frame_from(active=active)  # 300 extra quiescent ticks
        assert detect_trapped_state(f1).intervals == detect_trapped_state(f2).intervals

    def test_intervals_sorted_disjoint(self):
        active = np.zeros(1200)
        active[100:400] = 150.0
        active[600:900] = 180.0
        tr = detect_trapped_state(frame_from(active=active))
        assert tr.intervals == ((101, 400), (601, 900))


class TestOutbursts:
    def test_onsets_are_upcrossings(self):
        active = np.zeros(100)
        active[10:15] = 50.0
        active[40:44] = 60.0
        f = frame_from(active=active)
        assert outburst_onsets(f, floor=20).tolist() == [11, 41]

    def test_start_above_floor_counts(self):
        active = np.full(50, 30.0)
        f = frame_from(active=active)
        assert outburst_onsets(f, floor=20).tolist() == [1]

    def test_waiting_times(self):
        w = waiting_times(np.array([5, 15, 18, 40]))
        assert w.tolist() == [10.0, 3.0, 22.0]

    def test_exponential_gof_accepts_exponential(self):
        rng = np.random.default_rng(3)
        w = rng.exponential(scale=30.0, size=200)
        stat, p = exponential_gof(w)
        assert p > 0.01

    def test_exponential_gof_rejects_constant_spacing(self):
        w = np.full(100, 25.0)
        stat, p = exponential_gof(w)
        assert p < 0.01

    def test_exponential_gof_needs_enough_events(self):
        with pytest.raises(ValueError, match="at least"):
            exponential_gof(np.array([1.0, 2.0]))
