import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edmcontrol import edm
from edmcontrol.timeseries import (
    Embedding,
    EmbeddingSpec,
    Frame,
    InsufficientDataError,
    build_delay_embedding,
    build_generalized_embedding,
    build_state_vector,
    read_frame_csv,
    split_library_prediction,
    write_frame_csv,
)


def make_frame(**cols):
    n = len(next(iter(cols.values())))
    return Frame(np.arange(1, n + 1), {k: np.asarray(v, dtype=float) for k, v in cols.items()})


class TestFrame:
    def test_rejects_ragged_columns(self):
        with pytest.raises(ValueError, match="length"):
            Frame(np.arange(3), {"a": np.zeros(3), "b": np.zeros(2)})

    def test_rejects_nonunit_time(self):
        with pytest.raises(ValueError, match="unit step"):
            Frame(np.array([1, 3, 4]), {"a": np.zeros(3)})

    @pytest.mark.parametrize(
        "time", [[1, 2, 2], [3, 2, 1], [1, 2, 4], [[1, 2, 3]], []], ids=str
    )
    def test_user_frames_are_checked(self, time):
        # only run_scenario's own history views skip these checks
        n = np.asarray(time).size
        with pytest.raises(ValueError, match="time index"):
            Frame(np.asarray(time, dtype=np.int64), {"a": np.zeros(n)})

    def test_unknown_column(self):
        f = make_frame(a=[1.0, 2.0])
        with pytest.raises(KeyError, match="unknown column"):
            f.column("b")

    def test_index_of(self):
        f = make_frame(a=[1.0, 2.0, 3.0])
        assert f.index_of(2) == 1
        with pytest.raises(KeyError):
            f.index_of(9)


class TestDelayEmbedding:
    def test_e1_identity(self):
        emb = build_delay_embedding([1, 2, 3, 4, 5], e=1, tau=1, tp=1)
        assert emb.points.tolist() == [[1], [2], [3], [4]]
        assert emb.targets.tolist() == [2, 3, 4, 5]

    def test_e2_row_layout(self):
        emb = build_delay_embedding([1, 2, 3, 4, 5], e=2, tau=1, tp=1)
        assert emb.points.tolist() == [[2, 1], [3, 2], [4, 3]]
        assert emb.targets.tolist() == [3, 4, 5]

    def test_tau2_tp2_enumerated(self):
        # valid origins by hand: t must allow lag (e-1)*tau=2 and target t+2
        # on indices 0..6 -> t in {2, 3, 4}; rows (x(t), x(t-2)), target x(t+2)
        emb = build_delay_embedding([1, 2, 3, 4, 5, 6, 7], e=2, tau=2, tp=2)
        assert emb.points.tolist() == [[3, 1], [4, 2], [5, 3]]
        assert emb.targets.tolist() == [5, 6, 7]

    def test_too_short_names_minimum(self):
        with pytest.raises(InsufficientDataError, match="at least 8"):
            build_delay_embedding([1, 2, 3], e=3, tau=2, tp=3)

    @given(
        n=st.integers(10, 60),
        e=st.integers(1, 4),
        tau=st.integers(1, 3),
        tp=st.integers(0, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_row_count_formula(self, n, e, tau, tp):
        need = (e - 1) * tau + tp + 1
        series = np.arange(n, dtype=float)
        if n < need:
            with pytest.raises(InsufficientDataError):
                build_delay_embedding(series, e, tau, tp)
            return
        emb = build_delay_embedding(series, e, tau, tp)
        assert len(emb) == n - (e - 1) * tau - tp

    @given(n=st.integers(12, 50), e=st.integers(1, 4), tau=st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_offsets(self, n, e, tau):
        rng = np.random.default_rng(0)
        series = rng.normal(size=n)
        if n < (e - 1) * tau + 2:
            return
        emb = build_delay_embedding(series, e, tau, tp=1)
        for i, t in enumerate(emb.times):
            for j in range(e):
                assert emb.points[i, j] == series[t - j * tau]
            assert emb.targets[i] == series[t + 1]
        assert np.shares_memory(edm._coordinate_rows(emb), emb.points)


class TestGeneralizedEmbedding:
    def test_zero_lag_concatenation(self):
        f = make_frame(A=[1, 2, 3], B=[10, 20, 30])
        spec = EmbeddingSpec((("A", 0), ("B", 0)), target="A", tp=1)
        emb = build_generalized_embedding(f, spec)
        assert emb.points.tolist() == [[1, 10], [2, 20]]
        assert emb.targets.tolist() == [2, 3]

    def test_six_dim_paper_configuration(self):
        rng = np.random.default_rng(1)
        f = make_frame(
            jailed=rng.random(30), quiet=rng.random(30), active=rng.random(30)
        )
        spec = EmbeddingSpec(
            (("jailed", 0), ("jailed", 2), ("jailed", 4), ("quiet", 0), ("quiet", 2), ("quiet", 4)),
            target="active",
            tp=5,
        )
        emb = build_generalized_embedding(f, spec)
        assert emb.e == 6
        assert len(emb) == 30 - 4 - 5
        # spot check one row against raw frame values
        t = emb.times[3]
        i = f.index_of(t)
        assert emb.points[3, 1] == f.columns["jailed"][i - 2]
        assert emb.points[3, 5] == f.columns["quiet"][i - 4]
        assert emb.targets[3] == f.columns["active"][i + 5]

    def test_single_row_case(self):
        # length 10, max lag 4, tp 5 -> exactly one valid origin
        f = make_frame(a=np.arange(10.0), b=np.arange(10.0))
        spec = EmbeddingSpec((("a", 0), ("a", 4)), target="b", tp=5)
        emb = build_generalized_embedding(f, spec)
        assert len(emb) == 1

    def test_unknown_column(self):
        f = make_frame(a=[1.0, 2.0, 3.0])
        spec = EmbeddingSpec((("z", 0),), target="a", tp=1)
        with pytest.raises(KeyError):
            build_generalized_embedding(f, spec)

    def test_nan_rows_dropped_and_counted(self):
        vals = np.arange(20.0)
        vals[7] = np.nan
        f = make_frame(a=vals, b=np.arange(20.0))
        spec = EmbeddingSpec((("a", 0), ("a", 1)), target="b", tp=1)
        emb = build_generalized_embedding(f, spec)
        # origin positions 7 and 8 (ticks 8 and 9) read the NaN coordinate
        assert len(emb) == 20 - 1 - 1 - 2
        assert emb.times.tolist() == [t for t in range(2, 20) if t not in (8, 9)]

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_equals_per_row_oracle(self, data):
        n = data.draw(st.integers(14, 40))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        cols = {name: rng.normal(size=n) for name in "abc"}
        # column a at several lags, the others at most once each
        a_lags = data.draw(st.lists(st.integers(0, 6), min_size=2, max_size=4, unique=True))
        others = data.draw(
            st.lists(st.tuples(st.sampled_from("bc"), st.integers(0, 6)), max_size=2, unique_by=lambda c: c[0])
        )
        coords = data.draw(st.permutations([("a", lag) for lag in a_lags] + others))
        target = data.draw(st.sampled_from("abc"))
        spec = EmbeddingSpec(tuple(coords), target=target, tp=data.draw(st.integers(0, 6)))
        if data.draw(st.booleans()):
            cols["a"][data.draw(st.integers(0, n - 1))] = np.nan
        if data.draw(st.booleans()):
            cols[target][data.draw(st.integers(0, n - 1))] = data.draw(st.sampled_from([np.nan, np.inf]))
        f = make_frame(**cols)
        emb = build_generalized_embedding(f, spec)

        points, targets, times = [], [], []
        for t in range(spec.max_lag, n - spec.tp):
            row = [f.columns[c][t - lag] for c, lag in spec.coordinates]
            y = f.columns[target][t + spec.tp]
            if np.isfinite(row).all() and np.isfinite(y):
                points.append(row)
                targets.append(y)
                times.append(f.time[t])
        assert emb.points.tobytes() == np.array(points, dtype=np.float64).reshape(-1, spec.e).tobytes()
        assert emb.targets.tobytes() == np.array(targets, dtype=np.float64).tobytes()
        assert emb.times.tobytes() == np.array(times, dtype=np.int64).tobytes()
        if len(emb) == n - spec.max_lag - spec.tp:
            # no row dropped: the kernels read the coordinates in place
            assert np.shares_memory(edm._coordinate_rows(emb), emb.points)

    def test_duplicate_coordinates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            EmbeddingSpec((("a", 0), ("a", 0)), target="a", tp=1)

    def test_state_vector_matches_embedding_row(self):
        rng = np.random.default_rng(5)
        f = make_frame(a=rng.random(15), b=rng.random(15))
        spec = EmbeddingSpec((("a", 0), ("b", 3)), target="a", tp=2)
        emb = build_generalized_embedding(f, spec)
        # the last embedding row's origin is the last tick of a frame cut there
        cut = make_frame(a=f.column("a")[: emb.times[-1]], b=f.column("b")[: emb.times[-1]])
        v = build_state_vector(cut, spec)
        assert np.array_equal(v, emb.points[-1])


class TestSplit:
    def make_embedding(self, n=100):
        return Embedding(
            points=np.arange(n, dtype=float)[:, None],
            targets=np.arange(n, dtype=float),
            times=np.arange(1, n + 1),
        )

    def test_even_split(self):
        emb = self.make_embedding(100)
        lib, pred = split_library_prediction(emb, (1, 50), (51, 100))
        assert len(lib) == 50 and len(pred) == 50

    def test_paper_protocol_ranges(self):
        emb = self.make_embedding(3100)
        lib, pred = split_library_prediction(emb, (1, 1500), (1601, 3100))
        assert lib.times.max() == 1500
        assert pred.times.min() == 1601
        assert len(lib) == 1500 and len(pred) == 1500

    def test_overlap_rejected_by_default(self):
        emb = self.make_embedding(100)
        with pytest.raises(ValueError, match="overlap"):
            split_library_prediction(emb, (1, 50), (40, 60))

    def test_empty_partition_rejected(self):
        emb = self.make_embedding(10)
        with pytest.raises(ValueError, match="no embedding rows"):
            split_library_prediction(emb, (1, 5), (900, 999))


class TestCsv:
    def test_round_trip(self, tmp_path):
        f = make_frame(quiet=[1.0, 2.5, 3.125], active=[0.0, np.nan, 7.0])
        path = tmp_path / "frame.csv"
        write_frame_csv(f, path)
        g = read_frame_csv(path)
        assert list(g.columns) == ["quiet", "active"]
        assert np.array_equal(g.time, f.time)
        assert np.allclose(g.columns["quiet"], f.columns["quiet"])
        assert np.isnan(g.columns["active"][1])

    def test_byte_identical_rewrite(self, tmp_path):
        rng = np.random.default_rng(3)
        f = make_frame(x=rng.normal(size=50) * 1e3)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_frame_csv(f, a)
        write_frame_csv(read_frame_csv(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_missing_time_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("tick,a\n1,2\n")
        with pytest.raises(ValueError, match="must be 'time'"):
            read_frame_csv(path)
