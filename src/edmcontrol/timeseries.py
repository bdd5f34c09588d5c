"""Time-indexed frames, state-space embeddings, and library/prediction splits.

A :class:`Frame` is a named table of equal-length real-valued columns over an
integer tick index.  Embeddings turn one or more columns (at chosen lags) into
an ``N x E`` matrix of state-space points, each aligned with the value of a
target column ``tp`` steps ahead of the point's origin tick.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Frame",
    "EmbeddingSpec",
    "Embedding",
    "InsufficientDataError",
    "build_delay_embedding",
    "build_generalized_embedding",
    "build_state_vector",
    "split_library_prediction",
    "read_frame_csv",
    "write_frame_csv",
]


class InsufficientDataError(ValueError):
    """Raised when a series or frame is too short for the requested embedding."""


@dataclass(frozen=True)
class Frame:
    """Time-indexed table of real-valued observation columns.

    Args:
        time: strictly increasing integer tick index with unit step.
        columns: mapping from column name to a float array; all columns must
            have the same length as ``time``.
    """

    time: np.ndarray
    columns: dict[str, np.ndarray]

    def __post_init__(self):
        time = np.asarray(self.time, dtype=np.int64)
        object.__setattr__(self, "time", time)
        if time.ndim != 1 or time.size < 1:
            raise ValueError("time index must be a non-empty 1-D array")
        if time.size > 1 and not np.all(np.diff(time) == 1):
            raise ValueError("time index must be strictly increasing with unit step")
        cols = {}
        for name, values in self.columns.items():
            arr = np.asarray(values, dtype=np.float64)
            if arr.shape != time.shape:
                raise ValueError(
                    f"column {name!r} has length {arr.shape[0] if arr.ndim == 1 else arr.shape},"
                    f" expected {time.size}"
                )
            cols[name] = arr
        object.__setattr__(self, "columns", cols)

    @classmethod
    def _unchecked(cls, time: np.ndarray, columns: dict) -> Frame:
        """A frame holding exactly the given arrays, unchecked: for an int64
        unit-step time index and float64 columns its caller built itself."""
        frame = object.__new__(cls)
        object.__setattr__(frame, "time", time)
        object.__setattr__(frame, "columns", columns)
        return frame

    def __len__(self) -> int:
        return int(self.time.size)

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise KeyError(f"unknown column {name!r}; frame has {sorted(self.columns)}")
        return self.columns[name]

    def index_of(self, tick: int) -> int:
        """Position of ``tick`` in the time index."""
        pos = int(tick - self.time[0])
        if pos < 0 or pos >= len(self) or self.time[pos] != tick:
            raise KeyError(f"tick {tick} not in frame time range [{self.time[0]}, {self.time[-1]}]")
        return pos


@dataclass(frozen=True)
class EmbeddingSpec:
    """Declares which (column, lag) pairs form the state-space coordinates.

    ``coordinates`` is an ordered list of ``(column, lag)`` with non-negative
    integer lags (steps into the past).  ``target`` names the predicted column
    and ``tp`` the prediction horizon in steps (``tp = 0`` is allowed for
    nowcast-style cross mapping).
    """

    coordinates: tuple[tuple[str, int], ...]
    target: str
    tp: int

    def __post_init__(self):
        coords = tuple((str(c), int(lag)) for c, lag in self.coordinates)
        object.__setattr__(self, "coordinates", coords)
        if len(coords) < 1:
            raise ValueError("embedding needs at least one coordinate")
        if len(set(coords)) != len(coords):
            raise ValueError(f"duplicate coordinates in {coords}")
        if any(lag < 0 for _, lag in coords):
            raise ValueError("lags must be non-negative (steps into the past)")
        if self.tp < 0:
            raise ValueError("prediction horizon tp must be >= 0")

    @property
    def e(self) -> int:
        """Embedding dimension (number of coordinates)."""
        return len(self.coordinates)

    @property
    def max_lag(self) -> int:
        return max(lag for _, lag in self.coordinates)

    def coord_names(self) -> tuple[str, ...]:
        return tuple(f"{c}(t-{lag})" if lag else f"{c}(t)" for c, lag in self.coordinates)


@dataclass(frozen=True)
class Embedding:
    """Materialized state-space points with aligned targets.

    ``points[i]`` is the E-dimensional state vector whose origin is
    ``times[i]``; ``targets[i]`` is the target column at ``times[i] + tp``.
    The embedding builders drop rows that contain a non-finite value.
    """

    points: np.ndarray
    targets: np.ndarray
    times: np.ndarray
    coord_names: tuple[str, ...] = ()

    def __post_init__(self):
        points = np.atleast_2d(np.asarray(self.points, dtype=np.float64))
        targets = np.asarray(self.targets, dtype=np.float64)
        times = np.asarray(self.times, dtype=np.int64)
        if points.shape[0] != targets.size or points.shape[0] != times.size:
            raise ValueError("points, targets and times must agree in length")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "times", times)

    def __len__(self) -> int:
        return int(self.points.shape[0])

    @property
    def e(self) -> int:
        return int(self.points.shape[1])

    def take(self, indices: np.ndarray) -> "Embedding":
        return Embedding(
            self.points[indices],
            self.targets[indices],
            self.times[indices],
            self.coord_names,
        )


def _embed(lagged, target, tp: int, start: int, times, coord_names) -> Embedding:
    """The rows with origin positions ``start`` to ``start + len(times)``.

    ``lagged`` lists ``(values, lag)`` in coordinate order: coordinate j of
    the row at position t is ``values[t - lag]`` and its target is
    ``target[t + tp]``.  Each coordinate is one contiguous slice, copied into
    a row of one ``(E + 1, n)`` array whose last row holds the targets, and
    ``points`` is the transpose of its coordinate rows, so the kernels read
    each coordinate in place.  Rows with a non-finite value are dropped.
    """
    stop = start + len(times)
    block = np.empty((len(lagged) + 1, len(times)), dtype=np.float64)
    for row, (values, lag) in zip(block, lagged):
        row[:] = values[start - lag : stop - lag]
    block[-1] = target[start + tp : stop + tp]
    finite = np.isfinite(block)
    if not finite.all():
        keep = finite.all(axis=0)
        block, times = block.compress(keep, axis=1), times[keep]
    return Embedding(block[:-1].T, block[-1], times, coord_names)


def build_delay_embedding(series, e: int, tau: int = 1, tp: int = 1) -> Embedding:
    """Univariate delay embedding.

    The row with origin ``t`` is ``(x(t), x(t-tau), ..., x(t-(e-1)*tau))``,
    most recent first, and its target is ``x(t + tp)``.  Row count is
    ``len(series) - (e-1)*tau - tp``.

    Raises:
        InsufficientDataError: if the series is shorter than
            ``(e-1)*tau + tp + 1``.
    """
    x = np.asarray(series, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-D series, got shape {x.shape}")
    if e < 1:
        raise ValueError("embedding dimension e must be >= 1")
    if tau < 1:
        raise ValueError("lag spacing tau must be >= 1")
    if tp < 0:
        raise ValueError("prediction horizon tp must be >= 0")
    need = (e - 1) * tau + tp + 1
    if x.size < need:
        raise InsufficientDataError(
            f"series of length {x.size} too short for e={e}, tau={tau}, tp={tp};"
            f" need at least {need} observations"
        )
    start = (e - 1) * tau
    origins = np.arange(start, x.size - tp)
    # coordinate j holds x(t - j*tau): most recent coordinate first
    names = tuple(f"x(t-{j * tau})" if j else "x(t)" for j in range(e))
    return _embed([(x, j * tau) for j in range(e)], x, tp, start, origins, names)


def build_generalized_embedding(frame: Frame, spec: EmbeddingSpec) -> Embedding:
    """Multivariate embedding from a frame per an :class:`EmbeddingSpec`.

    The row with origin tick ``t`` concatenates ``frame[column][t - lag]`` in
    spec order; the target is ``frame[spec.target][t + spec.tp]``.  Valid
    origins run from ``max_lag`` past the frame start to ``tp`` before its
    end, so the row count is ``len(frame) - max_lag - tp``, less the rows
    with a non-finite value.
    """
    lagged = [(frame.column(name), lag) for name, lag in spec.coordinates]
    target = frame.column(spec.target)
    max_lag = spec.max_lag
    stop = len(frame) - spec.tp
    if stop <= max_lag:
        raise InsufficientDataError(
            f"frame of length {len(frame)} too short for max lag {max_lag}"
            f" and tp={spec.tp}; need at least {max_lag + spec.tp + 1} rows"
        )
    times = frame.time[max_lag:stop].copy()
    return _embed(lagged, target, spec.tp, max_lag, times, spec.coord_names())


def build_state_vector(frame: Frame, spec: EmbeddingSpec) -> np.ndarray:
    """State vector at the last tick of the frame, without requiring a target.

    Used to query a model at the most recent completed observation, where the
    target ``tp`` steps ahead has not been observed yet.
    """
    pos = len(frame) - 1
    if pos - spec.max_lag < 0:
        raise InsufficientDataError(
            f"tick position {pos} precedes max lag {spec.max_lag}"
        )
    return np.array(
        [frame.columns[name][pos - lag] for name, lag in spec.coordinates],
        dtype=np.float64,
    )


def split_library_prediction(
    embedding: Embedding,
    lib_range: tuple[int, int],
    pred_range: tuple[int, int],
) -> tuple[Embedding, Embedding]:
    """Partition an embedding into library and prediction sets by origin time.

    Ranges are inclusive ``(start, end)`` intervals over the embedding's
    origin ticks.  They must be disjoint so that library neighbor search
    never sees prediction rows.

    Raises:
        ValueError: if the ranges overlap or if either partition comes out
            empty.
    """
    lo_a, hi_a = int(lib_range[0]), int(lib_range[1])
    lo_b, hi_b = int(pred_range[0]), int(pred_range[1])
    if lo_a > hi_a or lo_b > hi_b:
        raise ValueError("ranges must satisfy start <= end")
    if max(lo_a, lo_b) <= min(hi_a, hi_b):
        raise ValueError(f"overlapping ranges {lib_range} and {pred_range}")
    t = embedding.times
    lib = embedding.take(np.flatnonzero((t >= lo_a) & (t <= hi_a)))
    pred = embedding.take(np.flatnonzero((t >= lo_b) & (t <= hi_b)))
    if len(lib) == 0:
        raise ValueError(f"library range {lib_range} selects no embedding rows")
    if len(pred) == 0:
        raise ValueError(f"prediction range {pred_range} selects no embedding rows")
    return lib, pred


_MISSING_TOKENS = {"", "nan", "na", "null"}


def read_frame_csv(path) -> Frame:
    """Read a frame from CSV: header row, first column ``time``, one record per tick.

    Empty fields and ``nan`` tokens parse as missing (NaN).
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if not header or header[0] != "time":
            raise ValueError(f"{path}: first CSV column must be 'time', got {header[:1]}")
        names = header[1:]
        times = []
        data = [[] for _ in names]
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            times.append(int(row[0]))
            for j, tok in enumerate(row[1:]):
                tok = tok.strip()
                data[j].append(math.nan if tok.lower() in _MISSING_TOKENS else float(tok))
    return Frame(np.array(times, dtype=np.int64), {n: np.array(v) for n, v in zip(names, data)})


def write_frame_csv(frame: Frame, path) -> None:
    """Write a frame as CSV with full round-trip decimal precision."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        names = list(frame.columns)
        writer.writerow(["time", *names])
        cols = [frame.columns[n] for n in names]
        for i, t in enumerate(frame.time):
            writer.writerow([int(t), *(repr(float(c[i])) for c in cols)])
