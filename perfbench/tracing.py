"""Spans around the public functions of edmcontrol, recorded from outside.

A :class:`Tracer` replaces a function in every edmcontrol module namespace
that holds it (``edmcontrol.abm.step``, ``edmcontrol.control.smap_predict``,
``edmcontrol.cli.interaction_coefficients`` and so on), so each caller's
global lookup finds the wrapper.  Nothing under ``src/`` changes.  Each span
records name, start, end, parent id and a few counts read from the call's
arguments or result; spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time

import numpy as np

# (module, function, span name) for every traced boundary.
TRACED = (
    ("abm", "init_world", "abm.init_world"),
    ("abm", "step", "abm.step"),
    ("control", "closed_loop_controller", "control.decide"),
    ("edm", "knn", "edm.knn"),
    ("edm", "simplex_predict", "edm.simplex_predict"),
    ("edm", "smap_predict", "edm.smap_predict"),
    ("timeseries", "build_generalized_embedding", "timeseries.build_generalized_embedding"),
    ("timeseries", "build_delay_embedding", "timeseries.build_delay_embedding"),
    ("timeseries", "build_state_vector", "timeseries.build_state_vector"),
    ("timeseries", "read_frame_csv", "timeseries.read_frame_csv"),
    ("timeseries", "write_frame_csv", "timeseries.write_frame_csv"),
    ("evaluation", "embed_dimension_scan", "evaluation.embed_dimension_scan"),
    ("evaluation", "tp_scan", "evaluation.tp_scan"),
    ("evaluation", "tune_theta", "evaluation.tune_theta"),
    ("analysis", "interaction_coefficients", "analysis.interaction_coefficients"),
    ("analysis", "partition_variance", "analysis.partition_variance"),
    ("analysis", "detect_trapped_state", "analysis.detect_trapped_state"),
    ("scenarios", "standard_run", "scenarios.standard_run"),
    ("scenarios", "legitimacy_profile", "scenarios.legitimacy_profile"),
    ("cli", "main", "cli.main"),
)

OP_SPAN = "perfbench.op"


def _query_count(queries) -> int:
    points = getattr(queries, "points", queries)
    return int(np.atleast_2d(np.asarray(points)).shape[0])


def _probe_step(args, kwargs, result):
    return {"active": int(result.active)}


def _probe_decide(args, kwargs, result):
    # closed_loop_controller(history, config, ...): rows with an observed target
    history = args[0]
    config = args[1] if len(args) > 1 else kwargs.get("config")
    spec = config.spec
    rows = max(0, len(history) - spec.max_lag - spec.tp) if result.engaged else 0
    return {"engaged": bool(result.engaged), "held": bool(result.held), "library_rows": rows}


def _probe_smap(args, kwargs, result):
    library = args[0]
    return {
        "queries": _query_count(args[1] if len(args) > 1 else kwargs["queries"]),
        "library_rows": len(library),
        "e": library.e,
        "rank_deficient": sum(1 for o in result if o.rank_deficient),
        "degenerate": sum(1 for o in result if o.degenerate),
    }


def _probe_simplex(args, kwargs, result):
    library = args[0]
    return {
        "queries": _query_count(args[1] if len(args) > 1 else kwargs["queries"]),
        "library_rows": len(library),
        "e": library.e,
    }


def _probe_rows(args, kwargs, result):
    return {"rows": len(result)}


def _probe_jacobian(args, kwargs, result):
    return {"rows": int(result.coef.size), "n_flagged": int(result.n_flagged)}


def _partition_probe(fn):
    sig = inspect.signature(fn)

    def probe(args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        n = int(np.asarray(bound.arguments["jacobians"].coef).size)
        window, stride = int(bound.arguments["window"]), int(bound.arguments["stride"])
        windows = len(range(0, n - window + 1, stride))
        return {"windows_skipped": windows - result.low.size - result.high.size}

    return probe


_PROBES = {
    "abm.step": _probe_step,
    "control.decide": _probe_decide,
    "edm.smap_predict": _probe_smap,
    "edm.simplex_predict": _probe_simplex,
    "timeseries.build_generalized_embedding": _probe_rows,
    "timeseries.build_delay_embedding": _probe_rows,
    "analysis.interaction_coefficients": _probe_jacobian,
}


class Tracer:
    """In-memory span recorder that patches edmcontrol functions while installed."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, probe=None):
        """Wrap ``fn`` so every call records one span named ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            rec = {"id": sid, "parent": self._stack[-1] if self._stack else None, "name": name}
            self.spans.append(rec)
            self._stack.append(sid)
            rec["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = time.perf_counter()
                self._stack.pop()
            if probe is not None:
                rec.update(probe(args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        """Patch every traced function in every loaded edmcontrol module."""
        modules = [m for n, m in sys.modules.items() if n == "edmcontrol" or n.startswith("edmcontrol.")]
        for mod_name, fn_name, span_name in TRACED:
            original = getattr(sys.modules[f"edmcontrol.{mod_name}"], fn_name)
            probe = _PROBES.get(span_name)
            if span_name == "analysis.partition_variance":
                probe = _partition_probe(original)
            wrapper = self.span(span_name, original, probe)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 when there are no samples."""
    if not values:
        return 0.0
    v = sorted(values)
    return float(v[max(0, math.ceil(q / 100.0 * len(v)) - 1)])


def layer_metrics(spans: list[dict], n_ops: int, trapped_floor: float) -> dict[str, float]:
    """Per-layer metrics per traced operation, from the spans under op roots."""
    dur: dict[int, float] = {}
    child: dict[int, float] = {}
    for s in spans:
        d = s["end"] - s["start"]
        dur[s["id"]] = d
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + d

    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def calls(name):
        return len(by_name.get(name, ()))

    def total(name):
        return sum(dur[s["id"]] for s in by_name.get(name, ()))

    def self_time(name):
        return sum(dur[s["id"]] - child.get(s["id"], 0.0) for s in by_name.get(name, ()))

    def field(name, key):
        return sum(s.get(key, 0) for s in by_name.get(name, ()))

    steps = by_name.get("abm.step", [])
    engaged = [s for s in by_name.get("control.decide", ()) if s["engaged"]]
    smap = by_name.get("edm.smap_predict", [])
    simplex = by_name.get("edm.simplex_predict", [])
    actives = [s["active"] for s in steps]
    per_op = 1.0 / max(1, n_ops)

    m = {
        "abm.step.calls": calls("abm.step") * per_op,
        "abm.step.self_s": self_time("abm.step") * per_op,
        "abm.step.p50_us": percentile([dur[s["id"]] * 1e6 for s in steps], 50),
        "abm.step.p99_us": percentile([dur[s["id"]] * 1e6 for s in steps], 99),
        "abm.init_world.s": total("abm.init_world") * per_op,
        "abm.active_mean": float(np.mean(actives)) if actives else 0.0,
        "abm.trapped_tick_share": (
            float(np.mean(np.asarray(actives) >= trapped_floor)) if actives else 0.0
        ),
        "control.decide.calls": calls("control.decide") * per_op,
        "control.decide.engaged": len(engaged) * per_op,
        "control.decide.held": field("control.decide", "held") * per_op,
        "control.decide.self_s": self_time("control.decide") * per_op,
        "control.decide.p50_ms": percentile([dur[s["id"]] * 1e3 for s in engaged], 50),
        "control.decide.p99_ms": percentile([dur[s["id"]] * 1e3 for s in engaged], 99),
        "control.library_rows": (
            float(np.mean([s["library_rows"] for s in engaged])) if engaged else 0.0
        ),
    }
    for name in ("build_generalized_embedding", "build_delay_embedding"):
        full = f"timeseries.{name}"
        m[f"{full}.calls"] = calls(full) * per_op
        m[f"{full}.self_s"] = self_time(full) * per_op
        m[f"{full}.rows"] = field(full, "rows") * per_op
    m["timeseries.build_state_vector.self_s"] = self_time("timeseries.build_state_vector") * per_op
    m["timeseries.read_frame_csv.s"] = total("timeseries.read_frame_csv") * per_op
    m["timeseries.write_frame_csv.s"] = total("timeseries.write_frame_csv") * per_op

    # Kernel work is computed from call shapes, not counted by hardware:
    # a distance costs 3E flops per library row, a weighted least-squares
    # solve about 2(E+1)^2 per row.
    distance_evals = sum(s["queries"] * s["library_rows"] for s in smap)
    flops = sum(s["queries"] * s["library_rows"] * (3 * s["e"] + 2 * (s["e"] + 1) ** 2) for s in smap)
    m.update({
        "edm.smap_predict.calls": calls("edm.smap_predict") * per_op,
        "edm.smap_predict.queries": field("edm.smap_predict", "queries") * per_op,
        "edm.smap_predict.self_s": self_time("edm.smap_predict") * per_op,
        "edm.smap_predict.rank_deficient": field("edm.smap_predict", "rank_deficient") * per_op,
        "edm.smap_predict.degenerate": field("edm.smap_predict", "degenerate") * per_op,
        "edm.smap_predict.distance_evals": distance_evals * per_op,
        "edm.smap_predict.flops_computed": flops * per_op,
        "edm.knn.calls": calls("edm.knn") * per_op,
        "edm.knn.self_s": self_time("edm.knn") * per_op,
        "edm.simplex_predict.queries": field("edm.simplex_predict", "queries") * per_op,
        "edm.simplex_predict.self_s": self_time("edm.simplex_predict") * per_op,
        "edm.simplex_predict.distance_evals": (
            sum(s["queries"] * s["library_rows"] for s in simplex) * per_op
        ),
        "evaluation.embed_dimension_scan.s": total("evaluation.embed_dimension_scan") * per_op,
        "evaluation.tp_scan.s": total("evaluation.tp_scan") * per_op,
        "evaluation.tune_theta.s": total("evaluation.tune_theta") * per_op,
        "analysis.interaction_coefficients.s": total("analysis.interaction_coefficients") * per_op,
        "analysis.interaction_coefficients.rows": (
            field("analysis.interaction_coefficients", "rows") * per_op
        ),
        "analysis.interaction_coefficients.n_flagged": (
            field("analysis.interaction_coefficients", "n_flagged") * per_op
        ),
        "analysis.partition_variance.s": total("analysis.partition_variance") * per_op,
        "analysis.partition_variance.windows_skipped": (
            field("analysis.partition_variance", "windows_skipped") * per_op
        ),
        "analysis.detect_trapped_state.s": total("analysis.detect_trapped_state") * per_op,
        "scenarios.standard_run.s": total("scenarios.standard_run") * per_op,
        "scenarios.legitimacy_profile.s": total("scenarios.legitimacy_profile") * per_op,
        "cli.self_s": self_time("cli.main") * per_op,
    })
    return m
