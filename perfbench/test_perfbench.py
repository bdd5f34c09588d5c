"""Self-test of the benchmark at the small scale.

    python -m pytest perfbench

Every workload runs untraced and traced on the small world of the CLI replay
acceptance test; the result must be correct and carry exactly the metrics
that BENCHMARK.json declares.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

run.import_program()

import harness  # noqa: E402
import workloads  # noqa: E402
from edmcontrol import scenarios, timeseries  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEED = 3


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_workload_is_correct_and_reports_declared_metrics(tmp_path, name, trace):
    record = harness.run_workload(name, SEED, 0.0, trace, workloads.SMALL, 0.1, tmp_path)
    assert record["correct"], record["ops"]
    assert record["failed"] == 0
    assert record["attempted"] == 1 + harness.MIN_OPS
    declared = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(record["metrics"]) == declared
    if not trace:
        assert all(v > 0 for v in record["metrics"].values()), record["metrics"]
        return
    spans = record["spans"]
    assert all(s["parent"] is None or spans[s["parent"]]["start"] <= s["start"] for s in spans)
    if name == "open_loop":
        m = record["metrics"]
        assert m["abm.step.calls"] == workloads.SMALL.steps * workloads.SMALL.open_loop_runs
        assert m["control.decide.calls"] == 0
        assert m["edm.smap_predict.calls"] == m["edm.knn.calls"] == 0
        assert m["edm.simplex_predict.queries"] == 0


def test_instrumented_closed_loop_matches_standard_run(tmp_path):
    ctx = workloads.make_context(workloads.SMALL, SEED, tmp_path)
    calls = []
    frame, decisions = workloads.execute_closed_loop(ctx, None, calls)
    reference = scenarios.standard_run(ctx.cfg, SEED, ctx.scale.steps, control=True, legitimacy_mode="random")
    timeseries.write_frame_csv(frame, tmp_path / "bench.csv")
    timeseries.write_frame_csv(reference, tmp_path / "reference.csv")
    assert (tmp_path / "bench.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    assert len(calls) == len(decisions) == ctx.scale.steps - ctx.cfg["warmup_ticks"] + 1


def test_command_prints_result_as_last_line(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "BENCH", workloads.SMALL)
    assert run.main(["--workload", "closed_loop", "--seed", str(SEED), "--seconds", "0", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units


def test_fails_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "open_loop", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
