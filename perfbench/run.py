"""Run one edmcontrol benchmark workload and print its result.

    python3 perfbench/run.py --workload closed_loop --seed 0 --seconds 15 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` they are its
per-layer metrics, and the spans are written to ``.perfbench_out/``.
Workloads, metrics and units are declared in ``BENCHMARK.json``.

Each run sets up three times, runs one untimed warm-up operation at full
scale (checked against the oracles), then times operations for ``--seconds``.
The end-to-end metrics come from untraced operations:

- ``wall_s``: median seconds of one operation;
- ``setup_s``: importing edmcontrol once, plus the median of the set-ups
  (config, inputs made from the seed, one small-world warm-up operation);
- ``peak_rss_mb``: the process's resident-set high-water mark;
- ``call_p50_ms`` and ``call_p90_ms``: latency of one call the caller waits
  on, which is an ABM tick (open_loop), an engaged controller decision
  (closed_loop) or a CLI command (analysis, skill_scan); each is the median
  over operations of that operation's percentile.  The p99 of a run reads
  30% to 50% apart between runs on a shared two-core host, so the p99s are
  per-layer metrics of the traced run (``abm.step.p99_us``,
  ``control.decide.p99_ms``, and ``warm_up.call_p99_ms`` for the cold first
  operation, where the two-thread BLAS tail shows).

Operations that raise, fail a check, or whose output digests differ from the
first operation's count in ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


def import_program() -> float:
    """Import edmcontrol from this checkout's ``src/``; returns the seconds it took."""
    if not (SRC / "edmcontrol" / "__init__.py").is_file():
        sys.exit(f"perfbench: no edmcontrol sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import edmcontrol.cli  # noqa: F401  (pulls in every module the workloads use)

    elapsed = time.perf_counter() - t0
    loaded = Path(sys.modules["edmcontrol"].__file__).resolve()
    if SRC.resolve() not in loaded.parents:
        sys.exit(f"perfbench: edmcontrol was imported from {loaded}, not {SRC}")
    return elapsed


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if ns.trace else "end_to_end"]}

    import_s = import_program()
    import harness
    import workloads

    tag = f"{ns.workload}-seed{ns.seed}-trace{ns.trace}"
    work = OUT / f"{tag}-{os.getpid()}"
    try:
        record = harness.run_workload(
            ns.workload, ns.seed, ns.seconds, bool(ns.trace), workloads.BENCH, import_s, work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = record["metrics"]
    if set(metrics) != set(units):
        sys.exit(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
    spans = record.pop("spans", None)
    if spans is not None:
        with open(OUT / f"spans-{tag}.jsonl", "w") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in spans)
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print("inputs " + json.dumps(record["ops"][0]["props"], sort_keys=True))
    print("samples " + json.dumps(record["samples"], sort_keys=True))
    for name, digest in sorted(record["digests"].items()):
        print(f"digest {name} {digest}")
    for i, op in enumerate(record["ops"]):
        for problem in op["problems"]:
            print(f"op {i} failed: {problem}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in sorted(metrics)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
