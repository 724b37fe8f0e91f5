"""Compare two sets of benchmark runs: parent against change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the records that run.py writes with ``--out``, one
per (workload, seed, trace). Runs are paired by seed; a workload whose
runs share no seed across the two sets is an error. For every metric
and workload the command prints each side's median and quartiles, the
spread (interquartile range over median), the share of pairs the change
wins (ties count for neither) and a verdict:

* better: the change wins at least 9 in 10 pairs and the medians differ
  by more than the parent's interquartile range;
* worse: the change's median is worse than the parent's by more than the
  metric's bound;
* unresolved: the parent's own spread is wider than the bound;
* unchanged: otherwise.

Bounds come from BENCHMARK.json and, for metrics not listed there, from
``metrics.REPORT_ONLY``. Per-layer metrics have no bound and get no
verdict. Records from different set-ups (Python, numpy, scipy, BLAS,
thread setting, nproc, machine, job limit, run length) are refused.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETUP_KEYS = ("python", "numpy", "scipy", "blas", "blas_threads", "nproc",
              "machine", "job_limit_s", "probe_ref_s")


def load(directory: Path) -> dict:
    """(workload, trace) -> {seed: record}."""
    runs: dict = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        runs.setdefault((record["workload"], record["trace"]), {})[record["seed"]] = record
    return runs


def setup_of(record: dict) -> dict:
    env = record["environment"]
    return {**{k: env.get(k) for k in SETUP_KEYS}, "seconds": record["seconds"]}


def verdict(parent: list[float], change: list[float], better: str,
            bound: float | None) -> tuple[str, float]:
    from perfbench.metrics import quartiles

    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change)) / len(parent)
    q1, p_med, q3 = quartiles(parent)
    c_med = statistics.median(change)
    if wins >= 0.9 and abs(c_med - p_med) > q3 - q1:
        return "better", wins
    if bound is None:
        return "-", wins
    if p_med:
        worse_by = sign * (p_med - c_med) / abs(p_med)
    else:
        worse_by = math.inf if sign * (c_med - p_med) < 0 else 0.0
    if worse_by > bound:
        return "worse", wins
    if p_med and (q3 - q1) / abs(p_med) > bound:
        return "unresolved", wins
    return "unchanged", wins


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT))
    from perfbench.metrics import load_benchmark, metric_specs, quartiles

    benchmark = load_benchmark(ROOT)
    specs = metric_specs(benchmark)
    layer_better = {m["name"]: m["better"] for m in benchmark["per_layer"]}
    parent, change = load(args.parent), load(args.change)
    print(f"{'workload':<10} {'metric':<46} {'parent median [q1, q3] spread':<40} "
          f"{'change median [q1, q3] spread':<40} {'wins':>5}  verdict")
    status = 0
    for key in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[key]) & set(change[key]))
        if not seeds:
            print(f"error: {key[0]} runs share no seed", file=sys.stderr)
            return 2
        p_runs = [parent[key][s] for s in seeds]
        c_runs = [change[key][s] for s in seeds]
        setups = {json.dumps(setup_of(r), sort_keys=True) for r in p_runs + c_runs}
        if len(setups) > 1:
            print(f"error: {key[0]} runs come from different set-ups:\n  "
                  + "\n  ".join(sorted(setups)), file=sys.stderr)
            return 2
        names = [n for n in p_runs[0]["metrics"]
                 if all(n in r["metrics"] for r in p_runs + c_runs)]
        for name in names:
            p = [r["metrics"][name]["value"] for r in p_runs]
            c = [r["metrics"][name]["value"] for r in c_runs]
            spec = specs.get(name) if key[1] == 0 else None
            better = spec["better"] if spec else layer_better.get(name, "lower")
            word, wins = verdict(p, c, better, spec["bound"] if spec else None)
            status |= word == "worse"
            cells = []
            for values in (p, c):
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / abs(med) if med else 0.0
                cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] {spread:.3f}")
            label = name + ("" if key[1] == 0 else " (traced)")
            print(f"{key[0]:<10} {label:<46} {cells[0]:<40} {cells[1]:<40} "
                  f"{wins:>5.2f}  {word}")
    return status


if __name__ == "__main__":
    sys.exit(main())
