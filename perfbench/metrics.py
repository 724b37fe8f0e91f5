"""Metric definitions and statistics shared by run.py and compare.py.

The end-to-end metrics that every workload reports, with their units and
regression bounds, are listed in BENCHMARK.json. The metrics below are
printed and compared as well, but stay out of BENCHMARK.json: the tail
percentiles are defined only on workloads with enough jobs per run, and
``error_rate`` is 0 on workloads the library answers correctly.

End-to-end times are given at a reference host speed (driver.PROBE_REF_S
and Outcome.seconds); the raw wall times stay in the record.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

import numpy as np

REPORT_ONLY = {
    "latency_p90_ms": {"unit": "ms", "better": "lower", "bound": 0.25, "min_jobs": 100},
    "latency_p99_ms": {"unit": "ms", "better": "lower", "bound": 0.25, "min_jobs": 1000},
    "error_rate": {"unit": "fraction", "better": "lower", "bound": 0.25},
}


def load_benchmark(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def metric_specs(benchmark: dict) -> dict:
    """name -> {unit, better, bound} for every end-to-end metric."""
    specs = {m["name"]: m for m in benchmark["end_to_end"]}
    specs.update(REPORT_ONLY)
    return specs


def end_to_end(seconds: list[float], failed: int, setup_s: list[float],
               peak_rss_mb: float) -> dict:
    """Metric values of one run; ``seconds`` holds every attempted job's
    wall time, an overrun counted as the limit."""
    ms = np.array(seconds) * 1e3
    values = {
        "setup_s": statistics.median(setup_s),
        "jobs_per_s": len(seconds) / sum(seconds),
        "latency_p50_ms": float(np.median(ms)),
        "peak_rss_mb": peak_rss_mb,
        "error_rate": failed / len(seconds),
    }
    for name in ("latency_p90_ms", "latency_p99_ms"):
        if len(seconds) >= REPORT_ONLY[name]["min_jobs"]:
            values[name] = float(np.percentile(ms, int(name[9:11])))
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
