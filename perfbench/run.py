"""Run one workload of the kostant benchmark and print its metrics.

    python3 perfbench/run.py --workload decompose --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
The inputs are generated from ``--seed``. Every answer is checked by the
oracles in perfbench/oracles.py. The report, the environment and (with
``--trace 1``) the spans are written to ``--out``; the last line of
standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.

``correct`` is true when every oracle that saw a verified answer rejected
each perturbed copy of it, so the checks were live. ``failed`` counts jobs
without a verified answer: wrong results, refusals (``KostantError``),
other exceptions and time-limit overruns.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETUP_SAMPLES = 5
CLI_SUBCOMMANDS = ("order", "certify", "char", "witness", "decompose")


def git_commit(root: Path) -> str:
    """Commit of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def importtime_ms(stderr: str) -> dict:
    """Self time per top-level package from ``-X importtime`` output."""
    totals: Counter = Counter()
    for line in stderr.splitlines():
        match = re.match(r"import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)", line)
        if match:
            totals[match.group(2).split(".")[0]] += int(match.group(1)) / 1e3
    return totals


def per_layer(runner, untraced, interpreter_ms: float) -> dict:
    """Per-layer metric values from the traced runner's spans and counts."""
    values: dict = {}
    ms = 1e3
    for name in ("linalg.eigen_spectrum", "linalg.spectral_projectors", "cmjd.cmjd",
                 "order.separating_sym_power", "order.find_separating_character",
                 "order.kostant_compare", "order.permutohedron_certificate",
                 "symchar.rep_moduli", "symchar.complete_homogeneous",
                 "symchar.complete_homogeneous_log", "symchar.abs_character",
                 "symchar.schur", "symchar.spectral_radius_rep", "serialize.dumps"):
        values[f"{name}.calls"] = runner.calls[name]
        values[f"{name}.self_ms"] = runner.self_s[name] * ms
    for key in ("linalg.eigen_spectrum.clusters", "linalg.spectral_projectors.schur_calls",
                "order.separating_sym_power.not_separable",
                "order.separating_sym_power.m_min_sum",
                "order.separating_sym_power.m_paper_max",
                "order.find_separating_character.dimension_sum",
                "order.find_separating_character.dimension_cap",
                "symchar.rep_moduli.values"):
        values[key] = runner.counts[key]
    sym_calls = runner.calls["order.separating_sym_power"]
    values["order.find_separating_character.useful_ratio"] = (
        runner.counts["order.find_separating_character.witnesses"] / sym_calls
        if sym_calls else 0.0)
    status = Counter((o.kind, o.status, o.detail if o.status == "refused" else "")
                     for o in runner.outcomes)
    values["order.find_separating_character.timeouts"] = status[("witness", "timeout", "")]
    values["cmjd.wrong"] = sum(c for (kind, st, _), c in status.items()
                               if kind == "cmjd" and st == "wrong")
    refused = Counter({d: c for (kind, st, d), c in status.items()
                       if kind == "cmjd" and st == "refused"})
    for err in ("IllConditioned", "NonConvergence"):
        values[f"cmjd.refused.{err}"] = refused.pop(err, 0)
    values["cmjd.refused.other"] = sum(refused.values())

    imports: dict = {}
    for sub, stderr in runner.importtime:
        imports.setdefault(sub, []).append(importtime_ms(stderr))
    every = [t for runs in imports.values() for t in runs]
    values["cli.interpreter_ms"] = interpreter_ms
    for pkg in ("numpy", "scipy", "kostant"):
        values[f"cli.import.{pkg}_ms"] = (
            statistics.median(t[pkg] for t in every) if every else 0.0)
    for sub in CLI_SUBCOMMANDS:
        values[f"cli.scipy_loaded.{sub}"] = int(any(t["scipy"] > 0 for t in imports.get(sub, [])))
        ref = untraced.cli_ref_s.get(f"cli-{sub}")
        values[f"cli.main.{sub}_ms"] = statistics.median(ref) * ms if ref else 0.0

    t_untraced = sum(o.seconds for o in untraced.outcomes)
    t_traced = sum(o.seconds for o in runner.outcomes)
    values["trace.jobs_per_s_untraced"] = len(untraced.outcomes) / t_untraced
    values["trace.jobs_per_s_traced"] = len(runner.outcomes) / t_traced
    values["trace.overhead"] = t_traced / t_untraced - 1.0
    return values


def interpreter_start_ms(env: dict) -> float:
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT, check=True)
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


def report_lines(record: dict) -> list[str]:
    lines = [f"workload {record['workload']}  seed {record['seed']}  "
             f"trace {record['trace']}  attempted {record['attempted']}  "
             f"failed {record['failed']}  restarts {record['restarts']}",
             "environment " + json.dumps(record["environment"], sort_keys=True)]
    raw = record["raw_metrics"]
    for name, m in record["metrics"].items():
        unscaled = f"  (raw {raw[name]['value']:.6g})" if name in raw else ""
        lines.append(f"  {name:<50} {m['value']:>14.6g} {m['unit']}{unscaled}")
    lines.append("outcomes " + json.dumps(record["outcomes"], sort_keys=True))
    for tag, row in sorted(record["tags"].items()):
        lines.append(f"  {tag:<20} jobs {row['jobs']:>6}  ok {row['ok']:>6}  "
                     f"median {row['median_ms']:.3f} ms")
    for reason, count in sorted(record["failures"].items(), key=lambda kv: -kv[1])[:10]:
        lines.append(f"  failure x{count}: {reason}")
    lines.append("oracle self-tests " + json.dumps(record["self_tests"], sort_keys=True))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("decompose", "witness", "compare", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench-out",
                        help="directory for the full record and spans")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kostant" / "__init__.py").is_file():
        sys.stderr.write(f"error: no kostant sources under {ROOT / 'src'}\n")
        return 2
    sys.path.insert(0, str(ROOT))
    import numpy as np

    from perfbench import driver, metrics, workloads

    benchmark = metrics.load_benchmark(ROOT)
    rng = np.random.default_rng(args.seed)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    make_block = workloads.block_maker(args.workload, rng, workdir)
    runners = []
    try:
        setup_s, setup_raw_s = [], []
        env = {}
        for _ in range(SETUP_SAMPLES if args.trace == 0 else 1):
            worker = driver.Worker(ROOT, traced=False)
            setup_raw_s.append(worker.import_s)
            setup_s.append(worker.import_s * driver.PROBE_REF_S / worker.probe_s)
            env = worker.env
            worker.stop()
        repeats = workloads.REPEATS[args.workload]
        untraced = driver.Runner(ROOT, repeats=repeats)
        runners.append(untraced)
        measured = untraced
        if args.trace:
            measured = driver.Runner(ROOT, traced=True, repeats=repeats)
            runners.append(measured)
        driver.measure(runners, make_block, args.seconds)
        for runner in runners:
            runner.close()
        interpreter_ms = 0.0
        if args.trace and args.workload == "cli":
            interpreter_ms = interpreter_start_ms(driver.pinned_env(ROOT))
    except driver.WorkerError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    finally:
        for runner in runners:
            runner.close()
        shutil.rmtree(workdir, ignore_errors=True)

    outcomes = measured.outcomes
    failed = sum(o.status != "ok" for o in outcomes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    specs = metrics.metric_specs(benchmark)
    probes = [p for o in untraced.outcomes for _, p in o.samples if p is not None]
    raw_values: dict = {}
    if args.trace == 0:
        values = metrics.end_to_end([o.seconds for o in untraced.outcomes], failed,
                                    setup_s, peak_rss_mb)
        raw_values = metrics.end_to_end([o.raw_seconds for o in untraced.outcomes],
                                        failed, setup_raw_s, peak_rss_mb)
        listed = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
        units = {name: specs[name]["unit"] for name in values}
    else:
        values = per_layer(measured, untraced, interpreter_ms)
        listed = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
        units = listed
    missing = set(listed) - set(values)
    if missing:
        sys.stderr.write(f"error: metrics not produced: {sorted(missing)}\n")
        return 1
    values = {name: v for name, v in values.items() if name in units}

    tags: dict = {}
    for o in outcomes:
        row = tags.setdefault(o.tag, {"jobs": 0, "ok": 0, "ms": []})
        row["jobs"] += 1
        row["ok"] += o.status == "ok"
        row["ms"].append(o.seconds * 1e3)
    for row in tags.values():
        row["median_ms"] = statistics.median(row.pop("ms"))
    self_tests = {}
    for runner in runners:
        self_tests.update({k: v and self_tests.get(k, True)
                           for k, v in runner.self_tests.items()})
    correct = all(self_tests.values())
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": len(outcomes), "failed": failed,
        "correct": correct, "restarts": measured.restarts,
        "environment": {
            "python": platform.python_version(), **env,
            "kostant_file": os.path.relpath(env.get("kostant_file", ""), ROOT),
            "blas_threads": driver.BLAS_THREADS, "nproc": os.cpu_count(),
            "machine": platform.machine(), "git_commit": git_commit(ROOT),
            "seed": args.seed, "job_limit_s": measured.limit,
            "setup_samples": setup_s, "setup_raw_samples": setup_raw_s,
            "probe_ref_s": driver.PROBE_REF_S,
            "probe_median_s": statistics.median(probes) if probes else None,
        },
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
        "raw_metrics": {name: {"value": v, "unit": units[name]}
                        for name, v in raw_values.items() if name in units},
        "outcomes": dict(Counter(o.status for o in outcomes)),
        "failures": dict(Counter(f"{o.tag} {o.status} {o.detail}".strip()
                                 for o in outcomes if o.status != "ok")),
        "tags": tags,
        "self_tests": self_tests,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (args.out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        with open(args.out / f"{stem}-spans.jsonl", "w") as fh:
            for job_id, tag, spans in measured.spans:
                for idx, (name, start, end, parent) in enumerate(spans):
                    fh.write(json.dumps({"job": job_id, "tag": tag, "span": idx,
                                         "name": name, "start": start, "end": end,
                                         "parent": parent}) + "\n")

    for line in report_lines(record):
        print(line)
    print(json.dumps({
        "correct": correct, "attempted": len(outcomes), "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in listed.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
