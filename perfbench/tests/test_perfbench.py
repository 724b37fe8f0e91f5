"""Tests of the benchmark itself: oracles, the kill path, the compare
verdicts and the contract of run.py's output."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

import kostant  # noqa: E402

from perfbench import compare, driver, workloads  # noqa: E402
from perfbench.worker import _operations  # noqa: E402

OPS = _operations(kostant)


def answer(job):
    fn, args, post = OPS[job.kind](*job.args)
    return post(fn(*args))


def assert_live(job, payload):
    """A verified answer passes and each of its perturbed copies fails."""
    assert job.check(payload) is None
    wrong = job.perturbations(payload)
    assert wrong and all(job.check(w) is not None for w in wrong)


def test_decompose_oracle_accepts_construction_and_rejects_perturbation():
    rng = np.random.default_rng(3)
    for make in (workloads.generic_matrix, workloads.jordan_matrix):
        g, (e, h, u) = make(rng, 8)
        job = workloads.decompose_block(rng)[0]
        job.check = workloads._decompose_check((e, h, u))
        assert np.linalg.norm(e @ h @ u - g) < 1e-10 * np.linalg.norm(g)
        assert_live(job, {"elliptic": e, "hyperbolic": h, "unipotent": u,
                          "validated": True})


def test_decompose_oracle_rejects_a_triple_validate_cmjd_fails():
    rng = np.random.default_rng(4)
    g, expected = workloads.jordan_matrix(rng, 8)
    result = {"elliptic": expected[0], "hyperbolic": expected[1],
              "unipotent": expected[2], "validated": False}
    assert workloads._decompose_check(expected)(result) is not None


def test_generic_decompositions_are_verified():
    rng = np.random.default_rng(5)
    jobs = [j for j in workloads.decompose_block(rng) if j.tag == "n8-generic"]
    for job in jobs:
        assert_live(job, answer(job))


def test_compare_oracles_are_live():
    rng = np.random.default_rng(6)
    families = set()
    for job in workloads.compare_block(rng):
        assert_live(job, answer(job))
        families.add(job.oracle)
    assert families == {"relation", "certificate", "value"}


def test_witness_oracle_is_live_and_independent_of_chi_fields():
    rng = np.random.default_rng(7)
    block = workloads.witness_block(rng, np.random.default_rng(1))
    assert len(block) == 500
    jobs = [j for j in block if j.tag in ("b3", "b4")][:20]
    verified = 0
    for job in jobs:
        try:
            report = answer(job)
        except kostant.DimensionCap:
            continue
        assert_live(job, report)
        # the chi fields are not trusted: corrupting them changes nothing
        assert job.check({**report, "chi1": 0.0, "chi2": -1.0}) is None
        assert job.check({**report, "dimension": report["dimension"] + 1}) is not None
        assert job.check({**report, "m": report["paper_bound_m"] + 1}) is not None
        verified += 1
    assert verified >= 15


def test_cli_oracles_require_identical_output_and_a_right_report(tmp_path):
    rng = np.random.default_rng(8)
    subcommands = set()
    for job in workloads.cli_block(rng, tmp_path):
        ref = answer(job)
        result = {"ref": ref, "sub": dict(ref)}
        assert_live(job, result)
        garbled, wrong = job.perturbations(result)
        assert "differ from in-process" in job.check(garbled)
        # a wrong report printed alike in and out of process: the inner
        # oracle must reject it
        assert wrong["ref"] == wrong["sub"] and wrong["ref"]["stdout"] != ref["stdout"]
        reason = job.check(wrong)
        assert reason is not None and "differ from in-process" not in reason
        subcommands.add(job.oracle)
    assert subcommands == {f"cli-{sub}" for sub in
                           ("order", "certify", "char", "witness", "decompose")}


def test_overrun_kills_and_restarts_the_worker():
    rng = np.random.default_rng(9)
    g, expected = workloads.generic_matrix(rng, 200)
    slow = workloads.Job("cmjd", (g,), "n200", "factors",
                         workloads._decompose_check(expected), workloads._perturb_factors)
    quick = workloads.compare_block(rng)[0]
    runner = driver.Runner(ROOT, limit=0.001)
    try:
        worker = runner.start()
        runner.run_block([slow])
        assert runner.worker is None and worker.proc.poll() is not None
        runner.limit = 60.0
        runner.run_block([quick])
    finally:
        runner.close()
    assert [o.status for o in runner.outcomes] == ["timeout", "ok"]
    assert runner.outcomes[0].seconds == 0.001
    assert runner.restarts == 1


def test_compare_verdicts():
    parent = [100.0, 101, 99, 100.5, 99.5, 100, 101, 99, 100, 100.2]
    assert compare.verdict(parent, [v * 1.2 for v in parent], "higher", 0.1)[0] == "better"
    assert compare.verdict(parent, [v * 0.8 for v in parent], "higher", 0.1)[0] == "worse"
    assert compare.verdict(parent, parent[::-1], "higher", 0.1)[0] == "unchanged"
    noisy = [50.0, 150, 60, 140, 70, 130, 80, 120, 90, 110]
    assert compare.verdict(noisy, noisy[::-1], "lower", 0.1)[0] == "unresolved"
    assert compare.verdict([0.0] * 4, [0.0, 0.1, 0.1, 0.1], "lower", 0.25)[0] == "worse"


def test_run_prints_the_contract_line(tmp_path):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compare", "--seed", "1",
         "--seconds", "0.5", "--trace", "0", "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["attempted"] >= 1 and last["failed"] == 0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(last["metrics"]) == [m["name"] for m in bench["end_to_end"]]
    assert all(m["value"] > 0 for m in last["metrics"].values())
    record = json.loads((tmp_path / "compare-seed1-trace0.json").read_text())
    assert record["environment"]["probe_median_s"] > 0
    raw = record["raw_metrics"]
    assert raw["latency_p50_ms"]["value"] > 0
    assert last["metrics"]["peak_rss_mb"]["value"] == raw["peak_rss_mb"]["value"]


def test_job_time_is_the_median_of_probe_scaled_runs():
    ref = driver.PROBE_REF_S
    ok = driver.Outcome("t", "k", "ok", "", [(0.010, ref), (0.030, 3 * ref), (0.004, ref)])
    assert ok.raw_seconds == 0.010
    assert abs(ok.seconds - 0.010) < 1e-12   # scaled runs: 0.010, 0.010, 0.004
    overrun = driver.Outcome("t", "k", "timeout", "", [(2.0, None)])
    assert overrun.seconds == overrun.raw_seconds == 2.0


def test_run_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "baseline"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compare", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert out.stdout == ""


def _write_records(directory: Path, seeds, blas="openblas"):
    directory.mkdir()
    for seed in seeds:
        record = {"workload": "compare", "trace": 0, "seed": seed, "seconds": 1,
                  "environment": {"blas": blas},
                  "metrics": {"jobs_per_s": {"value": 100.0 + seed, "unit": "1/s"}}}
        (directory / f"compare-seed{seed}-trace0.json").write_text(json.dumps(record))
    return directory


def test_compare_pairs_by_seed_and_refuses_other_setups(tmp_path):
    base = _write_records(tmp_path / "base", [1, 2, 3])
    same = _write_records(tmp_path / "same", [1, 2, 3])
    assert compare.main([str(base), str(same)]) == 0
    other_seeds = _write_records(tmp_path / "seeds", [4, 5, 6])
    assert compare.main([str(base), str(other_seeds)]) == 2
    other_blas = _write_records(tmp_path / "blas", [1, 2, 3], blas="mkl")
    assert compare.main([str(base), str(other_blas)]) == 2
