"""Closed-loop driver: one worker process, one job at a time, per-job limit.

The driver sends a block of jobs to the worker, which runs them one after
another and returns each timed answer. If the library call has not ended
within the job limit of its start the worker is killed (a big-integer
``pow`` cannot be interrupted by a signal), the job counts as a timeout at
the limit, and a fresh worker takes the rest of the block. CLI jobs also run
``python -m kostant.cli`` as a subprocess under the same limit. Answers
are checked after the block, outside the timed region.
"""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from multiprocessing import Pipe
from pathlib import Path

from .tracing import layer_times
from .workloads import Job

JOB_LIMIT_S = 2.0
# Every job that finished runs ``repeats`` times (REPEATS unless the
# workload sets its own), in separate rounds over the run's blocks. On a
# shared host a core runs up to 1.7 times slower, for a fraction of a
# second or for minutes, with the neighbours' load, so each run's wall
# time is taken at a reference host speed: times PROBE_REF_S over the best
# time of a fixed probe the worker ran just before it (worker._host_probe,
# which does not use kostant). A job's time is the median over its runs. A
# repeat of a job shorter than LOOP_S calls it back to back until the
# calls add up to about LOOP_S and takes their mean: a single
# sub-millisecond call, cold after the previous job, moved by a third
# between runs.
REPEATS = 6
# Best time of the probe on a quiet 2-vCPU x86_64 VM (Python 3.11, numpy
# 2.4, OpenBLAS on one thread): there, scaled and wall times agree.
PROBE_REF_S = 1.4e-3
LOOP_S = 0.001
MAX_LOOPS = 1000
# Driver-side cost of one repeat (pipe round trip, bookkeeping), used only
# to plan how many blocks fit in a run.
REPEAT_OVERHEAD_S = 0.0004
CHUNK = 50
READY_TIMEOUT_S = 120.0
BLAS_THREADS = "1"


def pinned_env(root: Path) -> dict:
    """Environment for workers and CLI subprocesses: BLAS on one thread,
    the checkout's ``src`` first on the import path."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class WorkerError(RuntimeError):
    """The worker could not start."""


class Worker:
    def __init__(self, root: Path, traced: bool):
        parent, child = Pipe()
        self.conn = parent
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.worker", str(child.fileno()),
             "1" if traced else "0"],
            cwd=root, env=pinned_env(root), pass_fds=(child.fileno(),))
        child.close()
        if not self.conn.poll(READY_TIMEOUT_S):
            self.kill()
            raise WorkerError("worker did not become ready")
        try:
            _, self.import_s, self.env, self.probe_s = self.conn.recv()
        except EOFError:
            self.kill()
            raise WorkerError("worker exited during start-up") from None

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait()
        self.conn.close()

    def stop(self) -> None:
        try:
            self.conn.send(("stop",))
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            pass
        self.kill()


@dataclass
class Outcome:
    tag: str
    kind: str
    status: str          # ok | wrong | refused | crash | timeout
    detail: str
    # (wall seconds, probe seconds just before) of each run, the first
    # included; an overrun or a lost worker is (limit, None)
    samples: list
    runs: int = 1        # times the job is planned to run

    @property
    def raw_seconds(self) -> float:
        """Median wall time of the runs."""
        return statistics.median(t for t, _ in self.samples)

    @property
    def seconds(self) -> float:
        """Median time of the runs at the reference host speed; an overrun
        counts as the limit."""
        if any(p is None for _, p in self.samples):
            return self.raw_seconds
        return statistics.median(t * PROBE_REF_S / p for t, p in self.samples)


def loops_for(seconds: float) -> int:
    """Back-to-back calls per timing in a repeat of a job that took ``seconds``."""
    return min(MAX_LOOPS, math.ceil(LOOP_S / seconds)) if seconds < LOOP_S else 1


def repeat_cost(outcome: Outcome) -> float:
    """Expected time of the outcome's remaining repeats."""
    first = outcome.samples[0][0]
    return (outcome.runs - 1) * (max(first, LOOP_S) + REPEAT_OVERHEAD_S)


@dataclass
class Runner:
    """Runs blocks of jobs against one worker and classifies the answers."""

    root: Path
    traced: bool = False
    limit: float = JOB_LIMIT_S
    repeats: int = REPEATS
    worker: Worker | None = None
    restarts: int = 0
    outcomes: list[Outcome] = field(default_factory=list)
    calls: Counter = field(default_factory=Counter)
    self_s: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)
    spans: list = field(default_factory=list)
    self_tests: dict = field(default_factory=dict)
    cli_ref_s: dict = field(default_factory=dict)
    importtime: list = field(default_factory=list)

    def start(self) -> Worker:
        if self.worker is None:
            self.worker = Worker(self.root, self.traced)
        return self.worker

    def close(self) -> None:
        if self.worker is not None:
            self.worker.stop()
            self.worker = None

    def probe(self) -> float | None:
        """The worker's host probe, run now (before a CLI subprocess)."""
        worker = self.start()
        try:
            worker.conn.send(("probe",))
            if worker.conn.poll(READY_TIMEOUT_S):
                return worker.conn.recv()[1]
        except (EOFError, OSError):
            pass
        self._restart()
        return None

    def _run_in_worker(self, jobs: list[Job], record: bool = True,
                       loops: list[int] | None = None) -> list:
        """(job, (seconds, probe), ok, payload) per job, killing on overrun;
        a job with ``loops`` > 1 is timed as the mean of that many calls."""
        answers = []
        pending = list(zip(jobs, loops or [1] * len(jobs)))
        while pending:
            worker = self.start()
            worker.conn.send(("jobs", [(job.kind, job.args, n) for job, n in pending]))
            rest: list = []
            for pos, (job, _) in enumerate(pending):
                answer, alive = self._answer(worker, job, record)
                answers.append(answer)
                if not alive:
                    rest = pending[pos + 1:]
                    self._restart()
                    break
            pending = rest
        return answers

    def _answer(self, worker: Worker, job: Job, record: bool) -> tuple[tuple, bool]:
        """The worker's answer to its next job, and whether it can go on.

        The limit runs from the worker's start marker to its timing
        message, so argument set-up and the conversion of the answer are
        not charged to the job."""
        def receive(timeout: float):
            return worker.conn.recv() if worker.conn.poll(timeout) else None

        died = (job, (self.limit, None), False, ("WorkerDied", False, ""))
        try:
            if receive(READY_TIMEOUT_S) is None:
                return died, False
            timed = receive(self.limit)
            if timed is None:
                return (job, (self.limit, None), None, "timeout"), False
            result = receive(READY_TIMEOUT_S)
        except EOFError:
            return died, False
        if result is None:
            return died, False
        ok, payload, spans, counts = result
        if record:
            self._record_trace(job, spans, counts)
        return (job, (timed[1], timed[2]), ok, payload), True

    def _restart(self) -> None:
        self.worker.kill()
        self.worker = None
        self.restarts += 1

    def _record_trace(self, job: Job, spans: list, counts: dict) -> None:
        if not spans and not counts:
            return
        self.spans.append((len(self.spans), job.tag, spans))
        calls, self_s, kernels = layer_times(spans)
        self.calls.update(calls)
        self.self_s.update(self_s)
        self.counts["linalg.spectral_projectors.schur_calls"] += kernels
        for key, value in counts.items():
            if key.endswith("_max"):
                self.counts[key] = max(self.counts[key], value)
            else:
                self.counts[key] += value

    def _run_cli(self, argv: list[str], again: bool = False) -> tuple[float, object]:
        cmd = [sys.executable] + (["-X", "importtime"] if self.traced else [])
        cmd += ["-m", "kostant.cli", *argv]
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=pinned_env(self.root),
                                  capture_output=True, text=True, timeout=self.limit)
        except subprocess.TimeoutExpired:
            return self.limit, "timeout"
        seconds = time.perf_counter() - start
        if self.traced and not again:
            self.importtime.append((argv[0], proc.stderr))
        return seconds, {"code": proc.returncode, "stdout": proc.stdout}

    def run_block(self, jobs: list[Job]) -> list[Outcome]:
        answers = self._run_in_worker(jobs)
        if jobs and jobs[0].cli_argv is not None:
            answers = [self._cli_answer(*answer) for answer in answers]
        outcomes = [self._classify(*answer) for answer in answers]
        for outcome in outcomes:
            if outcome.status in ("ok", "wrong", "refused"):
                outcome.runs = self.repeats
        self.outcomes += outcomes
        return outcomes

    def repeat(self, jobs: list[Job], outcomes: list[Outcome], round_no: int) -> None:
        """Run the block's jobs that are planned to run ``round_no`` times
        or more again, adding a timed run to each. Answers are not
        checked again and add no spans."""
        again = [(job, o) for job, o in zip(jobs, outcomes) if o.runs >= round_no]
        if jobs and jobs[0].cli_argv is not None:
            samples = [self._cli_sample(job.cli_argv, again=True)[0] for job, _ in again]
        else:
            answers = self._run_in_worker(
                [job for job, _ in again], record=False,
                loops=[loops_for(o.samples[0][0]) for _, o in again])
            samples = [answer[1] for answer in answers]
        for (_, outcome), sample in zip(again, samples):
            outcome.samples.append(sample)

    def _cli_sample(self, argv: list[str], again: bool = False) -> tuple[tuple, object]:
        """One timed CLI subprocess, paired with a host probe run just before."""
        probe = self.probe()
        seconds, sub = self._run_cli(argv, again)
        return (seconds, None if sub == "timeout" else probe), sub

    def _cli_answer(self, job: Job, ref: tuple, ok, payload):
        """The in-process answer becomes the reference; the subprocess is
        the timed job."""
        if ok is not True:
            return job, ref, ok, payload
        self.cli_ref_s.setdefault(job.tag, []).append(ref[0])
        sample, sub = self._cli_sample(job.cli_argv)
        if sub == "timeout":
            return job, sample, None, "timeout"
        return job, sample, True, {"ref": payload, "sub": sub}

    def _classify(self, job: Job, sample: tuple, ok, payload) -> Outcome:
        if ok is None:
            return Outcome(job.tag, job.kind, "timeout", "", [sample])
        if not ok:
            name, library_error, _ = payload
            return Outcome(job.tag, job.kind, "refused" if library_error else "crash",
                           name, [sample])
        try:
            reason = job.check(payload)
        except Exception as exc:  # a malformed answer is a wrong answer
            reason = f"oracle raised {exc!r}"
        if reason is None and job.oracle not in self.self_tests:
            self.self_tests[job.oracle] = self._rejects_perturbed(job, payload)
        return Outcome(job.tag, job.kind, "ok" if reason is None else "wrong",
                       reason or "", [sample])

    @staticmethod
    def _rejects_perturbed(job: Job, payload) -> bool:
        def rejects(wrong) -> bool:
            try:
                return job.check(wrong) is not None
            except Exception:
                return True
        return all(rejects(wrong) for wrong in job.perturbations(payload))


def measure(runners: list[Runner], make_block, seconds: float) -> None:
    """Run whole blocks, then the further rounds of repeats.

    Each block runs in chunks of CHUNK jobs that every runner takes in
    turn, so a traced and an untraced runner see the same jobs at nearly
    the same time. A new block starts unless it, with its repeats, is not
    expected to end within ``seconds`` (at least one block runs).
    """
    runs = []
    repeat_s = 0.0
    blocks = 0
    start = time.monotonic()
    while True:
        jobs = make_block()
        blocks += 1
        for i in range(0, len(jobs), CHUNK):
            part = jobs[i:i + CHUNK]
            outs = [runner.run_block(part) for runner in runners]
            runs.append((part, outs))
            repeat_s += sum(repeat_cost(o) for out in outs for o in out)
        projected = time.monotonic() - start + repeat_s
        if projected * (blocks + 1) / blocks > seconds:
            break
    for round_no in range(2, max(runner.repeats for runner in runners) + 1):
        for part, outs in runs:
            for runner, out in zip(runners, outs):
                runner.repeat(part, out, round_no)
