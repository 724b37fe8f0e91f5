"""Worker process: imports kostant, runs jobs, returns timed results.

Started by the driver as ``python -m perfbench.worker FD TRACE`` from the
checkout root with ``src`` on PYTHONPATH, where FD is the inherited end of
a ``multiprocessing`` pipe. The first message reports the wall time of
``import kostant``; the module imports nothing heavy before that. Only
the library call itself is timed: argument parsing, conversion of the
answer to plain data and ``validate_cmjd`` happen outside the timed region.
A job arrives as ``(kind, args, loops)``; with ``loops`` > 1 the call
runs that many times back to back and the mean is reported. Each job sends
three messages: ``("start",)`` just before the call, ``("time", seconds)``
just after it, then the answer. The driver's job
limit runs from the first to the second, so it covers only the call.
Before a job the worker runs a host probe (``_host_probe``), a fixed
piece of work that does not use kostant, if its last probe is older than
PROBE_EVERY_S; the timing message carries the latest probe time, and so
does the ready message. A ``("probe",)`` message runs the probe at once
and returns its time, for CLI subprocesses started by the driver.
"""

from __future__ import annotations

import functools
import io
import sys
import time
from contextlib import redirect_stdout
from multiprocessing.connection import Connection


def _environment(kostant) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "kostant_file": kostant.__file__,
    }


def _operations(k) -> dict:
    """kind -> (args -> (callable, call args, answer -> plain data))."""
    from kostant import cli, serialize

    def plain(value):
        return value

    def triple(g):
        def post(t):
            return {"elliptic": t.elliptic, "hyperbolic": t.hyperbolic,
                    "unipotent": t.unipotent,
                    "validated": k.validate_cmjd(g, t).passed}
        return k.cmjd, (g,), post

    def certificate(result):
        if isinstance(result, k.SeparatingFunctional):
            return {"kind": "functional", "k": result.k, "margin": result.margin}
        return {"kind": "certificate", "steps": list(result.steps),
                "start": list(result.start.values), "end": list(result.end.values)}

    def cli_main(argv):
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(argv)
        return {"code": code, "stdout": out.getvalue()}

    return {
        "cmjd": triple,
        "witness": lambda x, y, cap: (
            functools.partial(k.find_separating_character, dim_cap=cap),
            (x, y), serialize.witness_to_json),
        "kostant_compare": lambda x, y: (
            k.kostant_compare, (x, y),
            lambda v: {"relation": v.relation, "failing_level": v.failing_level}),
        "permutohedron_certificate": lambda x, y: (
            k.permutohedron_certificate, (x, y), certificate),
        "abs_character": lambda spec, x: (
            k.abs_character, (serialize.parse_repspec(spec), x), plain),
        "spectral_radius_rep": lambda spec, x: (
            k.spectral_radius_rep, (serialize.parse_repspec(spec), x), plain),
        "schur": lambda shape, x: (k.schur, (shape, x), plain),
        "cli_main": lambda argv: (cli_main, (argv,), plain),
    }


def _warm_up(ops) -> None:
    """One small call per operation, so lazy loading is not timed."""
    import numpy as np

    x, y = [2.0, 1.0, 0.5], [1.5, 1.5, 1 / 2.25]
    calls = [("cmjd", (np.diag([2.0, 1.0, 0.5]) + np.eye(3, k=1),)),
             ("witness", (y, x, 10 ** 6)), ("kostant_compare", (x, y)),
             ("permutohedron_certificate", ([1.0, 0.0, -1.0], [0.5, 0.0, -0.5])),
             ("abs_character", ({"compose": {"outer": {"sym": 2}, "inner": {"ext": 2}}}, x)),
             ("spectral_radius_rep", ({"sym": 3}, x)), ("schur", ((2, 1), x))]
    for kind, args in calls:
        fn, fn_args, post = ops[kind](*args)
        post(fn(*fn_args))


PROBE_CALLS = 3
PROBE_EVERY_S = 0.2


def _host_probe():
    """A fixed piece of work that does not touch kostant: integer
    arithmetic in the interpreter, a LAPACK eigensolve and Fraction
    arithmetic, the three kinds of work the library does. Its best time
    over PROBE_CALLS calls, taken just before a job, measures how fast
    the host let this process run at that moment."""
    import numpy as np
    from fractions import Fraction

    rng = np.random.default_rng(0)
    matrix = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))

    def probe() -> float:
        best = float("inf")
        for _ in range(PROBE_CALLS):
            t0 = time.perf_counter()
            total = 0
            for i in range(3000):
                total += i * i % 7
            np.linalg.eig(matrix)
            f = Fraction(1, 3)
            for i in range(1, 80):
                f = f * Fraction(i + 1, i) + Fraction(1, i * i)
            best = min(best, time.perf_counter() - t0)
        return best
    return probe


def main() -> None:
    conn = Connection(int(sys.argv[1]))
    traced = sys.argv[2] == "1"
    start = time.perf_counter()
    import kostant
    import_s = time.perf_counter() - start

    import kostant.cli  # noqa: F401  (bound before tracing wraps its names)
    ops = _operations(kostant)
    _warm_up(ops)
    tracer = None
    if traced:
        from perfbench.tracing import Tracer
        tracer = Tracer()
        tracer.install()
    probe = _host_probe()
    probe_s = probe()
    probed_at = time.perf_counter()
    conn.send(("ready", import_s, _environment(kostant), probe_s))

    while True:
        try:
            message = conn.recv()
        except EOFError:
            return
        if message[0] == "stop":
            return
        if message[0] == "probe":
            probe_s, probed_at = probe(), time.perf_counter()
            conn.send(("probe", probe_s))
            continue
        for kind, args, loops in message[1]:
            fn, fn_args, post = ops[kind](*args)
            if time.perf_counter() - probed_at > PROBE_EVERY_S:
                probe_s, probed_at = probe(), time.perf_counter()
            error = None
            conn.send(("start",))
            t0 = time.perf_counter()
            try:
                for _ in range(loops):
                    answer = fn(*fn_args)
            except Exception as exc:  # the job's outcome, reported to the driver
                error = exc
            seconds = (time.perf_counter() - t0) / loops
            conn.send(("time", seconds, probe_s))
            if error is None:
                try:
                    payload = post(answer)
                except Exception as exc:  # an answer that cannot be read back
                    error = exc
            if error is not None:
                payload = (type(error).__name__, isinstance(error, kostant.KostantError),
                           str(error)[:200])
            spans, counts = tracer.take() if tracer else ([], {})
            conn.send((error is None, payload, spans, counts))


if __name__ == "__main__":
    main()
