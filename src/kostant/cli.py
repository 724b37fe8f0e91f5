"""Command-line front end.

Subcommands: decompose, order, char, witness, certify, selfcheck.
Inputs are JSON files (matrix or moduli payloads, auto-detected by their
'entries' / 'values' field). Reports are deterministic JSON on stdout or
--out. Exit codes: 0 success, 1 mathematical negative (order fails /
order holds when a witness was requested / not a hull member), 2 input
error (an unwritable --out included), 3 numerical failure (an internal
check that fails, such as a stalled T-transform chain, included). The
handlers hold no order logic: every decision is made in order.

The matrix layers (cmjd, linalg, and numpy and scipy's LAPACK extension)
and the self-check suites are imported by the handlers that use them, so a
subcommand on moduli input starts without them.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import serialize
from ._frozen import frozen
from .errors import (
    BadIndex,
    DimensionCap,
    IllConditioned,
    KostantError,
    LengthMismatch,
    NonConvergence,
    NonPositive,
    NotHyperbolic,
    NotSeparable,
    OrderHolds,
    Overflow,
    ParseError,
    Singular,
    SumMismatch,
)
from .order import (
    EQUAL,
    GEQ,
    SeparatingFunctional,
    find_separating_character,
    kostant_compare,
    permutohedron_certificate,
)
from .symchar import ModuliVector, abs_character, rep_dim, spectral_radius_rep

INPUT_ERRORS = (ParseError, LengthMismatch, NonPositive, BadIndex,
                SumMismatch, DimensionCap, ValueError)
# AssertionError: an internal check failed, so there is no verdict to report
NUMERICAL_ERRORS = (NonConvergence, IllConditioned, Singular, NotHyperbolic,
                    Overflow, AssertionError)


@frozen
class JobConfig:
    command: str
    inputs: dict[str, str]
    tol: float = 1e-8
    exact: bool = False
    dim_cap: int = 10 ** 6
    out: str | None = None
    suites: tuple[str, ...] | None = None
    inject_fault: bool = False

    def __post_init__(self):
        if self.tol <= 0:
            raise ParseError("tol must be positive")
        if self.dim_cap < 1:
            raise ParseError("dim-cap must be at least 1")


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON in {path}: {exc}") from exc


def _load_moduli(path: str, config: JobConfig) -> ModuliVector:
    """Moduli from either a moduli payload or a matrix payload."""
    obj = _load_json(path)
    if isinstance(obj, dict) and "values" in obj:
        return serialize.parse_moduli(obj, exact=config.exact)
    payload = serialize.parse_matrix(obj, exact=config.exact)
    if payload.moduli is not None:
        return payload.moduli
    from .linalg import matrix_moduli

    return matrix_moduli(payload.matrix, cluster_tol=config.tol)


def run(config: JobConfig) -> tuple[int, dict]:
    """Execute one job; returns (exit code, JSON-ready report)."""
    try:
        handler = _HANDLERS[config.command]
    except KeyError:
        raise ParseError(f"unknown command {config.command!r}") from None
    try:
        return handler(config)
    except (OrderHolds, NotSeparable) as exc:
        return 1, _error_report(config, exc)
    except INPUT_ERRORS as exc:
        return 2, _error_report(config, exc)
    except NUMERICAL_ERRORS as exc:
        return 3, _error_report(config, exc)


def _error_report(config: JobConfig, exc: Exception) -> dict:
    return {"command": config.command, "error": type(exc).__name__,
            "message": str(exc)}


def _run_decompose(config: JobConfig) -> tuple[int, dict]:
    from .cmjd import cmjd

    payload = serialize.parse_matrix(_load_json(config.inputs["g"]))
    triple = cmjd(payload.matrix, tol=config.tol)
    report = {"command": "decompose", "tol": config.tol}
    report.update(serialize.triple_to_json(triple))
    return 0, report


def _run_order(config: JobConfig) -> tuple[int, dict]:
    x = _load_moduli(config.inputs["g1"], config)
    y = _load_moduli(config.inputs["g2"], config)
    verdict = kostant_compare(x, y)
    report = {"command": "order"}
    report.update(serialize.verdict_to_json(verdict))
    report["moduli_1"] = serialize.moduli_to_json(x)["values"]
    report["moduli_2"] = serialize.moduli_to_json(y)["values"]
    code = 0 if verdict.relation in (GEQ, EQUAL) else 1
    return code, report


def _run_char(config: JobConfig) -> tuple[int, dict]:
    spec = serialize.parse_repspec(_load_json(config.inputs["spec"]))
    x = _load_moduli(config.inputs["x"], config)
    report = {
        "command": "char",
        "spec": serialize.repspec_to_json(spec),
        "dimension": rep_dim(spec, x.n),
        "abs_character": serialize.scalar_to_json(
            abs_character(spec, x, cap=config.dim_cap)),
        "spectral_radius": serialize.scalar_to_json(
            spectral_radius_rep(spec, x, cap=config.dim_cap)),
    }
    return 0, report


def _run_witness(config: JobConfig) -> tuple[int, dict]:
    x = _load_moduli(config.inputs["h1"], config)
    y = _load_moduli(config.inputs["h2"], config)
    witness = find_separating_character(x, y, dim_cap=config.dim_cap)
    report = {"command": "witness"}
    report.update(serialize.witness_to_json(witness))
    return 0, report


def _run_certify(config: JobConfig) -> tuple[int, dict]:
    x = _load_moduli(config.inputs["x"], config)
    y = _load_moduli(config.inputs["y"], config)
    result = permutohedron_certificate(x, y)
    if isinstance(result, SeparatingFunctional):
        return 1, {"command": "certify", "member": False,
                   "functional": serialize.functional_to_json(result)}
    return 0, {"command": "certify", "member": True,
               "certificate": serialize.certificate_to_json(result)}


def _run_selfcheck(config: JobConfig) -> tuple[int, dict]:
    from .selfcheck import run_suites

    results = run_suites(names=config.suites,
                         inject_fault=config.inject_fault)
    report = {
        "command": "selfcheck",
        "suites": [{"name": r.name, "passed": r.passed, "detail": r.detail}
                   for r in results],
        "passed": all(r.passed for r in results),
    }
    return (0 if report["passed"] else 3), report


_HANDLERS = {
    "decompose": _run_decompose,
    "order": _run_order,
    "char": _run_char,
    "witness": _run_witness,
    "certify": _run_certify,
    "selfcheck": _run_selfcheck,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kostant",
        description="Jordan decompositions, the log-majorization order, "
                    "and separating characters on SL_n(C).")
    sub = parser.add_subparsers(dest="command", required=True)

    def options(p, *, tol="relative eigenvalue-clustering tolerance for "
                          "matrix input", exact=True, dim_cap=False):
        """The flags the subcommand reads, then --out; tol is the help
        text of --tol, or None without it."""
        if tol:
            p.add_argument("--tol", type=float, default=1e-8, help=tol)
        if exact:
            p.add_argument("--exact", action="store_true",
                           help="parse rational inputs and compare exactly")
        if dim_cap:
            p.add_argument("--dim-cap", type=int, default=10 ** 6,
                           help="largest admissible representation dimension")
        p.add_argument("--out", help="write the JSON report to this path")

    p = sub.add_parser("decompose", help="complete multiplicative Jordan "
                                         "decomposition of a matrix")
    p.add_argument("--g", required=True, help="matrix JSON file")
    options(p, tol="relative tolerance for residuals and clustering", exact=False)

    p = sub.add_parser("order", help="decide the partial order between two "
                                     "elements (matrices or moduli)")
    p.add_argument("--g1", required=True)
    p.add_argument("--g2", required=True)
    options(p)

    p = sub.add_parser("char", help="evaluate a representation character on "
                                    "hyperbolic data")
    p.add_argument("--spec", required=True, help="rep spec JSON file")
    p.add_argument("--x", required=True, help="moduli or matrix JSON file")
    options(p, dim_cap=True)

    p = sub.add_parser("witness", help="construct a separating character for "
                                       "a non-dominated pair")
    p.add_argument("--h1", required=True)
    p.add_argument("--h2", required=True)
    options(p, dim_cap=True)

    p = sub.add_parser("certify", help="T-transform certificate or separating "
                                       "functional for hull membership")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    options(p)

    p = sub.add_parser("selfcheck", help="run the bundled invariant suites")
    p.add_argument("--suite", action="append", dest="suites",
                   help="run only this suite (repeatable)")
    p.add_argument("--inject-perturbation", action="store_true",
                   dest="inject_fault",
                   help="perturb a factor to force a validation failure")
    options(p, tol=None, exact=False)

    return parser


def config_from_args(args: argparse.Namespace) -> JobConfig:
    inputs = {}
    for key in ("g", "g1", "g2", "spec", "x", "y", "h1", "h2"):
        value = getattr(args, key, None)
        if value is not None:
            inputs[key] = value
    # a subcommand without one of these flags keeps the JobConfig default
    options = {key: getattr(args, key) for key in ("tol", "exact", "dim_cap")
               if hasattr(args, key)}
    return JobConfig(
        command=args.command,
        inputs=inputs,
        out=args.out,
        **options,
        suites=tuple(args.suites) if getattr(args, "suites", None) else None,
        inject_fault=getattr(args, "inject_fault", False),
    )


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        code, report = run(config)
    except ParseError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except KostantError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    text = serialize.dumps(report)
    if config.out:
        try:
            with open(config.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            sys.stderr.write(f"error: cannot write {config.out}: {exc}\n")
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
