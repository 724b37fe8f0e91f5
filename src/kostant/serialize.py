"""JSON schemas for matrices, moduli vectors, rep specs, and results.

Scalars: a plain number is a float; a string "p/q" (or "p") is an exact
rational. A complex entry is {"re": scalar, "im": scalar}; either part
may be left out (it is then 0), and a bare scalar, number or string, is
a real entry: 2, "1/2" and {"re": "1/2"} are all accepted. Matrices are
{"n": int, "entries": [[complex, ...], ...]} row-major, optionally with
"eigenvalues": [complex, ...] supplied externally. In exact mode
parse_matrix turns them into the moduli that stand for the matrix: exact
when every re^2 + im^2 is the square of a rational, else all floats.
Without --exact they are parsed and left unused. Moduli vectors are
{"values": [scalar, ...]}. A witness reports its characters "chi1" and
"chi2" as scalars, or as {"log": float}, the natural log, when either
one is past float range. A positive rational with more digits than
Python converts to a string (sys.int_max_str_digits) is written as
{"log": float} too. Rep specs:

    {"sym": m} | {"ext": k} | {"schur": [parts...]} | {"tensor": [a, b]}
    | {"dsum": [specs...]} | {"compose": {"outer": spec, "inner": spec}}

"values", "schur", "tensor" and "dsum" take JSON lists, and m, k and the
Schur parts JSON integers (not booleans); other types raise ParseError.

Serialization keeps a fixed field order and shortest round-trip float
formatting (Python's repr), so identical inputs produce byte-identical
reports. parse_matrix returns rows of Python complex numbers, and numpy
is imported only by the functions that write matrices, so parsing any
payload does without it. No matrix layer (cmjd, linalg) is imported
outside type checking.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import TYPE_CHECKING

from ._frozen import frozen
from .errors import ParseError
from .order import (
    LogValue,
    OrderVerdict,
    SeparatingFunctional,
    SeparatingWitness,
    TTransformCertificate,
)
from .symchar import (
    Compose,
    DirectSum,
    Ext,
    ModuliVector,
    Partition,
    RepSpec,
    Schur,
    Sym,
    Tensor,
    _rational_log,
)

if TYPE_CHECKING:
    from .cmjd import CmjdTriple


@frozen
class MatrixInput:
    """Parsed matrix payload: the rows of the complex matrix, and in exact
    mode the moduli of its supplied eigenvalues (None without them)."""

    matrix: list[list[complex]]
    moduli: ModuliVector | None


# --- scalar parsing -----------------------------------------------------------


def _float(value) -> float:
    """float(value), with a number past float range a ParseError."""
    try:
        return float(value)
    except OverflowError as exc:
        raise ParseError("number beyond float range") from exc


def parse_scalar(value, exact: bool):
    """Finite number -> float (an int -> Fraction in exact mode); "p/q"
    string -> Fraction in either mode."""
    if isinstance(value, bool):
        raise ParseError(f"expected a numeric scalar, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ParseError(f"expected a finite number, got {value!r}")
    if isinstance(value, (int, float)):
        return Fraction(value) if exact and isinstance(value, int) else _float(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational literal {value!r}") from exc
    raise ParseError(f"expected a numeric scalar, got {value!r}")


def parse_complex(obj, exact: bool):
    """{"re": s, "im": s} or a bare real scalar -> complex (float mode) or
    the pair (re, im) of Fractions (exact mode)."""
    if isinstance(obj, (int, float, str)) and not isinstance(obj, bool):
        obj = {"re": obj, "im": 0}
    if not isinstance(obj, dict) or not set(obj) <= {"re", "im"}:
        raise ParseError(f"expected a complex entry, got {obj!r}")
    re = parse_scalar(obj.get("re", 0), exact)
    im = parse_scalar(obj.get("im", 0), exact)
    if exact:
        # floats are exact binary rationals; accept them
        return Fraction(re), Fraction(im)
    return complex(_float(re), _float(im))


def _eigenvalue_moduli(pairs) -> ModuliVector:
    """|re + im i| of each exact pair: rational when every re^2 + im^2 is
    the square of a rational, otherwise every modulus a float."""
    exact = []
    for re, im in pairs:
        square = re * re + im * im
        num, den = math.isqrt(square.numerator), math.isqrt(square.denominator)
        if num * num != square.numerator or den * den != square.denominator:
            return ModuliVector.from_values(
                [abs(complex(_float(re), _float(im))) for re, im in pairs])
        exact.append(Fraction(num, den))
    return ModuliVector.from_values(exact)


def scalar_to_json(value):
    if isinstance(value, Fraction):
        try:
            return str(value)
        except ValueError:  # more digits than Python prints for an int
            return {"log": _rational_log(value)}
    if isinstance(value, LogValue):
        return {"log": value.log}
    return float(value)


def complex_to_json(z) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


# --- matrices -------------------------------------------------------------------


def parse_matrix(obj, exact: bool = False) -> MatrixInput:
    if not isinstance(obj, dict) or "entries" not in obj:
        raise ParseError("matrix JSON must be an object with an 'entries' field")
    entries = obj["entries"]
    if not isinstance(entries, list) or not entries:
        raise ParseError("matrix entries must be a nonempty list of rows")
    n = _parse_int(obj["n"], "matrix n") if "n" in obj else len(entries)
    if len(entries) != n or any(not isinstance(r, list) or len(r) != n
                                for r in entries):
        raise ParseError(f"matrix entries must form an {n} x {n} array")
    # the matrix is complex in either mode (linalg.as_matrix makes it an
    # array); only the moduli of its supplied eigenvalues may stay exact
    matrix = [[parse_complex(e, False) for e in row] for row in entries]
    moduli = None
    if "eigenvalues" in obj:
        raw = obj["eigenvalues"]
        if not isinstance(raw, list) or len(raw) != n:
            raise ParseError("eigenvalues must list one value per dimension")
        eigenvalues = [parse_complex(e, exact) for e in raw]
        if exact:
            moduli = _eigenvalue_moduli(eigenvalues)
    return MatrixInput(matrix=matrix, moduli=moduli)


def matrix_to_json(m) -> dict:
    import numpy as np

    m = np.asarray(m)
    n = m.shape[0]
    return {
        "n": n,
        "entries": [[complex_to_json(m[i, j]) for j in range(n)]
                    for i in range(n)],
    }


# --- moduli vectors ---------------------------------------------------------------


def parse_moduli(obj, exact: bool = False) -> ModuliVector:
    if not isinstance(obj, dict) or not isinstance(obj.get("values"), list):
        raise ParseError("moduli JSON must be an object with a 'values' list")
    values = [parse_scalar(v, exact) for v in obj["values"]]
    if not values:
        raise ParseError("moduli values must be nonempty")
    return ModuliVector.from_values(values)


# --- rep specs ----------------------------------------------------------------------


def _parse_int(value, what: str) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ParseError(f"{what} takes an integer, got {value!r}")


def parse_repspec(obj) -> RepSpec:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ParseError(f"rep spec must be a single-key object, got {obj!r}")
    (key, value), = obj.items()
    if key == "sym":
        return Sym(_parse_int(value, "sym"))
    if key == "ext":
        return Ext(_parse_int(value, "ext"))
    if key == "schur":
        if not isinstance(value, list):
            raise ParseError("schur takes a list of parts")
        return Schur(Partition(tuple(_parse_int(p, "a schur part") for p in value)))
    if key == "tensor":
        if not isinstance(value, list) or len(value) != 2:
            raise ParseError("tensor takes a two-element list")
        return Tensor(parse_repspec(value[0]), parse_repspec(value[1]))
    if key == "dsum":
        if not isinstance(value, list) or not value:
            raise ParseError("dsum takes a nonempty list")
        return DirectSum(tuple(parse_repspec(v) for v in value))
    if key == "compose":
        if not isinstance(value, dict) or set(value) != {"outer", "inner"}:
            raise ParseError("compose takes {'outer': ..., 'inner': ...}")
        return Compose(parse_repspec(value["outer"]), parse_repspec(value["inner"]))
    raise ParseError(f"unknown rep spec kind {key!r}")


def repspec_to_json(spec: RepSpec):
    if isinstance(spec, Sym):
        return {"sym": spec.m}
    if isinstance(spec, Ext):
        return {"ext": spec.k}
    if isinstance(spec, Schur):
        return {"schur": list(spec.shape.parts)}
    if isinstance(spec, Tensor):
        return {"tensor": [repspec_to_json(spec.left), repspec_to_json(spec.right)]}
    if isinstance(spec, DirectSum):
        return {"dsum": [repspec_to_json(p) for p in spec.parts]}
    if isinstance(spec, Compose):
        return {"compose": {"outer": repspec_to_json(spec.outer),
                            "inner": repspec_to_json(spec.inner)}}
    raise TypeError(f"unknown rep spec {spec!r}")


# --- results ------------------------------------------------------------------------


def triple_to_json(triple: CmjdTriple) -> dict:
    return {
        "n": triple.dim,
        "elliptic": matrix_to_json(triple.elliptic),
        "hyperbolic": matrix_to_json(triple.hyperbolic),
        "unipotent": matrix_to_json(triple.unipotent),
        "residuals": {k: float(v) for k, v in sorted(triple.residuals.items())},
    }


def verdict_to_json(verdict: OrderVerdict) -> dict:
    out: dict = {"relation": verdict.relation}
    if verdict.failing_level is not None:
        out["failing_level"] = verdict.failing_level
    return out


def certificate_to_json(cert: TTransformCertificate) -> dict:
    return {
        "steps": [{"i": i, "j": j, "t": scalar_to_json(t)}
                  for i, j, t in cert.steps],
        "start": [scalar_to_json(v) for v in cert.start.values],
        "end": [scalar_to_json(v) for v in cert.end.values],
    }


def functional_to_json(func: SeparatingFunctional) -> dict:
    return {"k": func.k, "margin": float(func.margin)}


def witness_to_json(witness: SeparatingWitness) -> dict:
    return {
        "k": witness.k,
        "m": witness.m,
        "spec": repspec_to_json(witness.spec),
        "chi1": scalar_to_json(witness.chi_1),
        "chi2": scalar_to_json(witness.chi_2),
        "paper_bound_m": witness.paper_bound_m,
        "dimension": witness.dimension,
    }


def dumps(report: dict) -> str:
    """Deterministic report text: fixed field order, repr floats."""
    return json.dumps(report, indent=2, allow_nan=False) + "\n"
