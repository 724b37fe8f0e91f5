"""Answer checks that do not trust the library under test.

Nothing in this module imports ``kostant``. Every check recomputes the
answer from the construction of its input (known factors, known order
relation) or by brute force (monomial, subset and tableau enumeration,
certificate replay), so a defect in the library cannot hide in its own
checker. A check returns ``None`` for a verified answer and a short reason
otherwise.

Rep specs use the JSON schema documented in ``kostant.serialize``:
``{"sym": m} | {"ext": k} | {"schur": [parts]} | {"tensor": [a, b]} |
{"dsum": [specs]} | {"compose": {"outer": spec, "inner": spec}}``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations

import numpy as np

FACTOR_RTOL = 1e-6      # relative Frobenius error allowed on e, h, u
VALUE_RTOL = 1e-9       # character values from sums of positive terms
SCHUR_FLOAT_RTOL = 1e-6  # float Jacobi-Trudi determinants lose digits
LOG_BAND = 1e-10        # log-domain comparisons within this are undecided
EXACT_COST_LIMIT = 2000  # largest m * N for an exact h_m over N values
ORDER_BAND = 1e-8       # float prefix differences below this are ties...
ORDER_ZERO = 1e-12      # ...and only those below this are certain ties
DIM_CAP = 10 ** 6       # witness dimension cap passed to the library


# --- decompositions -----------------------------------------------------------


def check_factors(result: dict, expected: tuple) -> str | None:
    """e, h, u must match the factors known from the construction."""
    for name, want in zip(("elliptic", "hyperbolic", "unipotent"), expected):
        got = np.asarray(result[name], dtype=complex)
        if got.shape != want.shape:
            return f"{name} has shape {got.shape}, expected {want.shape}"
        err = np.linalg.norm(got - want) / max(np.linalg.norm(want), 1.0)
        if not err <= FACTOR_RTOL:
            return f"{name} differs from the construction by {err:.2e}"
    return None


def matrix_from_json(obj: dict) -> np.ndarray:
    return np.array([[complex(float(e["re"]), float(e["im"])) for e in row]
                     for row in obj["entries"]], dtype=complex)


# --- the order -------------------------------------------------------------------


def _relation_from_signs(signs: list[int]) -> tuple[str, int | None]:
    geq = all(s >= 0 for s in signs)
    leq = all(s <= 0 for s in signs)
    if geq and leq:
        return "EQUAL", None
    if geq:
        return "GEQ", None
    failing = 1 + next(k for k, s in enumerate(signs) if s < 0)
    return ("LEQ" if leq else "INCOMPARABLE"), failing


def prefix_signs(x, y) -> list[int | None]:
    """Sign of prefix(x) - prefix(y) at k = 1..n-1 for product-one moduli.

    Exact inputs compare prefix products exactly; float inputs compare
    centred log prefix sums, and differences between ORDER_ZERO and
    ORDER_BAND (relative) are reported as None: either sign is plausible.
    """
    xs, ys = sorted(x, reverse=True), sorted(y, reverse=True)
    n = len(xs)
    if all(isinstance(v, Fraction) for v in xs + ys):
        signs: list[int | None] = []
        px = py = Fraction(1)
        for k in range(n - 1):
            px *= xs[k]
            py *= ys[k]
            signs.append((px > py) - (px < py))
        return signs
    lx = [math.log(v) for v in xs]
    ly = [math.log(v) for v in ys]
    mx, my = math.fsum(lx) / n, math.fsum(ly) / n
    scale = sum(abs(v - mx) for v in lx) + sum(abs(v - my) for v in ly) or 1.0
    signs = []
    for k in range(1, n):
        d = math.fsum(lx[:k]) - k * mx - (math.fsum(ly[:k]) - k * my)
        if abs(d) <= ORDER_ZERO * scale:
            signs.append(0)
        elif abs(d) <= ORDER_BAND * scale:
            signs.append(None)
        else:
            signs.append(1 if d > 0 else -1)
    return signs


def check_relation(x, y, result: dict, known: tuple[str, ...] | None = None
                   ) -> str | None:
    """The verdict must follow from the prefix signs (undecided signs may
    go either way) and, when the construction fixes it, lie in ``known``."""
    got = (result["relation"], result.get("failing_level"))
    if known is not None and got[0] not in known:
        return f"relation {got[0]} contradicts the construction {known}"
    signs = prefix_signs(x, y)
    open_idx = [i for i, s in enumerate(signs) if s is None]
    for choice in _sign_choices(len(open_idx)):
        filled = list(signs)
        for i, s in zip(open_idx, choice):
            filled[i] = s
        if _relation_from_signs(filled) == got:
            return None
    return f"verdict {got} does not follow from the prefix comparison"


def _sign_choices(count: int):
    if count == 0:
        yield ()
        return
    for rest in _sign_choices(count - 1):
        for s in (-1, 0, 1):
            yield rest + (s,)


# --- hull certificates -------------------------------------------------------------


def check_certificate(x_logs, y_logs, result: dict, member: bool) -> str | None:
    """Replay a T-transform chain, or re-derive a top-k functional."""
    xs, ys = sorted(x_logs, reverse=True), sorted(y_logs, reverse=True)
    n = len(xs)
    exact = all(isinstance(v, Fraction) for v in xs + ys)
    scale = sum(abs(float(v)) for v in xs + ys) or 1.0
    if member:
        if result.get("kind") != "certificate":
            return "a hull member was refuted"
        steps = result["steps"]
        if len(steps) > n - 1:
            return f"{len(steps)} steps for n = {n}"
        if any(not 0 <= t <= 1 for _, _, t in steps):
            return "a T-transform weight lies outside [0, 1]"
        if list(result["start"]) != xs or list(result["end"]) != ys:
            return "certificate endpoints are not sorted x and y"
        v = list(xs)
        for i, j, t in steps:
            v[i], v[j] = t * v[i] + (1 - t) * v[j], (1 - t) * v[i] + t * v[j]
        err = max(abs(float(a - b)) for a, b in zip(v, ys))
        if (exact and err != 0) or err > 1e-12 * scale:
            return f"certificate replay misses y by {err:.2e}"
        return None
    if result.get("kind") != "functional":
        return "a non-member got a membership certificate"
    k = result["k"]
    failing = next((j for j in range(1, n)
                    if sum(ys[:j]) - sum(xs[:j]) > 1e-12 * scale), None)
    if k != failing:
        return f"functional level {k}, first failing level is {failing}"
    value_at_y = sum(ys[:k])
    if n <= 6:
        hull_max = max(sum(sorted(p, reverse=True)[:k]) for p in permutations(xs))
    else:
        hull_max = sum(xs[:k])
    margin = value_at_y - hull_max
    if not margin > 0:
        return "functional does not separate y from the hull"
    if not math.isclose(float(result["margin"]), float(margin),
                        rel_tol=VALUE_RTOL, abs_tol=1e-15 * scale):
        return f"margin {result['margin']} != {margin}"
    return None


# --- rep specs: dimension, moduli, characters -------------------------------------------


def spec_dim(spec: dict, n: int) -> int:
    (kind, arg), = spec.items()
    if kind == "sym":
        return math.comb(n + arg - 1, arg)
    if kind == "ext":
        return math.comb(n, arg)
    if kind == "schur":
        return sum(1 for _ in ssyt(tuple(arg), n)) if arg else 1
    if kind == "tensor":
        return spec_dim(arg[0], n) * spec_dim(arg[1], n)
    if kind == "dsum":
        return sum(spec_dim(s, n) for s in arg)
    if kind == "compose":
        return spec_dim(arg["outer"], spec_dim(arg["inner"], n))
    raise ValueError(f"unknown rep spec {spec!r}")


def ssyt(shape: tuple[int, ...], n: int):
    """Semistandard tableaux of the shape with entries 0..n-1, as flat
    tuples of entries (row by row)."""
    cells = [(r, c) for r, length in enumerate(shape) for c in range(length)]
    filled: dict[tuple[int, int], int] = {}

    def fill(idx: int):
        if idx == len(cells):
            yield tuple(filled[cell] for cell in cells)
            return
        r, c = cells[idx]
        lo = 0
        if c > 0:
            lo = filled[(r, c - 1)]
        if r > 0:
            lo = max(lo, filled[(r - 1, c)] + 1)
        for v in range(lo, n):
            filled[(r, c)] = v
            yield from fill(idx + 1)
        filled.pop((r, c), None)

    yield from fill(0)


def moduli(spec: dict, v: list, mul=lambda a, b: a * b, one=1) -> list:
    """Every eigenvalue modulus of the representation, by enumeration.

    With ``mul=operator.add`` and ``one=0`` the same code enumerates log
    moduli from log inputs.
    """
    (kind, arg), = spec.items()

    def prod(items):
        out = one
        for item in items:
            out = mul(out, item)
        return out

    if kind == "sym":
        return [prod(c) for c in combinations_with_replacement(v, arg)]
    if kind == "ext":
        return [prod(c) for c in combinations(v, arg)]
    if kind == "schur":
        return [prod(v[i] for i in t) for t in ssyt(tuple(arg), len(v))]
    if kind == "tensor":
        left, right = moduli(arg[0], v, mul, one), moduli(arg[1], v, mul, one)
        return [mul(a, b) for a in left for b in right]
    if kind == "dsum":
        return [m for s in arg for m in moduli(s, v, mul, one)]
    if kind == "compose":
        return moduli(arg["outer"], moduli(arg["inner"], v, mul, one), mul, one)
    raise ValueError(f"unknown rep spec {spec!r}")


def _h_exact(m: int, v: list) -> Fraction:
    """Complete homogeneous h_m by the prefix recurrence, exactly."""
    row = [Fraction(1)] * (len(v) + 1)
    for _ in range(m):
        nxt = [Fraction(0)] * (len(v) + 1)
        for i, x in enumerate(v, start=1):
            nxt[i] = nxt[i - 1] + x * row[i]
        row = nxt
    return row[-1]


def _logaddexp(a: float, b: float) -> float:
    if a < b:
        a, b = b, a
    return a if b == -math.inf else a + math.log1p(math.exp(b - a))


def _log_h(m: int, logs: list[float]) -> float:
    row = [0.0] * (len(logs) + 1)
    for _ in range(m):
        nxt = [-math.inf] * (len(logs) + 1)
        for i, lv in enumerate(logs, start=1):
            nxt[i] = _logaddexp(nxt[i - 1], lv + row[i])
        row = nxt
    return row[-1]


def _log_sum(logs: list[float]) -> float:
    top = max(logs)
    return top + math.log(math.fsum(math.exp(v - top) for v in logs))


def log_char(spec: dict, logs: list[float]) -> float:
    """log of the absolute character: sum of the moduli, in log domain."""
    (kind, arg), = spec.items()
    if kind == "sym":
        return _log_h(arg, logs)
    if kind == "tensor":
        return log_char(arg[0], logs) + log_char(arg[1], logs)
    if kind == "dsum":
        return _log_sum([log_char(s, logs) for s in arg])
    if kind == "compose":
        return log_char(arg["outer"], moduli(arg["inner"], logs, float.__add__, 0.0))
    return _log_sum(moduli(spec, logs, float.__add__, 0.0))


def exact_char(spec: dict, v: list[Fraction]) -> Fraction:
    """The absolute character over Fractions."""
    (kind, arg), = spec.items()
    if kind == "sym":
        return _h_exact(arg, v)
    if kind == "tensor":
        return exact_char(arg[0], v) * exact_char(arg[1], v)
    if kind == "dsum":
        return sum((exact_char(s, v) for s in arg), Fraction(0))
    if kind == "compose":
        return exact_char(arg["outer"], moduli(arg["inner"], v))
    return sum(moduli(spec, v), Fraction(0))


def exact_cost(spec: dict, n: int) -> int:
    """Rough count of rational operations exact_char needs."""
    (kind, arg), = spec.items()
    if kind == "sym":
        return arg * n
    if kind == "tensor":
        return exact_cost(arg[0], n) + exact_cost(arg[1], n)
    if kind == "dsum":
        return sum(exact_cost(s, n) for s in arg)
    if kind == "compose":
        inner = spec_dim(arg["inner"], n)
        return inner * n + exact_cost(arg["outer"], inner)
    return spec_dim(spec, n) * n


def check_value(got, want, rtol: float = VALUE_RTOL) -> str | None:
    """Exact answers must be equal; float answers within rtol."""
    if isinstance(want, Fraction) and isinstance(got, Fraction):
        return None if got == want else f"{got} != {want}"
    if math.isclose(float(got), float(want), rel_tol=rtol):
        return None
    return f"{float(got)!r} != {float(want)!r} (rtol {rtol:g})"


def check_witness(x: list[float], y: list[float], report: dict,
                  cap: int = DIM_CAP) -> str | None:
    """A witness must have the stated dimension within the cap, a degree
    within its paper bound, and a character strictly larger at y than at x
    by this module's own evaluation (log domain, exact when undecided)."""
    try:
        spec, dim, m, bound = (report["spec"], report["dimension"],
                               report["m"], report["paper_bound_m"])
    except (KeyError, TypeError):
        return "witness report lacks spec, dimension, m or paper_bound_m"
    n = len(x)
    own_dim = spec_dim(spec, n)
    if dim != own_dim or own_dim > cap:
        return f"dimension {dim}, spec has {own_dim}, cap {cap}"
    if not 0 <= m <= bound:
        return f"degree {m} exceeds the paper bound {bound}"
    lx = log_char(spec, [math.log(v) for v in x])
    ly = log_char(spec, [math.log(v) for v in y])
    band = LOG_BAND * max(1.0, abs(lx), abs(ly))
    if ly - lx > band:
        return None
    if ly - lx < -band:
        return f"character at y is below x (log gap {ly - lx:.3e})"
    if exact_cost(spec, n) > EXACT_COST_LIMIT:
        return "separation too thin to decide without a large exact evaluation"
    cx = exact_char(spec, [Fraction(v) for v in x])
    cy = exact_char(spec, [Fraction(v) for v in y])
    return None if cy > cx else "character at y is not strictly above x"
