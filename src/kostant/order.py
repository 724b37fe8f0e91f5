"""The log-majorization partial order on SL_n data, with certificates.

For hyperbolic data described by positive moduli vectors x, y (products
normalized to 1), x dominates y exactly when log y lies in the convex
hull of the permutation orbit of log x; equivalently, when the sorted
prefix products of x dominate those of y. The order is decided
combinatorially here, and two kinds of machine-checkable evidence are
produced: T-transform chains certifying hull membership, and top-k
prefix functionals (or separating characters) certifying failure.

Comparison policy: exact inputs (Fractions) are compared exactly; float
comparisons treat differences within REL_SLACK of a scale as ties.
Every prefix test (kostant_compare, permutohedron_certificate,
find_separating_character) reads the per-level comparisons of one
kernel, _prefix_cmp, over running sums, or running products for exact
multiplicative input; each caller supplies its own scale. The witness
search scans h_m degrees with the one float h_m recurrence of symchar
(_h_scan), and settles in-band h_m comparisons exactly under one tie
rule (_h_sign); binary floats are rationals.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import total_ordering
from itertools import accumulate
from operator import add, mul, sub

from ._frozen import frozen
from .errors import (
    DimensionCap,
    LengthMismatch,
    NotSeparable,
    OrderHolds,
    Overflow,
    SumMismatch,
)
from .symchar import (
    Compose,
    Ext,
    ModuliVector,
    RepSpec,
    Sym,
    _as_moduli,
    _h_exact,
    _h_scan,
    _is_exact,
    _last,
    _scaled_to_log,
    complete_homogeneous,
    complete_homogeneous_log,
    rep_dim,
    rep_moduli,
)

REL_SLACK = 1e-10

GEQ = "GEQ"
LEQ = "LEQ"
EQUAL = "EQUAL"
INCOMPARABLE = "INCOMPARABLE"


def _cmp(a, b) -> int:
    """Three-way compare: exact when both sides are rational, else
    float with a relative REL_SLACK band treated as a tie."""
    if _is_exact(a) and _is_exact(b):
        return (a > b) - (a < b)
    fa, fb = float(a), float(b)
    if abs(fa - fb) <= REL_SLACK * max(abs(fa), abs(fb), 1.0):
        return 0
    return 1 if fa > fb else -1


def _prefix_cmp(xs, ys, scale=None, op=add) -> list[int]:
    """Three-way comparisons of the running sums (or products, op=mul) of
    xs and ys at each prefix level k = 1..len(xs): the one
    prefix-dominance kernel. Exact when both sides are rational; else, as
    in _cmp, differences within REL_SLACK * scale (required) are ties.
    """
    px, py = list(accumulate(xs, op)), list(accumulate(ys, op))
    if not px or (_is_exact(px[-1]) and _is_exact(py[-1])):
        return [(a > b) - (a < b) for a, b in zip(px, py)]
    band = REL_SLACK * scale
    # a NaN difference fails the level, as in _cmp
    return [(d > band) - (not d >= -band)
            for d in map(sub, map(float, px), map(float, py))]


# --- domain types -------------------------------------------------------------


@frozen
class LogVector:
    """Additive avatar of hyperbolic data: reals sorted non-increasing."""

    values: tuple

    def __post_init__(self):
        if len(self.values) == 0:
            raise ValueError("log vector must be nonempty")
        for a, b in zip(self.values, self.values[1:]):
            if a < b:
                raise ValueError("log vector must be sorted non-increasing")

    @classmethod
    def from_values(cls, values) -> "LogVector":
        coerced = [Fraction(v) if isinstance(v, int) else v for v in values]
        coerced.sort(reverse=True)
        return cls(tuple(coerced))

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def exact(self) -> bool:
        return all(_is_exact(v) for v in self.values)


@frozen
class OrderVerdict:
    """Outcome of kostant_compare.

    failing_level is the first prefix index at which the x >= y direction
    fails; present exactly when the relation is not GEQ/EQUAL.
    """

    relation: str
    failing_level: int | None = None


@frozen
class TTransformCertificate:
    """Hull-membership certificate: at most n-1 two-coordinate averagings.

    Each step (i, j, t) replaces coordinates i, j of the current vector v
    by t*v_i + (1-t)*v_j and (1-t)*v_i + t*v_j. Applying all steps to
    start.values yields end.values.
    """

    steps: tuple[tuple[int, int, object], ...]
    start: LogVector
    end: LogVector


@frozen
class SeparatingFunctional:
    """Hull-separation certificate: the top-k coordinate-sum functional.

    Its maximum over the permutation hull of x is the k-th prefix sum of
    sorted x; the value at y exceeds that by margin > 0.
    """

    k: int
    margin: object
    hull_max: object
    value_at_y: object


@frozen
class SeparatingWitness:
    """A representation whose absolute character strictly separates y over x.

    spec = Compose(Sym(m), Ext(k)) with k the first failing prefix level;
    chi_1 < chi_2 are the evaluated character values, both LogValues when
    either is past float range; paper_bound_m is the guaranteed
    sufficient symmetric-power degree (m <= paper_bound_m).
    """

    k: int
    m: int
    spec: RepSpec
    chi_1: object
    chi_2: object
    paper_bound_m: int
    dimension: int


@total_ordering
@frozen
class LogValue:
    """A positive value kept as its natural log, for where floats
    overflow; LogValues order as their values do."""

    log: float

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self.log < other.log
        return NotImplemented


# --- the order -------------------------------------------------------------------


def _abs_scale(xs, ys) -> float:
    return float(sum(abs(float(v)) for v in xs) +
                 sum(abs(float(v)) for v in ys)) or 1.0


def kostant_compare(x, y) -> OrderVerdict:
    """Decide the partial order between two moduli vectors.

    Vectors are normalized to product one internally (scale-invariant
    prefix comparison), so only the n-1 proper prefix levels matter.
    GEQ means log y lies in the convex hull of the permutation orbit of
    log x.
    """
    xv, yv = _as_moduli(x), _as_moduli(y)
    if xv.n != yv.n:
        raise LengthMismatch(f"lengths {xv.n} != {yv.n}")
    return _verdict(_normalized_prefix_comparisons(xv, yv))


def _verdict(comparisons: list[int]) -> OrderVerdict:
    """The relation read off the per-level comparisons of x against y."""
    geq = all(c >= 0 for c in comparisons)
    leq = all(c <= 0 for c in comparisons)
    if geq and leq:
        return OrderVerdict(EQUAL)
    if geq:
        return OrderVerdict(GEQ)
    failing = next(k + 1 for k, c in enumerate(comparisons) if c < 0)
    return OrderVerdict(LEQ if leq else INCOMPARABLE, failing_level=failing)


def _normalized_prefix_comparisons(xv: ModuliVector, yv: ModuliVector) -> list[int]:
    """Three-way comparisons of normalized prefix products, k = 1..n-1.

    Comparing P_k(x) / P(x)^(k/n) against the same for y, with P(x) the
    product of all moduli, is done on running products of x_i^n / P(x)
    (exact mode; P_k(x)^n / P(x)^k) or on running sums of centered logs
    (float).
    """
    n = xv.n
    if xv.exact and yv.exact:
        total_x, total_y = xv.product(), yv.product()
        return _prefix_cmp([v ** n / total_x for v in xv.values[:-1]],
                           [v ** n / total_y for v in yv.values[:-1]], op=mul)
    lx, ly = xv.log_values(), yv.log_values()
    mean_x = sum(lx) / n
    mean_y = sum(ly) / n
    cx = [v - mean_x for v in lx]
    cy = [v - mean_y for v in ly]
    scale = sum(map(abs, cx)) + sum(map(abs, cy)) or 1.0
    return _prefix_cmp(cx[:-1], cy[:-1], scale)


# --- permutohedron certificates ---------------------------------------------------


def permutohedron_certificate(x, y):
    """Certify membership of sorted y in the permutation hull of x, or refute it.

    If sorted x majorizes sorted y (equal totals), returns a
    TTransformCertificate with at most n-1 steps transforming sorted x
    into sorted y. Otherwise returns a SeparatingFunctional at the first
    failing prefix level. Raises SumMismatch when the totals differ (the
    hull question is then vacuous).
    """
    lx = x if isinstance(x, LogVector) else LogVector.from_values(x)
    ly = y if isinstance(y, LogVector) else LogVector.from_values(y)
    if lx.n != ly.n:
        raise LengthMismatch(f"lengths {lx.n} != {ly.n}")
    scale = _abs_scale(lx.values, ly.values)
    levels = _prefix_cmp(lx.values, ly.values, scale)
    if levels[-1] != 0:
        raise SumMismatch(f"totals differ: {sum(lx.values)} vs {sum(ly.values)}")
    failing = next((k for k, c in enumerate(levels[:-1], start=1) if c < 0), None)
    if failing is not None:
        px, py = sum(lx.values[:failing]), sum(ly.values[:failing])
        return SeparatingFunctional(
            k=failing, margin=py - px, hull_max=px, value_at_y=py)

    steps = _hlp_steps(list(lx.values), list(ly.values), scale)
    return TTransformCertificate(steps=tuple(steps), start=lx, end=ly)


def _hlp_steps(work: list, target: list, scale: float) -> list[tuple[int, int, object]]:
    """Hardy-Littlewood-Polya chain from work to target (both sorted desc).

    Each round averages the outermost mismatched pair just enough to pin
    one more coordinate to its target, preserving sortedness and
    majorization; at most n-1 rounds are needed.
    """
    exact = all(_is_exact(v) for v in work + target)
    thr = 0 if exact else 1e-14 * (scale or 1.0)
    steps: list[tuple[int, int, object]] = []
    for _ in range(len(work)):
        diffs = [w - t for w, t in zip(work, target)]
        if exact:
            converged = all(d == 0 for d in diffs)
        else:
            converged = all(abs(float(d)) <= thr for d in diffs)
        if converged:
            return steps
        above = [i for i, d in enumerate(diffs) if d > thr]
        if above:
            j = max(above)
            below = [i for i, d in enumerate(diffs) if i > j and d < -thr]
        else:
            below = []
        if not above or not below:
            # only float dust remains on one side
            if not exact and max(abs(float(d)) for d in diffs) <= 10 * thr:
                return steps
            raise AssertionError(
                "T-transform chain stalled; inputs not majorized?")
        k = min(below)
        delta = min(diffs[j], -diffs[k])
        gap = work[j] - work[k]
        t = 1 - delta / gap
        steps.append((j, k, t))
        work[j] = work[j] - delta
        work[k] = work[k] + delta
    raise AssertionError("T-transform chain did not converge; inputs not majorized?")


def apply_t_transforms(start, steps) -> list:
    """Replay T-transform steps on a copy of the start vector."""
    v = list(start)
    for i, j, t in steps:
        vi, vj = v[i], v[j]
        v[i] = t * vi + (1 - t) * vj
        v[j] = (1 - t) * vi + t * vj
    return v


def verify_certificate(cert: TTransformCertificate) -> float:
    """Max absolute replay error |T(start) - end|; 0 for exact inputs."""
    replayed = apply_t_transforms(cert.start.values, cert.steps)
    return max(abs(float(a - b)) for a, b in zip(replayed, cert.end.values))


# --- separating representations ----------------------------------------------------


PAPER_EXACT_LIMIT = 20_000
PAPER_BAND_EPS = 8 * 2.0 ** -52


def separating_sym_power(c_vec, d_vec, *,
                         m_limit: int | None = None) -> tuple[int, int]:
    """Symmetric-power degrees separating two positive diagonal spectra.

    Requires the spectral radius c of c_vec to strictly exceed d of
    d_vec. Returns (m_min, m_paper): m_min is the least m with
    h_m(c_vec) > h_m(d_vec); m_paper is the least m with
    (c/d)^m > (m+n)^n (above PAPER_EXACT_LIMIT: the least m that floats
    prove), which guarantees the separation through the chain
    h_m(c_vec) >= c^m > binom(m+n-1, n-1) d^m >= h_m(d_vec). m_min is
    verified by evaluation. The middle link of the chain is checked at
    m_paper in logs, in O(1); inside the rounding band the separation at
    m_paper is evaluated instead (up to PAPER_EXACT_LIMIT). m_limit bounds
    the m_min scan; NotSeparable is raised if no separation is found
    within it (thin radius gaps may genuinely need a huge degree).
    """
    cv, dv = _as_moduli(c_vec), _as_moduli(d_vec)
    if cv.n != dv.n:
        raise LengthMismatch(f"lengths {cv.n} != {dv.n}")
    n = cv.n
    c, d = cv.values[0], dv.values[0]
    if _cmp(c, d) <= 0:
        raise NotSeparable(f"spectral radii do not separate: c = {c}, d = {d}")

    log_ratio = _LogRatio.of(c, d)
    m_paper = _least_paper_degree(c, d, n, log_ratio)
    scan_to = m_paper if m_limit is None else min(m_paper, m_limit)
    m_min = _least_separating_degree(cv, dv, scan_to)
    if m_min is None:
        raise NotSeparable(
            f"no separating symmetric power up to degree {scan_to} "
            f"(guaranteed bound is {m_paper})")
    chain = log_ratio.sign(m_paper, math.log(math.comb(m_paper + n - 1, n - 1)))
    if chain < 0 or (chain == 0 and m_paper <= PAPER_EXACT_LIMIT
                     and _h_cmp(m_paper, cv, dv) <= 0):
        raise AssertionError("the paper degree failed to separate")
    return m_min, m_paper


@frozen
class _LogRatio:
    """log(c/d) for c > d > 0 from the exact ratio, with the magnitude of
    the logs it was formed from, which bounds its rounding error."""

    ratio: Fraction
    log: float
    magnitude: float

    @classmethod
    def of(cls, c, d) -> "_LogRatio":
        ratio = Fraction(c) / Fraction(d)
        if ratio < 2:
            log_ratio = math.log1p(float(ratio - 1))
            return cls(ratio, log_ratio, log_ratio)
        # the ratio may not fit a float; take logs of the integers
        log_num, log_den = math.log(ratio.numerator), math.log(ratio.denominator)
        return cls(ratio, log_num - log_den, abs(log_num) + abs(log_den))

    def sign(self, m: int, log_bound: float) -> int:
        """Sign of m*log(c/d) - log_bound when floats prove it, else 0;
        log_bound is a log computed to a few ulps."""
        gap = m * self.log - log_bound
        if abs(gap) > PAPER_BAND_EPS * (m * self.magnitude + log_bound):
            return 1 if gap > 0 else -1
        return 0


def _least_paper_degree(c, d, n: int, log_ratio: _LogRatio | None = None) -> int:
    """Least m >= 1 with (c/d)^m > (m+n)^n, for c > d > 0.

    The log-gap m*log(c/d) - n*log(m+n), with log(c/d) = log1p((c-d)/d)
    from the exact ratio, is convex and nonpositive at 0: exponential and
    binary search find its final segment. Floats decide outside a rigorous
    rounding band; inside it exact integers do, up to PAPER_EXACT_LIMIT,
    above which an in-band m counts as unproven.
    """
    log_ratio = log_ratio or _LogRatio.of(c, d)
    ratio = log_ratio.ratio

    def proven(m: int) -> bool:
        sign = log_ratio.sign(m, n * math.log(m + n))
        if sign:
            return sign > 0
        return m <= PAPER_EXACT_LIMIT and \
            ratio.numerator ** m > (m + n) ** n * ratio.denominator ** m

    hi = 1
    while not proven(hi):
        hi *= 2
        if hi > 10 ** 15:
            raise NotSeparable("paper degree bound overflowed the search range")
    lo = hi // 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if proven(mid):
            hi = mid
        else:
            lo = mid
    return hi


EXACT_TIE_DEGREE_LIMIT = 2000


def _h_cmp(m: int, cv: ModuliVector, dv: ModuliVector) -> int:
    """Three-way compare of h_m(cv) vs h_m(dv), exact on float ties."""
    return _h_sign(m, complete_homogeneous_log(m, cv),
                   complete_homogeneous_log(m, dv), cv, dv)


def _h_sign(m: int, log_c: float, log_d: float, cv: ModuliVector,
            dv: ModuliVector) -> int:
    """The tie rule for h_m(cv) vs h_m(dv), given their logs.

    Outside a relative band of 100 * REL_SLACK the logs decide. Inside it the
    exact values do, except above EXACT_TIE_DEGREE_LIMIT for float inputs
    (the rationals there are astronomically large), where the in-band
    result is reported as a tie.
    """
    scale = max(abs(log_c), abs(log_d), 1.0)
    if abs(log_c - log_d) > 100 * REL_SLACK * scale:
        return 1 if log_c > log_d else -1
    if not (cv.exact and dv.exact) and m > EXACT_TIE_DEGREE_LIMIT:
        return 0
    exact_c = _last(_h_exact(cv.as_fractions(), m))
    exact_d = _last(_h_exact(dv.as_fractions(), m))
    return (exact_c > exact_d) - (exact_c < exact_d)


def _least_separating_degree(cv: ModuliVector, dv: ModuliVector,
                             m_stop: int) -> int | None:
    """Least m <= m_stop with h_m(cv) > h_m(dv) under the tie rule of
    _h_sign, from one _h_scan pass per side. Returns None when no degree
    up to m_stop separates.
    """
    fc, fd = cv.as_floats(), dv.as_floats()
    for m, (hc, hd) in enumerate(zip(_h_scan(fc, m_stop), _h_scan(fd, m_stop))):
        if m and _h_sign(m, _scaled_to_log(fc[0], m, *hc),
                         _scaled_to_log(fd[0], m, *hd), cv, dv) > 0:
            return m
    return None


def find_separating_character(x, y, *,
                              dim_cap: int | None = 10 ** 6) -> SeparatingWitness:
    """Construct a representation separating y strictly over x.

    Requires that x does not dominate y. The witness composes the m-th
    symmetric power with the k-th exterior power, where k is a failing
    prefix level (so the exterior-power spectral radius of y already
    exceeds that of x) and m comes from the symmetric-power degree scan
    on the exterior moduli. The smallest failing level is preferred;
    levels whose separation degree would push the composed dimension over
    dim_cap are skipped in favour of later failing levels. Raises
    OrderHolds when x >= y, and DimensionCap when every failing level
    needs a degree beyond the cap (near-comparable pairs genuinely
    require enormous symmetric powers).
    """
    xv, yv = _normalize_sl(_as_moduli(x)), _normalize_sl(_as_moduli(y))
    if xv.n != yv.n:
        raise LengthMismatch(f"lengths {xv.n} != {yv.n}")
    comparisons = _normalized_prefix_comparisons(xv, yv)
    verdict = _verdict(comparisons)
    if verdict.relation in (GEQ, EQUAL):
        raise OrderHolds(f"x dominates y (relation {verdict.relation}); "
                         "no separating character exists")
    n = xv.n
    failing = [k for k, c in enumerate(comparisons, start=1) if c < 0]

    for k in failing:
        ext_dim = math.comb(n, k)
        m_budget = _degree_budget(ext_dim, dim_cap)
        if m_budget is not None and m_budget < 1:
            continue
        ext_x = rep_moduli(Ext(k), xv, cap=None)
        ext_y = rep_moduli(Ext(k), yv, cap=None)
        try:
            m_min, m_paper = separating_sym_power(
                ext_y, ext_x, m_limit=m_budget)
        except NotSeparable:
            continue
        spec = Compose(Sym(m_min), Ext(k))
        dimension = rep_dim(spec, n)
        try:
            chi_1 = complete_homogeneous(m_min, ext_x)
            chi_2 = complete_homogeneous(m_min, ext_y)
        except Overflow:
            chi_1 = LogValue(complete_homogeneous_log(m_min, ext_x))
            chi_2 = LogValue(complete_homogeneous_log(m_min, ext_y))
        if _h_cmp(m_min, ext_y, ext_x) <= 0:
            raise AssertionError("witness failed its strict character comparison")
        return SeparatingWitness(k=k, m=m_min, spec=spec, chi_1=chi_1,
                                 chi_2=chi_2, paper_bound_m=m_paper,
                                 dimension=dimension)
    raise DimensionCap(
        f"every failing level needs a symmetric power beyond dimension cap "
        f"{dim_cap}; the pair is nearly comparable (raise dim_cap, or use "
        f"exact inputs and dim_cap=None)")


MAX_SYM_DEGREE = 10 ** 6


def _degree_budget(ext_dim: int, dim_cap: int | None) -> int | None:
    """Largest symmetric degree m <= MAX_SYM_DEGREE keeping
    comb(m + N - 1, N - 1) <= cap."""
    if dim_cap is None:
        return None
    if ext_dim == 1:
        return MAX_SYM_DEGREE  # 1-dimensional inner rep: all powers are scalars
    lo, hi = 0, MAX_SYM_DEGREE  # comb(N - 1, N - 1) = 1 <= cap always
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if math.comb(mid + ext_dim - 1, ext_dim - 1) <= dim_cap:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _normalize_sl(v: ModuliVector) -> ModuliVector:
    """Scale to product 1; exact vectors must already be normalized."""
    if v.exact:
        if v.product() == 1:
            return v
        raise ValueError("exact moduli must have product exactly 1; "
                         "normalize before calling")
    if abs(math.fsum(v.log_values())) <= 1e-9 * (sum(map(abs, v.log_values())) + 1):
        return v
    return v.normalized()

