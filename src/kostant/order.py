"""The log-majorization partial order on SL_n data, with certificates.

For hyperbolic data described by positive moduli vectors x, y (products
normalized to 1), x dominates y exactly when log y lies in the convex
hull of the permutation orbit of log x; equivalently, when the sorted
prefix products of x dominate those of y. The order is decided
combinatorially here, and two kinds of machine-checkable evidence are
produced: T-transform chains certifying hull membership, and top-k
prefix functionals (or separating characters) certifying failure.

Comparison policy: rational inputs are compared exactly, on integers
over one common denominator (the vectors' .integers); float comparisons
treat differences within REL_SLACK of a scale as ties, per prefix level
in one kernel, _prefix_cmp. A pair of moduli vectors has one judge,
_normalized_prefix_comparisons, whose levels order, witness and certify
all read: float moduli as running sums of centered logs (_centered_logs,
on which certify also refutes and chains), rational moduli by a float
filter on the logs of their integers, whose band is a proven bound on
the rounding of the logs (libm's log correct to a few ulps) and of their
sums, with integer products behind it inside the band. One T-transform
chain builder (_hlp_steps) serves integer and float certificates, and
ends a float chain under the same tie rule. Every h_m value comes from
symchar's one h_m kernel: the witness search scans the logs of h_m degree
by degree (_h_logs), and settles in-band h_m comparisons exactly under
one tie rule (_h_sign); binary floats are rationals. A witness is
accepted on the characters it reports, evaluated once per side
(_h_compare, by _h_value).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import total_ordering
from itertools import accumulate
from operator import mul, sub

from ._frozen import frozen
from .errors import (
    DimensionCap,
    LengthMismatch,
    NotSeparable,
    OrderHolds,
    ParseError,
    SumMismatch,
)
from .symchar import (
    DEFAULT_MODULI_CAP,
    Compose,
    Ext,
    ModuliVector,
    RepSpec,
    Sym,
    _as_moduli,
    _Sorted,
    _h_exact_at,
    _h_logs,
    _h_value,
    _is_exact,
    _over_lcm,
    rep_dim,
    rep_moduli,
)

REL_SLACK = 1e-10
# relative error allowed a log computed from rationals: 8 ulps of 1
PAPER_BAND_EPS = 8 * 2.0 ** -52

GEQ = "GEQ"
LEQ = "LEQ"
EQUAL = "EQUAL"
INCOMPARABLE = "INCOMPARABLE"


def _cmp(a, b) -> int:
    """Three-way compare: exact when both sides are rational or a side
    does not fit a float, else float with a relative REL_SLACK band
    treated as a tie."""
    if _is_exact(a) and _is_exact(b):
        return (a > b) - (a < b)
    try:
        fa, fb = float(a), float(b)
    except OverflowError:  # a rational past float range needs no band
        return (a > b) - (a < b)
    if abs(fa - fb) <= REL_SLACK * max(abs(fa), abs(fb), 1.0):
        return 0
    return 1 if fa > fb else -1


def _prefix_cmp(xs, ys, scale=None) -> list[int]:
    """Three-way comparisons of the running sums of xs and ys at each
    prefix level k = 1..len(xs): the one prefix-dominance kernel. Exact
    without a scale (integers or rationals); with one, as in _cmp,
    differences within REL_SLACK * scale are ties.
    """
    px, py = accumulate(xs), accumulate(ys)
    if scale is None:
        return [(a > b) - (a < b) for a, b in zip(px, py)]
    band = REL_SLACK * scale
    # a NaN difference fails the level, as in _cmp
    return [(d > band) - (not d >= -band)
            for d in map(sub, map(float, px), map(float, py))]


# --- domain types -------------------------------------------------------------


@frozen
class LogVector(_Sorted):
    """Additive avatar of hyperbolic data: reals sorted non-increasing."""

    values: tuple

    def __post_init__(self):
        if len(self.values) == 0:
            raise ValueError("log vector must be nonempty")
        for a, b in zip(self.values, self.values[1:]):
            if a < b:
                raise ValueError("log vector must be sorted non-increasing")
        if self.values[0].__class__ is not float and (a := _over_lcm(self.values)):
            self.__dict__.update(integers=a, exact=True)


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
    start.values yields end.values: exactly on exact input, else within
    twice the chain's tie band plus, on float moduli, the means' gap.
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


def _centered_logs(lx, ly) -> tuple[list[float], list[float], float]:
    """Centered logs and the order's tie scale on them, centering's gamma_(n+1) included."""
    n = len(lx)
    mean_x, mean_y = sum(lx) / n, sum(ly) / n
    cx, cy = [v - mean_x for v in lx], [v - mean_y for v in ly]
    spread = sum(map(abs, cx)) + sum(map(abs, cy))
    ku = (n + 1) * 2.0 ** -53
    rounding = ku / (1 - ku) * (spread + n * (abs(mean_x) + abs(mean_y)))
    return cx, cy, spread + rounding / REL_SLACK or 1.0


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

    Level k compares P_k(x) / P(x)^(k/n) against the same for y, with
    P_k(x) the product of the k largest moduli and P(x) = P_n(x). In logs
    that is the sign of d_k = A_k(x) - A_k(y), A_k = n S_k - k S_n, with
    S_k the k-th prefix sum of the logs. gamma_k = k u / (1 - k u), u =
    2^-53, are the rounding terms of Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 3.

    Float input is compared on running sums of centered logs, in the
    band of _centered_logs.

    Exact input is decided by a float filter with integers behind it
    (Shewchuk, Discrete Comput. Geom. 18, 1997), so no verdict moves.
    Each modulus p/q, q the common denominator of its vector (.integers),
    gives l = log p - log q from math.log on the integers, which takes any
    size. The filter rests on one assumption
    about libm, the one _LogRatio.sign makes: log is correct to a few
    ulps. Then each computed l is within eps m of the true one, eps =
    PAPER_BAND_EPS and m = log p + log q: p, q >= 1, p = 1 is exact, and
    for p >= 2 the conversion of p to a float costs at most u / log 2 of
    log p. Let M be the sum of m over x and y, which also bounds sum |l|.
    Recursive summation puts each S_k within gamma_(n-1) sum |l| of the
    sum of the computed logs; the scalings by n and k and the subtraction
    in A_k add 2u (n + k) sum |l|. So each computed A_k is within
    (n + k)(eps + gamma_(n+1)) M of the true one, to first order. The
    band beta_k is twice that; the factor 2 covers the second-order
    terms and the rounding u |d_k| of the last subtraction. A level with
    |d_k| > beta_k takes the sign of the computed d_k. A level inside
    the band compares P_k(x)^n P(y)^k against P_k(y)^n P(x)^k in
    integers: with x_i = p_i / q and y_i = r_i / s, the products
    a_k = prod_(i<=k) p_i s and b_k = prod_(i<=k) r_i q give
    P_k(x) / P_k(y) = a_k / b_k, so the level compares a_k^n b_n^k with
    b_k^n a_n^k.
    """
    n = xv.n
    if xv.exact and yv.exact:
        (num_x, den_x), (num_y, den_y) = xv.integers, yv.integers
        ax, size_x = _level_logs(num_x, den_x)
        ay, size_y = _level_logs(num_y, den_y)
        ku = (n + 1) * 2.0 ** -53
        # beta_k = (n + k) beta
        beta = 2 * (PAPER_BAND_EPS + ku / (1 - ku)) * (size_x + size_y)
        signs = [(d > (n + k) * beta) - (d < -(n + k) * beta)
                 for k, d in enumerate(map(sub, ax, ay), start=1)]
        if 0 in signs:
            a = list(accumulate((p * den_y for p in num_x), mul))
            b = list(accumulate((r * den_x for r in num_y), mul))
            for k, sign in enumerate(signs, start=1):
                if sign == 0:
                    lhs, rhs = a[k - 1] ** n * b[-1] ** k, b[k - 1] ** n * a[-1] ** k
                    signs[k - 1] = (lhs > rhs) - (lhs < rhs)
        return signs
    cx, cy, scale = _centered_logs(xv.log_values(), yv.log_values())
    return _prefix_cmp(cx[:-1], cy[:-1], scale)


def _level_logs(nums, den: int) -> tuple[list[float], float]:
    """A_k = n S_k - k S_n, k < n, of the logs of moduli p / den; sum of log p + log den."""
    log_q = math.log(den)
    log_p = list(map(math.log, nums))
    sums = list(accumulate(lp - log_q for lp in log_p))
    n, total = len(sums), sums[-1]
    levels = [n * s - k * total for k, s in enumerate(sums[:-1], start=1)]
    return levels, sum(log_p) + n * log_q


# --- permutohedron certificates ---------------------------------------------------


def permutohedron_certificate(x, y):
    """Certify membership of sorted y in the permutation hull of x, or refute it.

    If sorted x majorizes sorted y (equal totals), returns a
    TTransformCertificate with at most n-1 steps transforming sorted x
    into sorted y. Otherwise returns a SeparatingFunctional at the first
    failing prefix level. Raises SumMismatch when the totals differ (the
    hull question is then vacuous). Rational input is decided, and its
    chain built, on the integers that one common denominator makes of it.
    A ModuliVector pair stands for its logs (against anything else, a
    ParseError), read as kostant_compare reads them: float moduli as
    centered logs, for levels, margin and chain; rational moduli with an
    exact margin log P_k(y)/P_k(x), and a chain on logs of fl(p/q) =
    (p/q)(1 + d), |d| <= u = 2^-53, each off by u plus the ulps REL_SLACK *
    sum |log| covers; a level sums 2n of them: the scale adds 2n u / REL_SLACK.
    """
    if (moduli := isinstance(x, ModuliVector)) != isinstance(y, ModuliVector):
        raise ParseError("permutohedron_certificate takes two ModuliVectors or two log "
                         f"vectors, got {type(x).__name__} and {type(y).__name__}")
    rational = moduli and x.exact and y.exact
    if moduli:
        xm, ym, x, y = x, y, x.log_values(), y.log_values()
    lx = x if isinstance(x, LogVector) else LogVector.from_values(x)
    ly = y if isinstance(y, LogVector) else LogVector.from_values(y)
    if lx.n != ly.n:
        raise LengthMismatch(f"lengths {lx.n} != {ly.n}")
    exact = lx.exact and ly.exact
    if exact:
        (ax, den_x), (ay, den_y) = lx.integers, ly.integers
        den = math.lcm(den_x, den_y)
        xs = [v * (den // den_x) for v in ax]
        ys = [v * (den // den_y) for v in ay]
        scale = None
    else:
        xs, ys = lx.values, ly.values
        scale = (float(sum(map(abs, xs)) + sum(map(abs, ys))) or 1.0) + \
            rational * 2 * lx.n * 2.0 ** -53 / REL_SLACK
    if not moduli:
        levels = _prefix_cmp(xs, ys, scale)
    elif rational:
        levels = [*_normalized_prefix_comparisons(xm, ym), xm.product() != ym.product()]
    else:  # the order's centered logs and band; the totals uncentered
        total = _prefix_cmp([sum(xs)], [sum(ys)], scale)
        xs, ys, scale = _centered_logs(xs, ys)
        levels = _prefix_cmp(xs[:-1], ys[:-1], scale) + total
    if levels[-1] != 0:
        raise SumMismatch(f"totals differ: {sum(lx.values)} vs {sum(ly.values)}")
    failing = next((k for k, c in enumerate(levels[:-1], start=1) if c < 0), None)
    if failing is not None:
        px, py = sum(xs[:failing]), sum(ys[:failing])
        if exact:
            px, py = Fraction(px, den), Fraction(py, den)
        margin = py - px if not rational else _LogRatio.of(
            math.prod(ym.values[:failing]), math.prod(xm.values[:failing])).log
        return SeparatingFunctional(k=failing, margin=margin, hull_max=px, value_at_y=py)

    steps = _hlp_steps(list(xs), list(ys), scale)
    return TTransformCertificate(steps=tuple(steps), start=lx, end=ly)


def _hlp_steps(work: list, target: list,
               scale: float | None) -> list[tuple[int, int, object]]:
    """Hardy-Littlewood-Polya chain from work to target (both sorted desc).

    Each round averages the outermost mismatched pair just enough to pin
    one more coordinate to its target, preserving sortedness and
    majorization; at most n-1 rounds are needed. Without a scale, as in
    _prefix_cmp, the entries are integers (rationals over a common
    denominator) and the weights t = 1 - delta / gap exact Fractions.
    Float input pairs only differences past 1e-14 * scale, and passes over
    dust after the last pair; the chain ends once _prefix_cmp(work, target,
    scale) reads every level as a tie.
    """
    thr = 0 if scale is None else 1e-14 * scale
    steps: list[tuple[int, int, object]] = []
    for _ in range(len(work)):
        diffs = [w - t for w, t in zip(work, target)]
        # the last pair of j above its target and k, the first after j below it
        j = k = above = None
        for i, d in enumerate(diffs):
            if d > thr:
                above = i
            elif d < -thr and above is not None:
                j, k, above = above, i, None
        if k is None:  # what is left ties at every level, or work did not majorize target
            if not any(_prefix_cmp(work, target, scale)):
                return steps
            raise AssertionError("T-transform chain stalled; inputs not majorized?")
        delta = min(diffs[j], -diffs[k])
        gap = work[j] - work[k]
        steps.append((j, k, Fraction(gap - delta, gap) if scale is None
                      else 1 - delta / gap))
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
    """Max absolute replay error |T(start) - end| (its bounds: TTransformCertificate)."""
    replayed = apply_t_transforms(cert.start.values, cert.steps)
    return max(abs(float(a - b)) for a, b in zip(replayed, cert.end.values))


# --- separating representations ----------------------------------------------------


PAPER_EXACT_LIMIT = 20_000


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
                     and _h_compare(m_paper, cv, dv)[0] <= 0):
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
        if hi.bit_length() > 1000:  # from 2^1000 on, m * log(c/d) may overflow
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


def _h_compare(m: int, cv: ModuliVector, dv: ModuliVector) -> tuple[int, object, object]:
    """h_m(cv) against h_m(dv), three-way, and the two values, from one
    evaluation per side: exact between rationals, else _h_sign on the
    logs. The values are a LogValue pair when a float one is past range."""
    (h_c, log_c), (h_d, log_d) = _h_value(m, cv), _h_value(m, dv)
    if None in (h_c, h_d):
        h_c, h_d = LogValue(log_c), LogValue(log_d)
    sign = (h_c > h_d) - (h_c < h_d) if cv.exact and dv.exact else \
        _h_sign(m, log_c, log_d, cv, dv)
    return sign, h_c, h_d


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
    exact_c, exact_d = _h_exact_at(m, cv), _h_exact_at(m, dv)
    return (exact_c > exact_d) - (exact_c < exact_d)


def _least_separating_degree(cv: ModuliVector, dv: ModuliVector,
                             m_stop: int) -> int | None:
    """Least m <= m_stop with h_m(cv) > h_m(dv) under the tie rule of
    _h_sign, from the logs of one _h_scan pass per side (symchar._h_logs).
    Returns None when no degree up to m_stop separates.
    """
    for m, (log_c, log_d) in enumerate(zip(_h_logs(cv, m_stop), _h_logs(dv, m_stop))):
        if m and _h_sign(m, log_c, log_d, cv, dv) > 0:
            return m
    return None


def find_separating_character(
        x, y, *, dim_cap: int | None = DEFAULT_MODULI_CAP) -> SeparatingWitness:
    """Construct a representation separating y strictly over x.

    Requires that x does not dominate y. The witness composes the m-th
    symmetric power with the k-th exterior power, where k is a failing
    prefix level (so the exterior-power spectral radius of y already
    exceeds that of x) and m comes from the symmetric-power degree scan
    on the exterior moduli. The smallest failing level is preferred;
    levels whose separation degree would push the composed dimension over
    dim_cap are skipped in favour of later failing levels. Raises
    OrderHolds when x >= y, and DimensionCap when no failing level gives
    a witness (near-comparable pairs genuinely require enormous symmetric
    powers); its message names each level with the reason it was skipped,
    a degree budget below 1 or the NotSeparable reason of its degree scan.
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

    skipped = []
    for k in failing:
        ext_dim = math.comb(n, k)
        m_budget = _degree_budget(ext_dim, dim_cap)
        if m_budget is not None and m_budget < 1:
            skipped.append(f"level {k}: degree budget {m_budget} < 1 "
                           f"(Ext^{k} alone has dimension {ext_dim})")
            continue
        ext_x = rep_moduli(Ext(k), xv, cap=None)
        ext_y = rep_moduli(Ext(k), yv, cap=None)
        try:
            m_min, m_paper = separating_sym_power(ext_y, ext_x, m_limit=m_budget)
        except NotSeparable as exc:
            skipped.append(f"level {k}: {exc}")
            continue
        sign, chi_2, chi_1 = _h_compare(m_min, ext_y, ext_x)
        if sign <= 0:
            raise AssertionError("witness failed its strict character comparison")
        spec = Compose(Sym(m_min), Ext(k))
        return SeparatingWitness(k=k, m=m_min, spec=spec, chi_1=chi_1, chi_2=chi_2,
                                 paper_bound_m=m_paper, dimension=rep_dim(spec, n))
    advice = "" if xv.exact and yv.exact and dim_cap is None else (
        "; the pair is nearly comparable (raise dim_cap, or use exact inputs "
        "and dim_cap=None)")
    cap = "" if dim_cap is None else f" under dimension cap {dim_cap}"
    raise DimensionCap(f"no failing level gives a separating character{cap}: "
                       f"{'; '.join(skipped)}{advice}")


MAX_SYM_DEGREE = 10 ** 6


def _degree_budget(ext_dim: int, dim_cap: int | None) -> int | None:
    """Largest symmetric degree m <= MAX_SYM_DEGREE keeping
    comb(m + N - 1, N - 1) <= cap."""
    if dim_cap is None:
        return None
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

