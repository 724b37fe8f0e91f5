"""Characters and eigenvalue-modulus data of finite-dimensional reps.

A hyperbolic group element is described, up to conjugacy, by its vector of
eigenvalue moduli. For a representation given as a RepSpec tree (symmetric
power, exterior power, Schur functor, tensor, direct sum, composition)
this module evaluates

  * rep_moduli      - the full multiset of eigenvalue moduli of pi(g),
  * abs_character   - their sum (equals the character on hyperbolic g),
  * spectral_radius_rep - their maximum,

and rep_dim its dimension: one walk over the tree (_walk), read under
four _Algebras.

The input is a ModuliVector (linalg.matrix_moduli turns a matrix into
one); nothing here needs a matrix library. Rational input of degree d
is evaluated on integers over one common denominator D, divided once by
D**d (ModuliVector.integers).
Schur weights are read off Gelfand-Tsetlin patterns, one row at a time
(_interlacing). Schur values, float and rational alike, come from one
kernel: Jacobi-Trudi on the integers a = D x (_integers; a binary float
is a dyadic rational), its determinant by fraction-free elimination
(_bareiss), then one division, which rounds once for float input.
Every h_m (complete homogeneous) evaluation of the package is made
here. Float values and their logarithms come from one recurrence,
_h_scan: it runs on the moduli divided by the largest, so its row stays
within binom(m+n-1, n-1), and it rescales by powers of two past a guard,
so one pass gives h_m and log h_m at every degree. Its (h, shift) form
stays in this module:
_h_value gives h_m at one degree with its log, and _h_logs yields log h_m
at every degree up to a bound, reading rational moduli as their exact
ratios to the largest, so none past float range meets a float (order's
degree scan zips two of them). _h_exact is the exact counterpart on
integers; _ExactH reads it at rising degrees from one pass, begun at
its first read. The spectral radius of a Sym, Ext or Schur leaf is one
dominant weight (_dominant_weight).
complete_homogeneous, schur, abs_character and spectral_radius_rep raise
Overflow exactly when a float value is not finite;
complete_homogeneous_log has no such limit.
"""

from __future__ import annotations

import math
import operator
import sys
from collections import deque, namedtuple
from fractions import Fraction
from functools import reduce
from itertools import combinations, combinations_with_replacement, product

from ._frozen import frozen
from .errors import BadIndex, DimensionCap, LengthMismatch, NonPositive, Overflow

DEFAULT_MODULI_CAP = 10 ** 6
_LN2 = math.log(2.0)


def _is_exact(value) -> bool:
    return value.__class__ is not float and isinstance(value, (int, Fraction))


def _rational_log(value) -> float:
    """log p - log q of a rational p/q, for integers of any size."""
    return math.log(value.numerator) - math.log(value.denominator)


def _log(value) -> float:
    """math.log(float(value)); log p - log q for a rational p/q whose float
    would overflow or underflow the normal range."""
    if isinstance(value, float) or sys.float_info.min <= value <= sys.float_info.max:
        return math.log(float(value))
    return _rational_log(value)


# --- domain types -----------------------------------------------------------


class _Sorted:
    """Values sorted non-increasing; rational ones cache integers = _over_lcm(values)."""

    exact = False
    integers = None
    _positive = False

    @classmethod
    def from_values(cls, values):
        """Coerce, sort non-increasing, and validate; rationals on integers."""
        coerced = [Fraction(v) if isinstance(v, int) else v for v in values]
        if coerced and coerced[0].__class__ is not float and (integers := _over_lcm(coerced)):
            a, den = integers
            order = sorted(range(len(a)), key=a.__getitem__, reverse=True)
            if cls._positive and a[order[-1]] <= 0:
                first = next(coerced[i] for i in order if a[i] <= 0)
                raise NonPositive(f"moduli must be strictly positive, got {first}")
            vector = cls.__new__(cls)  # fields set past the frozen __setattr__
            vector.__dict__.update(values=tuple([coerced[i] for i in order]), exact=True,
                                   integers=(tuple([a[i] for i in order]), den))
            return vector
        coerced.sort(reverse=True)
        return cls(tuple(coerced))

    @property
    def n(self) -> int:
        return len(self.values)


def _over_lcm(values) -> tuple[tuple[int, ...], int] | None:
    """(a, D), values[i] == a[i] / D with D the lcm of the denominators, if all rational."""
    for v in values:
        if v.__class__ is not Fraction and not _is_exact(v):
            return None
    dens = [v.denominator for v in values]
    den = math.lcm(*dens)
    return tuple([v.numerator * (den // q) for v, q in zip(values, dens)]), den


def _integers(x: ModuliVector) -> tuple[tuple[int, ...], int]:
    """(a, D), x.values[i] == a[i] / D with D the lcm of the denominators:
    x.integers for rational x, else the integers of as_integer_ratio(),
    whose denominators are powers of two for float entries."""
    if x.integers:
        return x.integers
    ratios = [v.as_integer_ratio() for v in x.values]
    den = math.lcm(*[q for _, q in ratios])
    return tuple([p * (den // q) for p, q in ratios]), den


@frozen
class ModuliVector(_Sorted):
    """Positive eigenvalue moduli sorted non-increasing.

    Entries are floats or Fractions; the vector is exact when every entry
    is rational. For SL_n data the product of entries is 1 (exactly in
    exact mode, within tolerance otherwise).
    """

    values: tuple
    _positive = True

    def __post_init__(self):  # one per class: shared code runs slower on alternation
        if len(self.values) == 0:
            raise ValueError("moduli vector must be nonempty")
        for v in self.values:
            if not v > 0:
                raise NonPositive(f"moduli must be strictly positive, got {v}")
        for a, b in zip(self.values, self.values[1:]):
            if a < b:
                raise ValueError("moduli must be sorted non-increasing")
        # floats do no rational work
        if self.values[0].__class__ is not float and (a := _over_lcm(self.values)):
            self.__dict__.update(integers=a, exact=True)

    def product(self):
        if self.exact:
            return Fraction(math.prod(self.integers[0]), self.integers[1] ** self.n)
        return math.prod(self.values, start=1.0)

    def as_floats(self) -> tuple[float, ...]:
        return tuple(float(v) for v in self.values)

    def as_fractions(self) -> tuple[Fraction, ...]:
        """Exact rational view; binary floats convert exactly."""
        return tuple(Fraction(v) for v in self.values)

    def log_values(self) -> tuple[float, ...]:
        return tuple(math.log(v) if v.__class__ is float else _log(v) for v in self.values)

    def normalized(self) -> "ModuliVector":
        """Scale to product 1 (geometric-mean division; float result)."""
        logs = self.log_values()
        mean = sum(logs) / len(logs)
        return ModuliVector.from_values(
            [math.exp(v - mean) for v in logs])


@frozen
class Partition:
    """Weakly decreasing tuple of nonnegative integers (trailing zeros dropped)."""

    parts: tuple[int, ...]

    def __post_init__(self):
        for p in self.parts:
            if not isinstance(p, int) or p < 0:
                raise ValueError(f"partition parts must be nonnegative ints, got {p}")
        for a, b in zip(self.parts, self.parts[1:]):
            if a < b:
                raise ValueError("partition parts must be weakly decreasing")
        object.__setattr__(self, "parts",
                           tuple(p for p in self.parts if p > 0))

    @property
    def length(self) -> int:
        return len(self.parts)


class RepSpec:
    """Base of the representation-description tree."""

    __slots__ = ()


@frozen
class Sym(RepSpec):
    m: int

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("symmetric power degree must be nonnegative")


@frozen
class Ext(RepSpec):
    k: int

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("exterior power index must be nonnegative")


@frozen
class Schur(RepSpec):
    shape: Partition

    def __post_init__(self):
        object.__setattr__(self, "shape", _as_partition(self.shape))


@frozen
class Tensor(RepSpec):
    left: RepSpec
    right: RepSpec


@frozen
class DirectSum(RepSpec):
    parts: tuple[RepSpec, ...]

    def __post_init__(self):
        if len(self.parts) == 0:
            raise ValueError("direct sum needs at least one part")


@frozen
class Compose(RepSpec):
    outer: RepSpec
    inner: RepSpec


def _schur_dimension(shape: Partition, n: int) -> int:
    """Number of semistandard tableaux of the shape with entries <= n, by
    the hook-content formula prod (n + j - i) / hook(i, j); a content
    factor is 0 when the shape has more than n rows."""
    parts = shape.parts
    columns = [sum(1 for p in parts if p > j) for j in range(parts[0] if parts else 0)]
    num = den = 1
    for i, row in enumerate(parts):
        for j in range(row):
            num *= n + j - i
            den *= (row - j) + (columns[j] - i) - 1
    return num // den


# --- symmetric-function evaluation -------------------------------------------


def complete_homogeneous(m: int, x):
    """h_m(x_1, ..., x_n): the sum of all degree-m monomials.

    Exact input: integers over one common denominator, divided once
    (_h_exact). Float input goes through the one scaled recurrence
    _h_scan, whose relative error is at most about n*m*eps (all terms
    positive); Overflow is raised exactly when h_m(x) is not a finite
    float, in which case complete_homogeneous_log still has the value.
    """
    x = _as_moduli(x)
    if m < 0:
        raise ValueError("degree must be nonnegative")
    h = _h_value(m, x)[0]
    if h is None:
        raise Overflow(f"h_{m} exceeds float range; use complete_homogeneous_log")
    return h


def complete_homogeneous_log(m: int, x) -> float:
    """Natural log of h_m(x); safe for values far beyond float range."""
    x = _as_moduli(x)
    if m < 0:
        raise ValueError("degree must be nonnegative")
    return _last(_h_logs(x, m))


def _h_value(m: int, v: ModuliVector) -> tuple[object, float]:
    """h_m(v) and its log: exactly on rationals, with the log from the
    value's integers; else from one _h_scan pass, the value None past
    float range."""
    if v.exact:
        h = Fraction(*_ExactH(v, m).at(m))
        return h, _rational_log(h)
    values = v.as_floats()
    scaled = _last(_h_scan(values, m))
    log = _scaled_to_log(math.log(values[0]), m, *scaled)
    try:
        return _scaled_to_float(values[0], m, *scaled), log
    except Overflow:
        return None, log


def _h_logs(v: ModuliVector, m_max: int):
    """Yield log h_m(v) for m = 0..m_max from one _h_scan pass. Rational
    moduli are read as their exact ratios to the largest, which are never
    above 1, with the log of the largest from its integers, so that no
    modulus past float range is converted to a float."""
    if v.exact:
        log_top = _rational_log(v.values[0])
        a = v.integers[0]
        values = tuple([p / a[0] for p in a])
    else:
        values = v.as_floats()
        log_top = math.log(values[0])
    for m, (h, shift) in enumerate(_h_scan(values, m_max)):
        yield _scaled_to_log(log_top, m, h, shift)


class _ExactH:
    """Exact h_m(v) at rising degrees m <= m_max from one _h_exact pass,
    begun at the first read: at(m) = (h_m(a), D**m), a = D v (_integers)."""

    def __init__(self, v: ModuliVector, m_max: int):
        self._v, self._m_max, self._pass = v, m_max, None

    def at(self, m: int) -> tuple[int, int]:
        if self._pass is None:
            a, self._den = _integers(self._v)
            self._pass = enumerate(_h_exact(a, self._m_max))
        for degree, h in self._pass:
            if degree == m:
                return h, self._den ** m


def _h_exact(a: tuple[int, ...], m_max: int):
    """Yield h_m(a) for m = 0..m_max, by the recurrence of _h_scan without
    its scaling; on integers a = D * x, h_m(x) = h_m(a) / D**m."""
    row = [1] * len(a)
    yield 1
    for _ in range(m_max):
        h = 0
        for k, p in enumerate(a):
            h = row[k] = h + p * row[k]
        yield h


H_GUARD = 2.0 ** 512


def _h_scan(values: tuple[float, ...], m_max: int):
    """Yield (h, shift) for m = 0..m_max, where h_m(values) equals
    values[0]**m * h * 2**shift; values sorted non-increasing.

    The recurrence runs on q = values / values[0] <= 1, so h_m(q) is at
    most binom(m+n-1, n-1). row[k] holds h_m(q_1..q_{k+1}), and
    h_m(q_1..q_k) = h_m(q_1..q_{k-1}) + q_k h_{m-1}(q_1..q_k) updates it
    in place as a running sum over the variables (in CPython faster than
    building a new row per degree); row[0] = q_1^m = 1 is never touched.
    A row whose last entry passes H_GUARD is scaled down by a power of
    two, exactly, into shift.
    """
    q = [v / values[0] for v in values]
    row = [1.0] * len(q)
    rest = range(1, len(q))
    shift = 0
    h = 1.0
    yield h, shift
    for _ in range(m_max):
        h = row[0]
        for k in rest:
            h = row[k] = h + q[k] * row[k]
        if h > H_GUARD:
            e = math.frexp(h)[1]
            row = [math.ldexp(v, -e) for v in row]
            shift += e
            h = row[-1]
        yield h, shift


def _last(rows):
    return deque(rows, maxlen=1)[0]


def _scaled_to_log(log_x1: float, m: int, h: float, shift: int) -> float:
    """The log of x1**m * h * 2**shift, from log x1."""
    return m * log_x1 + shift * _LN2 + math.log(h)


def _scaled_to_float(x1: float, m: int, h: float, shift: int) -> float:
    """The float x1**m * h * 2**shift; Overflow when it is not finite."""
    try:
        top = x1 ** m
        if top < sys.float_info.min:  # x1 < 1 and x1**m underflowed
            value = math.exp(_scaled_to_log(math.log(x1), m, h, shift))
        else:
            value = math.ldexp(top * h, shift)
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise Overflow(f"h_{m} exceeds float range; use complete_homogeneous_log")
    return value


def elementary(k: int, x):
    """e_k(x): sum over k-subsets of products; e_0 = 1, e_n = product."""
    x = _as_moduli(x)
    if k < 0 or k > x.n:
        raise BadIndex(f"elementary index {k} outside [0, {x.n}]")
    values, den = x.integers or (x.as_floats(), None)  # exact: e_k(D x) / D**k
    row = [1] + [0] * k if den else [1.0] + [0.0] * k  # e_j of the empty prefix
    for v in values:
        for j in range(min(k, len(row) - 1), 0, -1):
            row[j] = row[j] + v * row[j - 1]
    return row[k] if den is None else Fraction(row[k], den ** k)


def schur(shape: Partition, x):
    """Schur polynomial s_shape(x) via the Jacobi-Trudi determinant.

    det(h_{shape_i - i + j}) over i, j = 1..len(shape), one way for every
    input: the matrix of h_d on the integers a = D x (_integers), its
    determinant by fraction-free elimination (_bareiss), divided once by
    D**|shape|. Exact input gives that rational; float input its correctly
    rounded float, and Overflow when that is past float range.
    """
    x = _as_moduli(x)
    shape = _as_partition(shape)
    _check_schur(shape, x.n)
    if shape.length == 0:
        return _one(x)
    a, den = _integers(x)
    h = list(_h_exact(a, shape.parts[0] + shape.length - 1))
    det, scale = _bareiss(_jacobi_trudi(shape, h)), den ** sum(shape.parts)
    if x.exact:
        return Fraction(det, scale)
    try:
        return det / scale  # int true division rounds correctly
    except OverflowError:
        raise Overflow(f"s_{shape.parts} exceeds float range") from None


def _jacobi_trudi(shape: Partition, h: list) -> list[list]:
    """The matrix (h_{shape_i - i + j}) from h = [h_0, h_1, ...]."""
    ell = shape.length
    return [[h[d] if d >= 0 else 0
             for d in (shape.parts[i] - i + j for j in range(ell))]
            for i in range(ell)]


def _bareiss(matrix: list[list[int]]) -> int:
    """Determinant of an integer Jacobi-Trudi matrix by fraction-free
    elimination (E. H. Bareiss, Math. Comp. 22, 1968): each step sets the
    entries below and right of its pivot to (pivot * entry - lead * top)
    over the previous pivot, a division that is exact (Sylvester's
    identity), so every entry stays an integer; the last is the determinant.

    No row is swapped: after k steps the pivot is the leading (k+1) x (k+1)
    minor, which for the Jacobi-Trudi matrix of a shape is
    s_(shape_1..shape_(k+1))(a) > 0 on positive integers a.
    """
    m = [row[:] for row in matrix]
    n = len(m)
    prev = 1
    for k in range(n - 1):
        top = m[k]
        pivot = top[k]
        rest = range(k + 1, n)
        for row in m[k + 1:]:
            lead = row[k]
            for j in rest:
                row[j] = (pivot * row[j] - lead * top[j]) // prev
        prev = pivot
    return m[-1][-1]


# --- Gelfand-Tsetlin patterns -------------------------------------------------


def _interlacing(mu: tuple[int, ...], rows: int):
    """Yield the partitions nu with at most `rows` parts interlacing mu,
    mu_1 >= nu_1 >= mu_2 >= nu_2 >= ...: the rows that may follow mu in a
    Gelfand-Tsetlin pattern, i.e. mu / nu is a horizontal strip. mu has
    at most rows + 1 parts."""
    below = mu[1:] + (0,)
    for nu in product(*(range(below[i], mu[i] + 1)
                        for i in range(min(len(mu), rows)))):
        yield tuple(p for p in nu if p)


def _schur_moduli(shape: Partition, x: ModuliVector) -> list:
    """The weights of V_shape at x, with multiplicity, by the branching rule:
    V_mu on x_1..x_j is the sum over nu interlacing mu of x_j^(|mu| - |nu|)
    times V_nu on x_1..x_{j-1}. Each weight is multiplied out from x_1 on,
    one power per variable. Costs O(dim * n) products.
    """
    _check_schur(shape, x.n)
    values = x.values
    memo = {((), 0): [_one(x)]}

    def weights(mu: tuple[int, ...], j: int) -> list:
        if (mu, j) not in memo:
            v, size = values[j - 1], sum(mu)
            out = memo[mu, j] = []
            for nu in _interlacing(mu, j - 1):
                below, c = weights(nu, j - 1), size - sum(nu)
                if c:  # a zero power leaves the weights as they are
                    power = v ** c
                    below = [w * power for w in below]
                out.extend(below)
        return memo[mu, j]

    return weights(shape.parts, x.n)


# --- representation moduli and characters --------------------------------------


class _Algebra(namedtuple("_Algebra", "sym ext schur product add lift")):
    """One reading of the rep spec tree: a value for each leaf, the value
    of a Tensor from its factors (product) and of a DirectSum from its
    parts (add, folded left to right), and the input that a Compose hands
    its outer spec: lift(inner spec, x, cap)."""

    __slots__ = ()


def _walk(spec: RepSpec, x, algebra: _Algebra, cap: int | None):
    """The value of spec at x under the algebra; cap bounds each lift."""
    if isinstance(spec, Sym):
        return algebra.sym(spec.m, x)
    if isinstance(spec, Ext):
        return algebra.ext(spec.k, x)
    if isinstance(spec, Schur):
        return algebra.schur(spec.shape, x)
    if isinstance(spec, Tensor):
        return algebra.product(_walk(spec.left, x, algebra, cap),
                               _walk(spec.right, x, algebra, cap))
    if isinstance(spec, DirectSum):
        return reduce(algebra.add,
                      (_walk(part, x, algebra, cap) for part in spec.parts))
    if isinstance(spec, Compose):
        return _walk(spec.outer, algebra.lift(spec.inner, x, cap), algebra, cap)
    raise TypeError(f"unknown rep spec {spec!r}")


def _check_ext(k: int, n: int) -> int:
    if k > n:
        raise BadIndex(f"exterior power {k} exceeds dimension {n}")
    return k


def _check_schur(shape: Partition, n: int) -> Partition:
    if shape.length > n:
        raise LengthMismatch(
            f"partition length {shape.length} exceeds vector length {n}")
    return shape


def _one(x: ModuliVector):
    return Fraction(1) if x.exact else 1.0


def rep_dim(spec: RepSpec, n: int) -> int:
    """Dimension of the representation on an n-dimensional input."""
    return _walk(spec, n, _DIMENSION, None)


_DIMENSION = _Algebra(
    sym=lambda m, n: math.comb(n + m - 1, m),
    ext=lambda k, n: math.comb(n, _check_ext(k, n)),
    schur=_schur_dimension, product=operator.mul, add=operator.add,
    lift=lambda inner, n, cap: rep_dim(inner, n))


def _check_cap(spec: RepSpec, n: int, cap: int | None) -> None:
    """Raise DimensionCap when the representation is larger than cap."""
    if cap is not None and (d := rep_dim(spec, n)) > cap:
        raise DimensionCap(f"representation dimension {d} exceeds cap {cap}")


def rep_moduli(spec: RepSpec, x, cap: int | None = DEFAULT_MODULI_CAP) -> ModuliVector:
    """Multiset of eigenvalue moduli of pi(g) for hyperbolic data x.

    Sym(m) gives all degree-m products, Ext(k) all k-subset products,
    Schur the weights of Gelfand-Tsetlin patterns (_schur_moduli), Tensor
    pairwise products, DirectSum concatenation, Compose evaluates outer
    on the inner moduli. Only cap bounds the size. Result sorted
    non-increasing.
    """
    x = _as_moduli(x)
    _check_cap(spec, x.n, cap)
    return ModuliVector.from_values(_walk(spec, x, _MODULI, cap))


def _products(choose, x: ModuliVector, degree: int) -> list:
    """Products over choose(values, degree); exact x on its integers."""
    if not x.exact:
        return [math.prod(combo, start=1.0) for combo in choose(x.values, degree)]
    a, scale = x.integers[0], x.integers[1] ** degree
    return [Fraction(math.prod(combo), scale) for combo in choose(a, degree)]


_MODULI = _Algebra(
    sym=lambda m, x: _products(combinations_with_replacement, x, m),
    ext=lambda k, x: _products(combinations, x, _check_ext(k, x.n)),
    schur=_schur_moduli,
    product=lambda left, right: [a * b for a in left for b in right],
    add=operator.add, lift=rep_moduli)


def abs_character(spec: RepSpec, x, cap: int | None = DEFAULT_MODULI_CAP):
    """Sum of eigenvalue moduli of pi(g): the character value on hyperbolic g.

    Evaluated through symmetric-function identities (h_m, e_k, s_shape)
    rather than by enumerating the moduli multiset, so large symmetric
    powers stay cheap.
    """
    return _float_checked(spec, x, _CHARACTER, cap, "character")


_CHARACTER = _Algebra(
    sym=complete_homogeneous,
    ext=lambda k, x: elementary(_check_ext(k, x.n), x), schur=schur,
    product=operator.mul, add=operator.add, lift=rep_moduli)


def spectral_radius_rep(spec: RepSpec, x, cap: int | None = DEFAULT_MODULI_CAP):
    """Largest eigenvalue modulus of pi(g) for hyperbolic data x."""
    return _float_checked(spec, x, _RADIUS, cap, "spectral radius")


def _float_checked(spec: RepSpec, x, algebra: _Algebra, cap: int | None, what: str):
    """The value of spec at x under the algebra, after the cap check;
    Overflow when a float value is past float range."""
    x = _as_moduli(x)
    _check_cap(spec, x.n, cap)
    try:
        value = _walk(spec, x, algebra, cap)
    except OverflowError:  # float ** int past float range
        value = math.inf
    if value.__class__ is float and not math.isfinite(value):
        raise Overflow(f"{what} exceeds float range")
    return value


def _dominant_weight(parts, x: ModuliVector):
    """x_1^parts_1 x_2^parts_2 ..., the largest weight of Sym, Ext or Schur,
    shape (m), (1^k) or its own; exact x on its integers, divided once."""
    if x.exact:
        a, den = x.integers
        return Fraction(math.prod(map(pow, a, parts)), den ** sum(parts))
    return math.prod(map(pow, x.values, parts), start=1.0)


_RADIUS = _Algebra(
    sym=lambda m, x: _dominant_weight((m,), x),
    ext=lambda k, x: _dominant_weight((1,) * _check_ext(k, x.n), x),
    schur=lambda shape, x: _dominant_weight(_check_schur(shape, x.n).parts, x),
    product=operator.mul, add=max, lift=rep_moduli)


def _as_moduli(x) -> ModuliVector:
    if isinstance(x, ModuliVector):
        return x
    return ModuliVector.from_values(x)


def _as_partition(shape) -> Partition:
    if isinstance(shape, Partition):
        return shape
    return Partition(tuple(shape))
