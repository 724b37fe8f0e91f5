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
one); nothing here needs a matrix library. Evaluation is exact over
Fractions when the input moduli are rational.
Schur weights are read off Gelfand-Tsetlin patterns, one row at a time
(_interlacing); Schur values come from Jacobi-Trudi.
Every float h_m (complete homogeneous) value, its logarithm, the float
Jacobi-Trudi entries of schur and the degree scan in order come from one
recurrence, _h_scan: it runs on the moduli divided by the largest, so
its row stays within binom(m+n-1, n-1), and it rescales by powers of two
past a guard, so one pass gives h_m and log h_m at every degree.
_scan_input makes its input: rational moduli become their exact ratios
to the largest, so none past float range meets a float.
complete_homogeneous raises Overflow exactly when h_m is not a finite
float; complete_homogeneous_log has no such limit. _h_exact is the exact
counterpart for rational input.
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
    return isinstance(value, (int, Fraction))


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


@frozen
class ModuliVector:
    """Positive eigenvalue moduli sorted non-increasing.

    Entries are floats or Fractions; the vector is exact when every entry
    is rational. For SL_n data the product of entries is 1 (exactly in
    exact mode, within tolerance otherwise).
    """

    values: tuple

    def __post_init__(self):
        if len(self.values) == 0:
            raise ValueError("moduli vector must be nonempty")
        for v in self.values:
            if not v > 0:
                raise NonPositive(f"moduli must be strictly positive, got {v}")
        for a, b in zip(self.values, self.values[1:]):
            if a < b:
                raise ValueError("moduli must be sorted non-increasing")

    @classmethod
    def from_values(cls, values) -> "ModuliVector":
        """Coerce, sort non-increasing, and validate."""
        coerced = [Fraction(v) if isinstance(v, int) else v for v in values]
        coerced.sort(reverse=True)
        return cls(tuple(coerced))

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def exact(self) -> bool:
        return all(map(_is_exact, self.values))

    def product(self):
        result = Fraction(1) if self.exact else 1.0
        for v in self.values:
            result *= v
        return result

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

    Exact over Fractions for exact input (_h_exact). Float input goes
    through the one scaled recurrence _h_scan, whose relative error is
    at most about n*m*eps (all terms positive); Overflow is raised
    exactly when h_m(x) is not a finite float, in which case
    complete_homogeneous_log still has the value.
    """
    x = _as_moduli(x)
    if m < 0:
        raise ValueError("degree must be nonnegative")
    if x.exact:
        return _last(_h_exact(x.as_fractions(), m))
    values = x.as_floats()
    return _scaled_to_float(values[0], m, *_last(_h_scan(values, m)))


def complete_homogeneous_log(m: int, x) -> float:
    """Natural log of h_m(x); safe for values far beyond float range."""
    x = _as_moduli(x)
    if m < 0:
        raise ValueError("degree must be nonnegative")
    log_top, values = _scan_input(x)
    return _scaled_to_log(log_top, m, *_last(_h_scan(values, m)))


def _scan_input(v: ModuliVector) -> tuple[float, tuple[float, ...]]:
    """The log of the largest modulus, and the moduli that _h_scan reads:
    rational moduli as their exact ratios to the largest, which are never
    above 1, with that log from its integers, so that no modulus past
    float range is converted to a float."""
    if not v.exact:
        values = v.as_floats()
        return math.log(values[0]), values
    top = Fraction(v.values[0])
    return _rational_log(top), tuple(float(value / top) for value in v.values)


def _h_exact(values: tuple[Fraction, ...], m_max: int):
    """Yield h_m(values) for m = 0..m_max exactly, by the recurrence of
    _h_scan without its scaling."""
    row = [Fraction(1)] * len(values)
    yield Fraction(1)
    for _ in range(m_max):
        h = Fraction(0)
        for k, v in enumerate(values):
            h = row[k] = h + v * row[k]
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
    values = x.as_fractions() if x.exact else x.as_floats()
    one = Fraction(1) if x.exact else 1.0
    zero = Fraction(0) if x.exact else 0.0
    row = [one] + [zero] * k  # e_j of the empty prefix
    for v in values:
        for j in range(min(k, len(row) - 1), 0, -1):
            row[j] = row[j] + v * row[j - 1]
    return row[k]


def schur(shape: Partition, x):
    """Schur polynomial s_shape(x) via the Jacobi-Trudi determinant.

    det(h_{shape_i - i + j}) over i, j = 1..len(shape). Exact input gives
    an exact rational value. In float mode a determinant whose magnitude
    falls under 1e-8 of its Hadamard bound has lost significance and is
    recomputed exactly from the (exactly rational) float inputs.
    """
    x = _as_moduli(x)
    shape = _as_partition(shape)
    _check_schur(shape, x.n)
    if shape.length == 0:
        return Fraction(1) if x.exact else 1.0
    if x.exact:
        return _jacobi_trudi_exact(shape, x.as_fractions())
    values = x.as_floats()
    h = [_scaled_to_float(values[0], d, *hd)
         for d, hd in enumerate(_h_scan(values, _top_degree(shape)))]
    matrix = _jacobi_trudi(shape, h)
    det = float(_det(matrix))
    hadamard = math.prod(math.hypot(*row) for row in matrix)
    if hadamard > 0 and abs(det) < 1e-8 * hadamard:
        # all significant digits cancelled; retry exactly
        return float(_jacobi_trudi_exact(shape, x.as_fractions()))
    return det


def _top_degree(shape: Partition) -> int:
    """Largest h-degree in the Jacobi-Trudi matrix of the shape."""
    return shape.parts[0] + shape.length - 1


def _jacobi_trudi(shape: Partition, h: list) -> list[list]:
    """The matrix (h_{shape_i - i + j}) from h = [h_0, h_1, ...]."""
    ell = shape.length
    return [[h[d] if d >= 0 else 0
             for d in (shape.parts[i] - i + j for j in range(ell))]
            for i in range(ell)]


def _jacobi_trudi_exact(shape: Partition, values: tuple[Fraction, ...]) -> Fraction:
    h = list(_h_exact(values, _top_degree(shape)))
    return _det(_jacobi_trudi(shape, h))


def _det(matrix: list[list]):
    """Determinant by Gaussian elimination with partial pivoting, in the
    arithmetic of the entries: exact for Fractions, LU rounding for floats."""
    n = len(matrix)
    m = [row[:] for row in matrix]
    det = 1
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(m[r][col]))
        if not m[pivot][col]:
            return det * 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        top = m[col]
        det *= top[col]
        for r in range(col + 1, n):
            row = m[r]
            factor = row[col] / top[col]
            if factor:
                for c in range(col + 1, n):
                    row[c] -= factor * top[c]
    return det


# --- Gelfand-Tsetlin patterns -------------------------------------------------


def _interlacing(mu: tuple[int, ...], rows: int):
    """Yield the partitions nu with at most `rows` parts interlacing mu,
    mu_1 >= nu_1 >= mu_2 >= nu_2 >= ...: the rows that may follow mu in a
    Gelfand-Tsetlin pattern, i.e. mu / nu is a horizontal strip."""
    if len(mu) > rows + 1:
        return
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


def _products(combos, x: ModuliVector) -> list:
    one = _one(x)
    return [_product(combo, one) for combo in combos]


def _product(values, one):
    result = one
    for v in values:
        result = result * v
    return result


_MODULI = _Algebra(
    sym=lambda m, x: _products(combinations_with_replacement(x.values, m), x),
    ext=lambda k, x: _products(combinations(x.values, _check_ext(k, x.n)), x),
    schur=_schur_moduli,
    product=lambda left, right: [a * b for a in left for b in right],
    add=operator.add, lift=rep_moduli)


def abs_character(spec: RepSpec, x, cap: int | None = DEFAULT_MODULI_CAP):
    """Sum of eigenvalue moduli of pi(g): the character value on hyperbolic g.

    Evaluated through symmetric-function identities (h_m, e_k, s_shape)
    rather than by enumerating the moduli multiset, so large symmetric
    powers stay cheap.
    """
    x = _as_moduli(x)
    _check_cap(spec, x.n, cap)
    return _walk(spec, x, _CHARACTER, cap)


_CHARACTER = _Algebra(
    sym=complete_homogeneous,
    ext=lambda k, x: elementary(_check_ext(k, x.n), x), schur=schur,
    product=operator.mul, add=operator.add, lift=rep_moduli)


def spectral_radius_rep(spec: RepSpec, x, cap: int | None = DEFAULT_MODULI_CAP):
    """Largest eigenvalue modulus of pi(g) for hyperbolic data x."""
    x = _as_moduli(x)
    _check_cap(spec, x.n, cap)
    return _walk(spec, x, _RADIUS, cap)


_RADIUS = _Algebra(
    sym=lambda m, x: x.values[0] ** m if m > 0 else _one(x),
    ext=lambda k, x: _product(x.values[:_check_ext(k, x.n)], _one(x)),
    # the dominant weight: the largest moduli get the largest exponents
    schur=lambda shape, x: _product(
        (v ** p for v, p in zip(x.values, _check_schur(shape, x.n).parts)), _one(x)),
    product=operator.mul, add=max, lift=rep_moduli)


def _as_moduli(x) -> ModuliVector:
    if isinstance(x, ModuliVector):
        return x
    return ModuliVector.from_values(x)


def _as_partition(shape) -> Partition:
    if isinstance(shape, Partition):
        return shape
    return Partition(tuple(shape))
