"""Shared generators and independent brute-force oracles for the tests.

Oracles here are deliberately naive (full enumeration over monomials,
tableaux, or permutation vertices) so they stay independent of the
library's evaluation paths.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations

import numpy as np
import pytest
from scipy.linalg import block_diag

from kostant import (
    Compose,
    DirectSum,
    Ext,
    ModuliVector,
    Schur,
    Sym,
    Tensor,
    apply_t_transforms,
)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def perturbed_unipotent(monkeypatch):
    """The selfcheck cmjd suite sees a unipotent factor off by 1e-6, so its
    reconstruction check must fail."""
    from kostant import selfcheck

    real = selfcheck.cmjd

    def cmjd(g):
        triple = real(g)
        bad = triple.unipotent.copy()
        bad[0, -1] += 1e-6
        return type(triple)(triple.elliptic, triple.hyperbolic, bad, triple.residuals)

    monkeypatch.setattr(selfcheck, "cmjd", cmjd)


# --- random inputs ------------------------------------------------------------


def random_invertible(rng, n: int, cond_cap: float = 1e6) -> np.ndarray:
    """Complex Ginibre matrix, resampled until the condition number is tame."""
    while True:
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        sv = np.linalg.svd(g, compute_uv=False)
        if sv[-1] > 0 and sv[0] / sv[-1] <= cond_cap:
            return g


def random_sl(rng, n: int, cond_cap: float = 1e6) -> np.ndarray:
    g = random_invertible(rng, n, cond_cap)
    det = np.linalg.det(g)
    return g / det ** (1.0 / n)


def random_unitary(rng, n: int) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def jordan_direct_sum(rng, sizes, gap: float = 0.05):
    """Q diag(z_b (I + N_b)) Q* over Jordan blocks of the given sizes.

    The eigenvalues z_b lie at least gap apart, N_b has superdiagonal
    entries in [0.5, 1.5] and Q is a random unitary. Returns g with the
    factors (e, h, u) read off the blocks: Q diag(z/|z|) Q*,
    Q diag(|z|) Q* and Q (I + N) Q*.
    """
    k, n = len(sizes), sum(sizes)
    while True:
        z = np.exp(0.3 * rng.normal(size=k) + 2j * np.pi * rng.uniform(size=k))
        if k == 1 or (np.abs(z[:, None] - z) + np.eye(k)).min() >= gap:
            break
    diag = np.repeat(z, sizes)
    unip = np.eye(n, dtype=complex)
    start = 0
    for size in sizes:
        for a in range(start, start + size - 1):
            unip[a, a + 1] = rng.uniform(0.5, 1.5)
        start += size
    q = random_unitary(rng, n)
    qh = q.conj().T
    g = q @ (np.diag(diag) @ unip) @ qh
    factors = (q @ np.diag(diag / np.abs(diag)) @ qh,
               q @ np.diag(np.abs(diag)) @ qh,
               q @ unip @ qh)
    return g, factors


def random_sl_moduli(rng, n: int, spread: float = 1.0) -> ModuliVector:
    logs = spread * rng.normal(size=n)
    logs -= logs.mean()
    return ModuliVector.from_values(np.exp(logs))


def exact_sl_moduli(rng, n: int) -> ModuliVector:
    """Rational moduli whose product is exactly 1."""
    values = [Fraction(int(rng.integers(1, 10)), int(rng.integers(1, 10)))
              for _ in range(n - 1)]
    return ModuliVector.from_values(values + [1 / math.prod(values)])


def rational_zero_sum_logs(rng, n: int, denominator: int = 4,
                           magnitude: int = 8) -> list[Fraction]:
    """Zero-sum vector of rationals with a fixed small denominator."""
    while True:
        nums = [int(rng.integers(-magnitude, magnitude + 1)) for _ in range(n - 1)]
        nums.append(-sum(nums))
        if abs(nums[-1]) <= 2 * magnitude:
            return sorted((Fraction(v, denominator) for v in nums), reverse=True)


def mixed_logs(rng, logs: list, steps: int | None = None) -> list:
    """Apply random exact T-transforms: result stays inside the hull."""
    n = len(logs)
    out = list(logs)
    for _ in range(steps if steps is not None else n):
        i, j = rng.choice(n, size=2, replace=False)
        t = Fraction(int(rng.integers(0, 9)), 8)
        vi, vj = out[i], out[j]
        out[i] = t * vi + (1 - t) * vj
        out[j] = (1 - t) * vi + t * vj
    return out


def dominated_moduli_pair(rng, n: int, spread: float = 1.0):
    """(x, y) with x dominating y: log y is a doubly stochastic mix of log x."""
    x = random_sl_moduli(rng, n, spread)
    logs = list(np.log(x.as_floats()))
    mixed = mixed_logs(rng, logs)
    y = ModuliVector.from_values(np.exp(np.array([float(v) for v in mixed])))
    return x, y


# --- brute-force oracles ---------------------------------------------------------


def brute_force_h(m: int, values) -> Fraction:
    """Sum of all degree-m monomials, by full enumeration."""
    total = Fraction(0)
    for combo in combinations_with_replacement(values, m):
        term = Fraction(1)
        for v in combo:
            term *= Fraction(v)
        total += term
    return total


def enumerate_ssyt(shape: tuple[int, ...], n: int):
    """All semistandard tableaux of the shape with entries in 1..n."""
    rows = len(shape)

    def fill(row_idx: int, tableau: tuple):
        if row_idx == rows:
            yield tableau
            return
        length = shape[row_idx]

        def fill_row(col_idx: int, row: tuple):
            if col_idx == length:
                yield from fill(row_idx + 1, tableau + (row,))
                return
            lo = 1
            if col_idx > 0:
                lo = max(lo, row[col_idx - 1])
            if row_idx > 0:
                lo = max(lo, tableau[row_idx - 1][col_idx] + 1)
            for v in range(lo, n + 1):
                yield from fill_row(col_idx + 1, row + (v,))

        yield from fill_row(0, ())

    yield from fill(0, ())


def brute_force_schur(shape: tuple[int, ...], values) -> Fraction:
    total = Fraction(0)
    for tableau in enumerate_ssyt(shape, len(values)):
        term = Fraction(1)
        for row in tableau:
            for v in row:
                term *= Fraction(values[v - 1])
        total += term
    return total


def elimination_det(matrix: list[list]):
    """Determinant by Gaussian elimination with partial pivoting, in the
    arithmetic of the entries: Fraction entries give the exact determinant
    by a path independent of the library's fraction-free kernel."""
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


def brute_force_e(k: int, values) -> Fraction:
    """Sum of the products of all k-subsets, by full enumeration."""
    return sum((math.prod(map(Fraction, combo)) for combo in combinations(values, k)),
               Fraction(0))


def brute_force_moduli(spec, values) -> list[Fraction]:
    """Eigenvalue moduli of the representation at the diagonal moduli
    values, in Fractions, by enumeration: monomials (Sym), subsets (Ext),
    tableau weights (Schur), pairwise products (Tensor), concatenation
    (DirectSum), and the outer spec at the inner moduli (Compose)."""
    values = [Fraction(v) for v in values]
    if isinstance(spec, Sym):
        return [Fraction(math.prod(c))
                for c in combinations_with_replacement(values, spec.m)]
    if isinstance(spec, Ext):
        return [Fraction(math.prod(c)) for c in combinations(values, spec.k)]
    if isinstance(spec, Schur):
        return [Fraction(math.prod(values[v - 1] for row in t for v in row))
                for t in enumerate_ssyt(spec.shape.parts, len(values))]
    if isinstance(spec, Tensor):
        return [a * b for a in brute_force_moduli(spec.left, values)
                for b in brute_force_moduli(spec.right, values)]
    if isinstance(spec, DirectSum):
        return [v for part in spec.parts for v in brute_force_moduli(part, values)]
    if isinstance(spec, Compose):
        return brute_force_moduli(spec.outer, brute_force_moduli(spec.inner, values))
    raise TypeError(spec)


def verify_functional(func, x, y) -> bool:
    """Check that the top-k functional func separates y from the
    permutation hull of x by the margin it states, evaluating it on every
    vertex of the hull (n! permutations of x; small n only)."""
    xs = sorted(x, reverse=True)
    k = func.k
    value_at_y = sum(sorted(y, reverse=True)[:k])
    hull_max = max(sum(sorted(p, reverse=True)[:k]) for p in set(permutations(xs)))
    margin = value_at_y - hull_max
    return margin > 0 and margin == func.margin


def paper_degree_by_search(c, d, n: int) -> int:
    """Least m >= 1 that the order's rounding band proves to have
    (c/d)^m > (m+n)^n, for c > d > 0, by plain exponential and binary
    search over the proven predicate of order._least_paper_degree: the
    float sign of m log(c/d) - n log(m+n) outside its band, exact integers
    inside it up to PAPER_EXACT_LIMIT, unproven above."""
    from kostant.order import PAPER_EXACT_LIMIT, _LogRatio

    log_ratio = _LogRatio.of(c, d)
    p, q = log_ratio.ratio.numerator, log_ratio.ratio.denominator

    def proven(m: int) -> bool:
        sign = log_ratio.sign(m, n * math.log(m + n))
        return sign > 0 if sign else m <= PAPER_EXACT_LIMIT and p ** m > (m + n) ** n * q ** m

    hi = 1
    while not proven(hi):
        hi *= 2
    lo = hi // 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if proven(mid) else (mid, hi)
    return hi


def normalized_prefix_oracle(x, y) -> list[int]:
    """Signs of P_k(x)^n P(y)^k - P_k(y)^n P(x)^k, k = 1..n-1, in Fractions:
    the per-level comparisons of the normalized prefix products of the
    moduli x and y, with P_k the product of the k largest and P = P_n."""
    xs = sorted(map(Fraction, x), reverse=True)
    ys = sorted(map(Fraction, y), reverse=True)
    n = len(xs)
    px, py = math.prod(xs), math.prod(ys)
    signs = []
    for k in range(1, n):
        lhs = math.prod(xs[:k]) ** n * py ** k
        rhs = math.prod(ys[:k]) ** n * px ** k
        signs.append((lhs > rhs) - (lhs < rhs))
    return signs


def hull_member_oracle(x_logs, y_logs) -> bool:
    """Exact LP-free membership of y in conv(all permutations of x).

    Trusted-checker route: the library's certificate output is validated
    here by exact replay (membership) or by evaluating the separating
    top-k functional on every permutation vertex (non-membership).
    """
    from kostant import (SeparatingFunctional, permutohedron_certificate)

    xs = sorted(x_logs, reverse=True)
    ys = sorted(y_logs, reverse=True)
    result = permutohedron_certificate(xs, ys)
    if isinstance(result, SeparatingFunctional):
        assert verify_functional(result, xs, ys), "separating functional is invalid"
        return False
    replayed = apply_t_transforms(result.start.values, result.steps)
    assert list(replayed) == list(ys), "certificate replay failed"
    return True


# --- explicit representation matrices ----------------------------------------


def rep_matrix(spec, a) -> np.ndarray:
    """Matrix of pi(A) in the monomial / wedge basis.

    Supported specs: Sym(m), Ext(k), and Tensor / DirectSum combinations
    of those. The construction is multiplicative:
    rep_matrix(spec, A @ B) = rep_matrix(spec, A) @ rep_matrix(spec, B),
    and its trace at a diagonal A is the character.
    """
    m = np.asarray(a, dtype=complex)
    if isinstance(spec, Sym):
        return _sym_power_matrix(m, spec.m)
    if isinstance(spec, Ext):
        return _ext_power_matrix(m, spec.k)
    if isinstance(spec, Tensor):
        return np.kron(rep_matrix(spec.left, m), rep_matrix(spec.right, m))
    if isinstance(spec, DirectSum):
        return block_diag(*[rep_matrix(part, m) for part in spec.parts])
    raise TypeError(f"rep_matrix supports Sym, Ext, Tensor, DirectSum; got {spec!r}")


def _ext_power_matrix(m: np.ndarray, k: int) -> np.ndarray:
    """k-th compound matrix: entries are k x k minors (Cauchy-Binet)."""
    basis = list(combinations(range(m.shape[0]), k))
    out = np.ones((len(basis), len(basis)), dtype=complex)
    if k:
        for r, rows in enumerate(basis):
            for c, cols in enumerate(basis):
                out[r, c] = np.linalg.det(m[np.ix_(rows, cols)])
    return out


def _sym_power_matrix(m: np.ndarray, power: int) -> np.ndarray:
    """m-th symmetric power in the monomial basis.

    The column of the basis monomial e_{i_1}...e_{i_m} expands
    (A e_{i_1}) ... (A e_{i_m}) as a commutative polynomial in the e's;
    substitution is an algebra map, hence the construction is
    multiplicative.
    """
    n = m.shape[0]
    basis = list(combinations_with_replacement(range(n), power))
    index = {mono: i for i, mono in enumerate(basis)}
    out = np.zeros((len(basis), len(basis)), dtype=complex)
    for c, mono in enumerate(basis):
        poly: dict[tuple[int, ...], complex] = {(): 1.0 + 0j}
        for i in mono:
            nxt: dict[tuple[int, ...], complex] = {}
            for key, coeff in poly.items():
                for row in range(n):
                    if m[row, i] != 0:
                        new_key = tuple(sorted(key + (row,)))
                        nxt[new_key] = nxt.get(new_key, 0j) + coeff * m[row, i]
            poly = nxt
        for key, coeff in poly.items():
            out[index[key], c] = coeff
    return out
