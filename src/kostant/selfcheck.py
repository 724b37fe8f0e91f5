"""Bundled invariant suites at desk scale.

Each suite replays a core guarantee on small random inputs with a fixed
seed: projector algebra, decomposition round trips (a Jordan block
included), character values against brute-force enumeration, Schur
weights against Jacobi-Trudi and the hook-content dimension, order
decisions against the exterior-power radius test, characters of
dominated pairs against Kostant's Theorem 6.1, and witness construction
on non-dominated pairs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np

from ._frozen import frozen
from .cmjd import cmjd, validate_cmjd
from .linalg import mat_norm, spectral_projectors
from .order import (
    EQUAL,
    GEQ,
    SeparatingFunctional,
    find_separating_character,
    kostant_compare,
    permutohedron_certificate,
    verify_certificate,
)
from .symchar import (
    Ext,
    ModuliVector,
    Partition,
    Schur,
    Sym,
    abs_character,
    complete_homogeneous,
    complete_homogeneous_log,
    elementary,
    rep_dim,
    rep_moduli,
    schur,
    spectral_radius_rep,
)

SEED = 20240


@frozen
class SuiteResult:
    name: str
    passed: bool
    detail: str


def run_suites(names=None) -> list[SuiteResult]:
    selected = SUITE_NAMES if names is None else tuple(names)
    unknown = set(selected) - set(SUITE_NAMES)
    if unknown:
        raise ValueError(f"unknown suite(s) {sorted(unknown)}; "
                         f"available: {list(SUITE_NAMES)}")
    rng = np.random.default_rng(SEED)
    return [_RUNNERS[name](rng) for name in SUITE_NAMES if name in selected]


def _random_sl(rng, n: int) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    det = np.linalg.det(g)
    return g / det ** (1.0 / n)


def _similar_to(rng, diagonal) -> np.ndarray:
    s = _random_sl(rng, len(diagonal))
    return s @ diagonal @ np.linalg.inv(s)


def _suite_projectors(rng) -> SuiteResult:
    cases = [rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
             for n in rng.integers(2, 6, size=10)]
    repeated = _similar_to(rng, np.diag([2, 2, 2, -1, 1j]))
    worst = 0.0
    for a in cases + [repeated]:
        decomp = spectral_projectors(a)
        worst = max(worst, decomp.residual / mat_norm(a))
        if a is repeated and sorted(m for _, m in decomp.spectrum.clusters) != [1, 1, 3]:
            return SuiteResult("projectors", False,
                               "repeated eigenvalue split across clusters")
    passed = worst <= 1e-8
    return SuiteResult("projectors", passed,
                       f"worst relative projector residual {worst:.3e}")


def _suite_cmjd(rng) -> SuiteResult:
    worst = 0.0
    cases = [_random_sl(rng, n) for n in rng.integers(2, 6, size=10)]
    # rounding splits the eigenvalue of a Jordan block; cmjd merges it back
    jordan = _similar_to(rng, 2 * np.eye(3) + np.eye(3, k=1))
    for g in cases + [jordan]:
        report = validate_cmjd(g, cmjd(g))
        if not report.passed:
            failing = [k for k, ok in report.checks.items() if not ok]
            return SuiteResult("cmjd", False,
                               f"validation failed: {failing}")
        worst = max(worst, report.residuals["reconstruction"] / mat_norm(g))
    return SuiteResult("cmjd", True,
                       f"worst relative reconstruction residual {worst:.3e}")


def _brute_force_h(m: int, values) -> Fraction:
    total = Fraction(0)
    for combo in combinations_with_replacement(values, m):
        term = Fraction(1)
        for v in combo:
            term *= v
        total += term
    return total


def _suite_characters(rng) -> SuiteResult:
    for n in (2, 3):
        for m in range(5):
            x = ModuliVector.from_values(
                [Fraction(int(rng.integers(1, 6)), int(rng.integers(1, 4)))
                 for _ in range(n)])
            expected = _brute_force_h(m, x.values)
            if complete_homogeneous(m, x) != expected:
                return SuiteResult("characters", False,
                                   f"h_{m} mismatch on {x.values}")
            count = sum(1 for _ in combinations_with_replacement(range(n), m))
            if count != math.comb(m + n - 1, n - 1):
                return SuiteResult("characters", False, "monomial count off")
    x = ModuliVector.from_values([Fraction(2), Fraction(1)])
    checks = (
        complete_homogeneous(2, x) == Fraction(7),
        elementary(2, ModuliVector.from_values([1, 2, 3])) == Fraction(11),
        schur((2, 1), x) == Fraction(6),
        # h_2000(2, 1) = 2^2001 - 1 is past float range; its log is not
        math.isclose(complete_homogeneous_log(2000, [2.0, 1.0]), 2001 * math.log(2)),
    )
    if not all(checks):
        return SuiteResult("characters", False, "anchor value mismatch")
    # three independent Schur computations: Gelfand-Tsetlin weights,
    # exact Jacobi-Trudi and the hook-content dimension
    x = ModuliVector.from_values([Fraction(5, 2), 2, 1, Fraction(1, 3)])
    for shape in ((2, 1), (2, 2), (3, 1, 1), (3, 2, 1), (2, 2, 1, 1)):
        spec = Schur(Partition(shape))
        weights = rep_moduli(spec, x).values
        if sum(weights) != schur(shape, x) or len(weights) != rep_dim(spec, x.n):
            return SuiteResult("characters", False,
                               f"Schur weights of {shape} disagree")
    return SuiteResult("characters", True, "enumeration oracles agree")


def _random_sl_moduli(rng, n: int) -> ModuliVector:
    logs = rng.normal(size=n)
    logs -= logs.mean()
    return ModuliVector.from_values(np.exp(logs))


def _suite_order(rng) -> SuiteResult:
    for _ in range(25):
        n = int(rng.integers(2, 6))
        x = _random_sl_moduli(rng, n)
        y = _random_sl_moduli(rng, n)
        verdict = kostant_compare(x, y)
        radius_geq = all(
            float(spectral_radius_rep(Ext(k), x))
            >= float(spectral_radius_rep(Ext(k), y)) * (1 - 1e-9)
            for k in range(1, n + 1))
        if (verdict.relation in (GEQ, EQUAL)) != radius_geq:
            return SuiteResult("order", False,
                               f"radius test disagrees on {x.values} vs {y.values}")
        if verdict.relation in (GEQ, EQUAL):
            # Kostant's Theorem 6.1: the character of x bounds that of y
            for spec in (Sym(2), Schur(Partition((2, 1)))):
                if float(abs_character(spec, x)) < \
                        float(abs_character(spec, y)) * (1 - 1e-9):
                    return SuiteResult("order", False,
                                       f"|chi_{spec}| of a dominated pair decreased")
            cert = permutohedron_certificate(x, y)
            if isinstance(cert, SeparatingFunctional):
                return SuiteResult("order", False,
                                   "dominated pair produced a separating functional")
            if verify_certificate(cert) > 1e-12:
                return SuiteResult("order", False, "certificate replay failed")
    return SuiteResult("order", True,
                       "radius test, characters and certificates agree")


def _suite_witness(rng) -> SuiteResult:
    found = 0
    attempts = 0
    while found < 10 and attempts < 200:
        attempts += 1
        n = int(rng.integers(2, 5))
        x = _random_sl_moduli(rng, n)
        y = _random_sl_moduli(rng, n)
        if kostant_compare(x, y).relation in (GEQ, EQUAL):
            continue
        witness = find_separating_character(x, y)
        if not witness.chi_1 < witness.chi_2:
            return SuiteResult("witness", False, "chi_1 >= chi_2")
        if witness.m > witness.paper_bound_m:
            return SuiteResult("witness", False, "m exceeds the paper bound")
        found += 1
    if found < 10:
        return SuiteResult("witness", False, "too few non-dominated pairs found")
    return SuiteResult("witness", True, f"{found} witnesses validated")


_RUNNERS = {
    "projectors": _suite_projectors,
    "cmjd": _suite_cmjd,
    "characters": _suite_characters,
    "order": _suite_order,
    "witness": _suite_witness,
}
SUITE_NAMES = tuple(_RUNNERS)
