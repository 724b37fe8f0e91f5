"""Tests for the order, its certificates, and witness search."""

import math
import os
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kostant import (
    EQUAL,
    GEQ,
    INCOMPARABLE,
    LEQ,
    Compose,
    Ext,
    LengthMismatch,
    LogValue,
    ModuliVector,
    NotSeparable,
    OrderHolds,
    SeparatingFunctional,
    Sym,
    SumMismatch,
    TTransformCertificate,
    abs_character,
    apply_t_transforms,
    complete_homogeneous,
    complete_homogeneous_log,
    find_separating_character,
    kostant_compare,
    permutohedron_certificate,
    schur,
    separating_sym_power,
    spectral_radius_rep,
    verify_certificate,
)
from kostant import order
from kostant.order import PAPER_EXACT_LIMIT, _least_paper_degree

from conftest import (
    brute_force_h,
    dominated_moduli_pair,
    hull_member_oracle,
    mixed_logs,
    random_sl_moduli,
    rational_zero_sum_logs,
    verify_functional,
)


def F(*args):
    return Fraction(*args)


def members(x, y):
    """Additive majorization of sorted y by sorted x, read off the certificate."""
    return isinstance(permutohedron_certificate(x, y), TTransformCertificate)


def dominates(x, y):
    """Multiplicative majorization of y by x, read off the verdict."""
    return kostant_compare(x, y).relation in (GEQ, EQUAL)


class TestMajorizeAdditive:
    def test_basic_dominance(self):
        assert members([1.0, 0.0, -1.0], [0.5, 0.0, -0.5])

    def test_reflexive(self):
        assert members([2.0, -1.0], [2.0, -1.0])

    def test_prefix_violation(self):
        # prefix at k=2: 2 < 3
        assert not members([2.0, 0.0, -2.0], [1.5, 1.5, -3.0])

    def test_total_mismatch_fails_strict_form(self):
        with pytest.raises(SumMismatch):
            permutohedron_certificate([4.0, 0.25], [2.0, 0.5])
        # the order itself normalizes the total away
        assert dominates([math.exp(4.0), math.exp(0.25)],
                         [math.exp(2.0), math.exp(0.5)])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            permutohedron_certificate([1.0], [1.0, 0.0])
        with pytest.raises(LengthMismatch):
            kostant_compare([1.0], [1.0, 1.0])

    def test_exact_ties(self):
        assert members([F(1), F(0), F(-1)], [F(1), F(0), F(-1)])
        gap = F(1, 10 ** 12)
        result = permutohedron_certificate([F(1), F(0), F(-1)],
                                           [F(1), gap, F(-1) - gap])
        assert isinstance(result, SeparatingFunctional)
        assert result.k == 2 and result.margin == gap


class TestMajorizeMultiplicative:
    def test_log_dominance(self):
        assert dominates([4.0, 1.0, 0.25], [2.0, 1.0, 0.5])

    def test_reflexive(self):
        assert dominates([3.0, 1.0], [3.0, 1.0])

    def test_prefix_product_violation(self):
        # prefix products: 4 >= 3 but 2 < 3
        assert not dominates([4.0, 0.5, 0.5], [3.0, 1.0, 1 / 3])

    def test_exact_path(self):
        assert dominates([F(4), F(1), F(1, 4)], [F(2), F(1), F(1, 2)])
        assert not dominates([F(4), F(1, 2), F(1, 2)], [F(3), F(1), F(1, 3)])

    def test_implies_weak_additive(self, rng):
        # log-majorization of positive vectors implies weak majorization
        for _ in range(100):
            n = int(rng.integers(2, 7))
            x, y = dominated_moduli_pair(rng, n)
            assert dominates(x, y)
            xs, ys = sorted(x.values, reverse=True), sorted(y.values, reverse=True)
            tol = 1e-10 * (sum(xs) + sum(ys))
            for k in range(1, n + 1):
                assert sum(xs[:k]) >= sum(ys[:k]) - tol


class TestKostantCompare:
    def test_geq_example(self):
        v = kostant_compare([F(4), F(1), F(1, 4)], [F(2), F(1), F(1, 2)])
        assert v.relation == GEQ and v.failing_level is None

    def test_equal(self):
        v = kostant_compare([2.0, 1.0, 0.5], [2.0, 1.0, 0.5])
        assert v.relation == EQUAL

    def test_incomparable_with_level(self):
        v = kostant_compare([F(4), F(1, 2), F(1, 2)], [F(3), F(1), F(1, 3)])
        assert v.relation == INCOMPARABLE and v.failing_level == 2

    def test_leq_direction(self):
        v = kostant_compare([F(2), F(1), F(1, 2)], [F(4), F(1), F(1, 4)])
        assert v.relation == LEQ and v.failing_level == 1

    def test_normalizes_internally(self):
        # same data scaled by 10: order is scale-invariant
        v = kostant_compare([40.0, 10.0, 2.5], [2.0, 1.0, 0.5])
        assert v.relation == GEQ

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 12),
           *[st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)] * 2)
    @example(3, 1.9999999999999998, 1.0)
    @example(8, 1e-300, 1.0)
    @example(7, 7.3e12, 1.0)
    def test_scalar_vectors_are_equal(self, n, c, d):
        # c (1, ..., 1) centers to the rounding of its mean alone
        x, y = [c] * n, [d] * n
        assert kostant_compare(x, y).relation == EQUAL
        assert kostant_compare(y, x).relation == EQUAL
        with pytest.raises(OrderHolds):
            find_separating_character(x, y)

    def test_agrees_with_ext_radius_test(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 7))
            if rng.uniform() < 0.5:
                x, y = dominated_moduli_pair(rng, n)
            else:
                x = random_sl_moduli(rng, n)
                y = random_sl_moduli(rng, n)
            verdict = kostant_compare(x, y)
            radii_geq = all(
                spectral_radius_rep(Ext(k), x)
                >= spectral_radius_rep(Ext(k), y) * (1 - 1e-9)
                for k in range(1, n + 1))
            assert (verdict.relation in (GEQ, EQUAL)) == radii_geq

    def test_agrees_with_hull_oracle(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 5))
            x_logs = rational_zero_sum_logs(rng, n)
            if rng.uniform() < 0.5:
                y_logs = sorted(mixed_logs(rng, x_logs), reverse=True)
            else:
                y_logs = rational_zero_sum_logs(rng, n)
            x = ModuliVector.from_values([math.exp(v) for v in x_logs])
            y = ModuliVector.from_values([math.exp(v) for v in y_logs])
            verdict = kostant_compare(x, y)
            member = hull_member_oracle(x_logs, y_logs)
            assert (verdict.relation in (GEQ, EQUAL)) == member


class TestPrefixDominanceAgreement:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 6).flatmap(lambda n: st.tuples(
        *[st.lists(st.integers(-6, 6), min_size=n - 1, max_size=n - 1)] * 2)))
    def test_three_deciders_agree_on_zero_sum_rationals(self, pair):
        # zero-sum rational logs e/4; moduli 2^e carry the same order
        ex, ey = ([*v, -sum(v)] for v in pair)
        xl, yl = ([F(e, 4) for e in v] for v in (ex, ey))
        x, y = ([F(2) ** e for e in v] for v in (ex, ey))
        verdict = kostant_compare(x, y)
        cert = permutohedron_certificate(xl, yl)
        member = verdict.relation in (GEQ, EQUAL)
        radii_geq = all(spectral_radius_rep(Ext(k), x) >= spectral_radius_rep(Ext(k), y)
                        for k in range(1, len(x)))
        assert radii_geq == member
        assert isinstance(cert, TTransformCertificate) == member
        if not member:
            assert cert.k == verdict.failing_level


class TestPermutohedronCertificate:
    def test_trivial_empty(self):
        cert = permutohedron_certificate([1.0, -1.0], [1.0, -1.0])
        assert isinstance(cert, TTransformCertificate) and cert.steps == ()

    def test_two_point_chain(self):
        cert = permutohedron_certificate([F(1), F(0), F(-1)],
                                         [F(1, 2), F(0), F(-1, 2)])
        assert isinstance(cert, TTransformCertificate)
        assert len(cert.steps) <= 2
        assert verify_certificate(cert) == 0
        replayed = apply_t_transforms(cert.start.values, cert.steps)
        assert replayed == [F(1, 2), F(0), F(-1, 2)]

    def test_separating_functional(self):
        result = permutohedron_certificate([F(2), F(0), F(-2)],
                                           [F(3, 2), F(3, 2), F(-3)])
        assert isinstance(result, SeparatingFunctional)
        assert result.k == 2 and result.margin == 1
        assert verify_functional(result, [F(2), F(0), F(-2)],
                                 [F(3, 2), F(3, 2), F(-3)])

    def test_sum_mismatch(self):
        with pytest.raises(SumMismatch):
            permutohedron_certificate([1.0, 0.0], [2.0, 0.0])

    def test_chain_soundness_random(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 8))
            logs = sorted(rng.normal(size=n) - rng.normal(size=n).mean(),
                          reverse=True)
            target = mixed_logs(rng, [float(v) for v in logs])
            target = sorted((float(v) for v in target), reverse=True)
            cert = permutohedron_certificate(list(logs), target)
            assert isinstance(cert, TTransformCertificate)
            assert len(cert.steps) <= n - 1
            assert verify_certificate(cert) <= 1e-12

    def test_functional_soundness_random(self, rng):
        found = 0
        while found < 20:
            n = int(rng.integers(2, 5))
            x_logs = rational_zero_sum_logs(rng, n)
            y_logs = rational_zero_sum_logs(rng, n)
            result = permutohedron_certificate(x_logs, y_logs)
            if isinstance(result, SeparatingFunctional):
                assert result.margin > 0
                assert verify_functional(result, x_logs, y_logs)
                found += 1


class TestSeparatingSymPower:
    def test_paper_bound_anchor(self):
        # ratio 2, two variables: 2^6 = 64 = 8^2 fails, 2^7 = 128 > 81
        m_min, m_paper = separating_sym_power([F(2), F(1, 2)], [F(1), F(1)])
        assert m_paper == 7

    def test_h1_separates_immediately(self):
        m_min, m_paper = separating_sym_power([F(2), F(1, 2)],
                                              [F(3, 2), F(2, 3)])
        assert m_min == 1
        assert complete_homogeneous(1, [F(2), F(1, 2)]) == F(5, 2) > F(13, 6)

    def test_equal_radii_not_separable(self):
        with pytest.raises(NotSeparable):
            separating_sym_power([F(2), F(1, 2)], [F(2), F(1, 2)])

    def test_min_below_paper_bound(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 5))
            c = ModuliVector.from_values(np.exp(rng.normal(size=n)) + 0.5)
            d = ModuliVector.from_values(
                c.as_floats()[0] / np.random.default_rng(int(rng.integers(1 << 30))).uniform(1.3, 3.0)
                * np.exp(-np.abs(rng.normal(size=n))))
            m_min, m_paper = separating_sym_power(c, d)
            assert 1 <= m_min <= m_paper
            # verified separation at m_min
            hc = complete_homogeneous(m_min, c)
            hd = complete_homogeneous(m_min, d)
            assert hc > hd

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(
        *[st.lists(st.fractions(F(1, 4), F(4), max_denominator=6),
                   min_size=n, max_size=n)] * 2)))
    # h_1 differs inside the float tie band: settled exactly
    @example(([F(2), F(1, 2) + F(1, 10 ** 12)], [F(3, 2), F(1)]))
    def test_least_degree_on_exact_inputs(self, pair):
        c, d = (ModuliVector.from_values(v) for v in pair)
        limit = 10
        separates = [m for m in range(1, limit + 1)
                     if brute_force_h(m, c.values) > brute_force_h(m, d.values)]
        try:
            m_min, _ = separating_sym_power(c, d, m_limit=limit)
        except NotSeparable:
            # radii that do not separate, or no degree up to the limit
            assert c.values[0] <= d.values[0] or not separates
            return
        assert m_min == separates[0]

    @settings(max_examples=80, deadline=None)
    @given(st.fractions(F(21, 20), F(8), max_denominator=40),
           st.fractions(F(1, 4), F(4), max_denominator=12), st.integers(1, 4))
    # (c/d)^m = (m+n)^n exactly at m = 6 and m = 2: the float gap is 0
    @example(F(2), F(1), 2)
    @example(F(4), F(3, 7), 2)
    # the float gap has the wrong sign at the boundary (m = 6, m = 2):
    # only the exact comparison inside the rounding band gets these right
    @example(F(2) + F(3, 10 ** 16), F(1), 2)
    @example(F(4) - F(1, 10 ** 18), F(5, 3), 2)
    def test_paper_degree_matches_exact_scan(self, ratio, d, n):
        p, q = ratio.numerator, ratio.denominator
        m = 1
        while not p ** m > (m + n) ** n * q ** m:
            m += 1
        assert _least_paper_degree(ratio * d, d, n) == m

    def test_ratio_near_one_returns_promptly(self):
        # The paper degree is ~6.4e13 here; it must come from the float
        # band, not from exact powers of that size.
        code = (
            "from fractions import Fraction as F\n"
            "from kostant import NotSeparable, separating_sym_power\n"
            "print(*separating_sym_power([1 + F(1, 10**12), 1], [1, 1],"
            " m_limit=10))\n"
            "try:\n"
            "    separating_sym_power([1 + F(1, 10**12), 1 - F(2, 10**12)],"
            " [1, 1], m_limit=10)\n"
            "except NotSeparable:\n"
            "    print('NotSeparable')\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            sys.modules["kostant"].__file__)))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, timeout=30,
                             capture_output=True, text=True, check=True).stdout
        first, second = out.splitlines()
        m_min, m_paper = map(int, first.split())
        assert m_min == 1  # h_1 = 2 + 1e-12 > 2, settled exactly
        assert second == "NotSeparable"
        assert m_paper > PAPER_EXACT_LIMIT

        def gap(m):  # m log(c/d) - n log(m + n) to 60 digits
            with localcontext() as ctx:
                ctx.prec = 60
                return (m * (1 + Decimal(1) / 10 ** 12).ln()
                        - 2 * Decimal(m + 2).ln())

        assert gap(m_paper) > 0 and gap(m_paper - 1) <= 0

    def test_paper_chain_holds_at_bound(self):
        c_vec = ModuliVector.from_values([F(3), F(1, 3)])
        d_vec = ModuliVector.from_values([F(3, 2), F(2, 3)])
        m_min, m_paper = separating_sym_power(c_vec, d_vec)
        n = 2
        c, d = F(3), F(3, 2)
        assert (c / d) ** m_paper > (m_paper + n) ** n
        assert c ** m_paper > (m_paper + n) ** n * d ** m_paper
        assert (m_paper + n) ** n * d ** m_paper > \
            math.comb(m_paper + n - 1, n - 1) * d ** m_paper

    def test_paper_degree_is_checked(self, monkeypatch):
        # m_min = 1: h_1 = 1.1 + 1/1.1 > 2. A paper degree of 1 would
        # claim 1.1 > binom(2, 1) = 2, and the chain refutes that.
        monkeypatch.setattr(order, "_least_paper_degree", lambda *args: 1)
        with pytest.raises(AssertionError):
            separating_sym_power([F(11, 10), F(10, 11)], [F(1), F(1)])

    def test_tie_in_the_chain_is_settled_by_evaluation(self, monkeypatch):
        # 2^1 = binom(2, 1) * 1^1: the chain cannot decide at m = 1
        monkeypatch.setattr(order, "_least_paper_degree", lambda *args: 1)
        calls = []
        h_cmp = order._h_cmp
        monkeypatch.setattr(order, "_h_cmp",
                            lambda m, cv, dv: calls.append(m) or h_cmp(m, cv, dv))
        assert separating_sym_power([F(2), F(1, 2)], [F(1), F(1)]) == (1, 1)
        assert calls == [1]
        monkeypatch.setattr(order, "_h_cmp", lambda m, cv, dv: 0)
        with pytest.raises(AssertionError):
            separating_sym_power([F(2), F(1, 2)], [F(1), F(1)])


class TestFindSeparatingCharacter:
    def test_worked_example(self):
        w = find_separating_character([F(4), F(1, 2), F(1, 2)],
                                      [F(3), F(1), F(1, 3)])
        assert w.k == 2 and w.m == 1
        assert w.spec == Compose(Sym(1), Ext(2))
        assert w.chi_1 == F(17, 4) and w.chi_2 == F(13, 3)
        assert w.chi_1 < w.chi_2
        assert w.m <= w.paper_bound_m

    def test_first_level_failure_gives_natural_rep(self):
        w = find_separating_character([F(2), F(1), F(1, 2)],
                                      [F(4), F(1), F(1, 4)])
        assert w.k == 1
        assert w.spec == Compose(Sym(w.m), Ext(1))
        assert w.chi_1 < w.chi_2

    def test_characters_past_float_range(self):
        # separated at k=1, m=235; h_235 of either side overflows a float
        x = [math.exp(v) for v in (3.5, 3.4, -6.9)]
        y = [math.exp(v) for v in (3.51, -1.75, -1.76)]
        w = find_separating_character(x, y)
        assert (w.k, w.m, w.dimension) == (1, 235, 27966)
        assert isinstance(w.chi_1, LogValue) and isinstance(w.chi_2, LogValue)
        assert w.chi_1 < w.chi_2
        assert math.isclose(w.chi_1.log, complete_homogeneous_log(235, x))
        assert math.isclose(w.chi_2.log, complete_homogeneous_log(235, y))

    def test_dominating_pair_raises(self):
        with pytest.raises(OrderHolds):
            find_separating_character([F(4), F(1), F(1, 4)],
                                      [F(2), F(1), F(1, 2)])

    def test_witness_validity_random(self, rng):
        found = 0
        while found < 40:
            n = int(rng.integers(2, 7))
            x = random_sl_moduli(rng, n)
            y = random_sl_moduli(rng, n)
            if kostant_compare(x, y).relation in (GEQ, EQUAL):
                continue
            w = find_separating_character(x, y)
            assert float(w.chi_1) < float(w.chi_2)
            assert w.m <= w.paper_bound_m
            assert w.dimension <= 10 ** 6
            # independent re-evaluation through the public character API
            chi_1 = abs_character(w.spec, x, cap=None)
            chi_2 = abs_character(w.spec, y, cap=None)
            assert float(chi_1) < float(chi_2)
            found += 1


def test_schur_monotone_on_dominated_pairs(rng):
    shapes = [(1,), (2,), (2, 1), (3, 1), (2, 2), (4, 2), (3, 2, 1)]
    for _ in range(40):
        n = int(rng.integers(2, 6))
        x, y = dominated_moduli_pair(rng, n)
        for shape in shapes:
            if len(shape) > n:
                continue
            sx, sy = schur(shape, x), schur(shape, y)
            scale = max(abs(sx), abs(sy), 1.0)
            if sx - sy < -1e-10 * scale:
                raise AssertionError(f"monotonicity failed for {shape}")
            if abs(sx - sy) <= 1e-10 * scale:
                # resolve the tie exactly on the float rationals, in
                # the scale-invariant form s(x)^n P(y)^w >= s(y)^n P(x)^w
                # (the float products P are 1 only up to rounding)
                xf = ModuliVector.from_values(x.as_fractions())
                yf = ModuliVector.from_values(y.as_fractions())
                w = sum(shape)
                assert schur(shape, xf) ** n * yf.product() ** w >= \
                    schur(shape, yf) ** n * xf.product() ** w


def test_direct_sum_top_k_identity(rng):
    x = random_sl_moduli(rng, 4)
    from kostant import DirectSum, rep_moduli
    for k in (2, 3):
        spec = Sym(2)
        stacked = DirectSum((spec,) * k)
        moduli = rep_moduli(stacked, x).as_floats()
        top_k_sum = sum(moduli[:k])
        top_one = rep_moduli(spec, x).as_floats()[0]
        assert top_k_sum == k * top_one
