"""Tests for the order, its certificates, and witness search."""

import math
import os
import random
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
    DimensionCap,
    Ext,
    LengthMismatch,
    LogValue,
    ModuliVector,
    NotSeparable,
    OrderHolds,
    ParseError,
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
    rep_moduli,
    schur,
    separating_sym_power,
    spectral_radius_rep,
    verify_certificate,
)
from kostant import cli, order, symchar
from kostant.order import (
    MAX_SYM_DEGREE,
    PAPER_EXACT_LIMIT,
    _degree_budget,
    _h_sign,
    _least_paper_degree,
    _LogRatio,
)

from conftest import (
    brute_force_h,
    dominated_moduli_pair,
    exact_sl_moduli,
    hull_member_oracle,
    mixed_logs,
    normalized_prefix_oracle,
    paper_degree_by_search,
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


def _transfer(values, i, j, t):
    """A rational T-transform of sorted moduli: v_i / r and v_j * r for
    i < j, with 1 <= r <= 2 R / (R + 1) <= sqrt(R), R = v_i / v_j, so both
    stay within [v_j, v_i]. Prefix products below level i + 1 and from
    level j + 1 on keep their values: those levels stay tied."""
    ratio = values[i] / values[j]
    r = 1 + t * (ratio - 1) / (ratio + 1)
    out = list(values)
    out[i], out[j] = out[i] / r, out[j] * r
    return out


SCALES = (F(3, 7), F(10 ** 300, 7), F(10 ** 400, 3), F(3, 10 ** 400))


@st.composite
def planted_tie_pairs(draw):
    """Rational moduli (x, y), n = 2-9, with ties planted at each level:
    y starts as a permutation of x (every level tied) or as an independent
    draw, then takes rational T-transforms, relative perturbations down to
    1e-20 and common rational scalings, some past float range."""
    n = draw(st.integers(2, 9))
    moduli = st.fractions(F(1, 40), F(40), max_denominator=40)
    x = draw(st.lists(moduli, min_size=n, max_size=n))
    y = draw(st.one_of(st.permutations(x), st.lists(moduli, min_size=n, max_size=n)))
    ops = st.sampled_from(("transfer", "perturb", "scale x", "scale y"))
    for op in draw(st.lists(ops, max_size=5)):
        y.sort(reverse=True)
        if op == "transfer":
            i, j = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                        unique=True)))
            y = _transfer(y, i, j, draw(st.fractions(0, 1, max_denominator=16)))
        elif op == "perturb":
            delta = F(draw(st.sampled_from((1, -1))), 10 ** draw(st.integers(1, 20)))
            y[draw(st.integers(0, n - 1))] *= 1 + delta
        else:
            c = draw(st.one_of(st.sampled_from(SCALES),
                               st.fractions(F(1, 1000), F(1000))))
            if op == "scale x":
                x = [v * c for v in x]
            else:
                y = [v * c for v in y]
    return x, y


@pytest.mark.parametrize("delta", [1e-6, 1e-8])
def test_float_differences_past_the_tie_band_are_decided(delta):
    # the float tie band is REL_SLACK = 1e-10 of the log scale; a level-1
    # difference 100 times wider is decided
    a = 2 * (1 + delta)
    verdict = kostant_compare([2.0, 0.5], [a, 1 / a])
    assert (verdict.relation, verdict.failing_level) == (LEQ, 1)


class TestExactPrefixFilter:
    """kostant_compare on rational moduli: the float filter and the integer
    comparisons behind it against the Fraction oracle."""

    @settings(max_examples=400, deadline=None)
    @given(planted_tie_pairs())
    # a common scaling: every level ties, and the float differences are
    # rounding (caught by a band that is too thin)
    @example(([F(2), F(1, 2)], [F(6), F(3, 2)]))
    @example(([F(5), F(3, 2), F(2, 15)], [F(15), F(9, 2), F(2, 5)]))
    # a tie at level 2 of 3 behind a transfer, with denominators
    @example(([F(7, 3), F(5, 2), F(1, 6)], [F(145, 59), F(413, 174), F(1, 6)]))
    # a perturbation of 1e-20 behind a common scaling past float range
    @example(([F(10 ** 400, 3), F(1, 3)],
              [F(10 ** 400, 3) * (1 + F(1, 10 ** 20)), F(1, 3)]))
    def test_levels_match_fraction_oracle(self, pair):
        x, y = pair
        signs = normalized_prefix_oracle(x, y)
        xv, yv = ModuliVector.from_values(x), ModuliVector.from_values(y)
        assert order._normalized_prefix_comparisons(xv, yv) == signs
        geq, leq = min(signs) >= 0, max(signs) <= 0
        relation = (EQUAL if geq and leq else GEQ if geq
                    else LEQ if leq else INCOMPARABLE)
        assert kostant_compare(x, y).relation == relation

    # n <= 7: the oracle checks a functional on all n! vertices
    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 7), st.integers(1, 12), st.integers(1, 12),
           st.integers(0, 2 ** 32 - 1), st.booleans())
    def test_exact_chain_replays_to_end(self, n, den_x, den_y, seed, member):
        rng = np.random.default_rng(seed)
        x = rational_zero_sum_logs(rng, n, denominator=den_x)
        y = mixed_logs(rng, x) if member else rational_zero_sum_logs(
            rng, n, denominator=den_y)
        cert = permutohedron_certificate(x, y)
        if isinstance(cert, TTransformCertificate):
            assert len(cert.steps) <= n - 1
            weights = [t for _, _, t in cert.steps]
            assert all(isinstance(t, Fraction) and 0 <= t <= 1 for t in weights)
            replayed = apply_t_transforms(cert.start.values, cert.steps)
            assert replayed == list(cert.end.values)
        else:
            assert not member
        assert isinstance(cert, TTransformCertificate) == hull_member_oracle(x, y)


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

    @pytest.mark.parametrize("exact", [False, True])
    def test_moduli_pair_reads_the_order_verdict(self, exact):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n = int(rng.integers(2, 7))
            x, y = (exact_sl_moduli(rng, n) if exact else random_sl_moduli(rng, n)
                    for _ in range(2))
            verdict = kostant_compare(x, y)
            result = permutohedron_certificate(x, y)
            if verdict.relation in (GEQ, EQUAL):
                assert isinstance(result, TTransformCertificate)
                assert len(result.steps) <= n - 1
                assert verify_certificate(result) <= 1e-12
                assert result.end.values == tuple(sorted(y.log_values(), reverse=True))
                continue
            k = verdict.failing_level
            assert result.k == k
            ratio = math.prod(y.values[:k]) / math.prod(x.values[:k])
            assert result.margin > 0
            assert math.isclose(result.margin, math.log(ratio), rel_tol=1e-12)
            if not exact:  # floats: the answer on moduli is the answer on centered logs
                cx, cy, _ = order._centered_logs(x.log_values(), y.log_values())
                assert result == permutohedron_certificate(cx, cy)

    def test_moduli_pair_past_float_range(self):
        big = F(10 ** 400, 3)
        x, y = ModuliVector.from_values([F(2), F(1, 2)]), ModuliVector.from_values([big, 1 / big])
        functional = permutohedron_certificate(x, y)
        assert functional.k == 1
        assert math.isclose(functional.margin, 400 * math.log(10) - math.log(6))
        chain = permutohedron_certificate(y, x)
        assert isinstance(chain, TTransformCertificate)
        assert chain.start.values == y.log_values()
        assert verify_certificate(chain) <= 1e-12 * 920

    def test_moduli_pair_total_is_exact(self):
        # the float logs of these totals agree; the rational products do not
        x = ModuliVector.from_values([F(2), F(1, 2)])
        y = ModuliVector.from_values([F(2), F(1, 2) + F(1, 10 ** 20)])
        with pytest.raises(SumMismatch):
            permutohedron_certificate(x, y)
        with pytest.raises(LengthMismatch):
            permutohedron_certificate(x, ModuliVector.from_values([F(1)] * 3))

    @pytest.mark.parametrize("moduli_first", [True, False])
    def test_moduli_against_a_log_list_is_an_input_error(self, moduli_first):
        pair = [ModuliVector.from_values([2.0, 0.5]), [1.0, -1.0]]
        if not moduli_first:
            pair.reverse()
        with pytest.raises(ParseError) as info:
            permutohedron_certificate(*pair)
        assert issubclass(info.type, cli.INPUT_ERRORS)  # exit code 2
        names = ("ModuliVector", "list") if moduli_first else ("list", "ModuliVector")
        assert "got {} and {}".format(*names) in str(info.value)


def pinned_chain_pairs():
    """Seeded log-vector pairs (tag, x, y), n = 2..9, with rational and
    float entries: a member of the permutation hull of x, y made from x by
    T-transforms, and a non-member, y made from x by a transfer outward."""
    rng = random.Random(20240)
    for n in range(2, 10):
        for kind in ("exact", "float"):
            if kind == "exact":
                x = [Fraction(rng.randint(-40, 40), rng.randint(1, 6)) for _ in range(n)]
            else:
                x = [round(rng.uniform(-4.0, 4.0), 3) for _ in range(n)]
            x.sort(reverse=True)
            y = list(x)
            for _ in range(n):
                i, j = sorted(rng.sample(range(n), 2))
                t = Fraction(rng.randint(0, 8), 8) if kind == "exact" else rng.random()
                y[i], y[j] = t * y[i] + (1 - t) * y[j], (1 - t) * y[i] + t * y[j]
            yield f"{kind}-member-n{n}", x, sorted(y, reverse=True)
            i, j = sorted(rng.sample(range(n), 2))
            d = (Fraction(rng.randint(1, 9), 4) if kind == "exact"
                 else round(rng.uniform(0.1, 2.0), 3))
            y = list(x)
            y[i], y[j] = y[i] + d, y[j] - d
            yield f"{kind}-nonmember-n{n}", x, sorted(y, reverse=True)


# repr(permutohedron_certificate(x, y)) on pinned_chain_pairs: the steps and
# weights of the integer and the float chain, pinned bit for bit
PINNED_CHAINS = {
    "exact-member-n2": (
        "TTransformCertificate(steps=((0, 1, Fraction(7, 8)),), "
        "start=LogVector(values=(Fraction(10, 1), Fraction(20, 3))), "
        "end=LogVector(values=(Fraction(115, 12), Fraction(85, 12))))"),
    "exact-nonmember-n2": (
        "SeparatingFunctional(k=1, margin=Fraction(9, 4), hull_max=Fraction(10,"
        " 1), value_at_y=Fraction(49, 4))"),
    "float-member-n2": (
        "TTransformCertificate(steps=((0, 1, 0.5612222030439298),), "
        "start=LogVector(values=(3.086, -2.18)), "
        "end=LogVector(values=(0.7753961212293335, 0.13060387877066593)))"),
    "float-nonmember-n2": (
        "SeparatingFunctional(k=1, margin=0.41000000000000014, hull_max=3.086, "
        "value_at_y=3.496)"),
    "exact-member-n3": (
        "TTransformCertificate(steps=((1, 2, Fraction(2995, 3072)), (0, 2, "
        "Fraction(4027, 5747))), start=LogVector(values=(Fraction(29, 3), "
        "Fraction(34, 5), Fraction(18, 5))), end=LogVector(values=(Fraction(63,"
        " 8), Fraction(6451, 960), Fraction(1751, 320))))"),
    "exact-nonmember-n3": (
        "SeparatingFunctional(k=1, margin=Fraction(1, 4), hull_max=Fraction(29,"
        " 3), value_at_y=Fraction(119, 12))"),
    "float-member-n3": (
        "TTransformCertificate(steps=((1, 2, 0.6226698327763454), (0, 2, "
        "0.688835941356804)), start=LogVector(values=(3.823, 3.607, 0.022)), "
        "end=LogVector(values=(3.061185949917566, 2.254271350503198, "
        "2.136542699579236)))"),
    "float-nonmember-n3": (
        "SeparatingFunctional(k=1, margin=0.8850000000000002, hull_max=3.823, "
        "value_at_y=4.708)"),
    "exact-member-n4": (
        "TTransformCertificate(steps=((1, 2, Fraction(26613, 28160)), (1, 3, "
        "Fraction(27173, 50677))), start=LogVector(values=(Fraction(16, 1), "
        "Fraction(12, 1), Fraction(-19, 3), Fraction(-22, 1))), "
        "end=LogVector(values=(Fraction(16, 1), Fraction(-6619, 1536), "
        "Fraction(-2727, 512), Fraction(-643, 96))))"),
    "exact-nonmember-n4": (
        "SeparatingFunctional(k=3, margin=Fraction(7, 4), hull_max=Fraction(65,"
        " 3), value_at_y=Fraction(281, 12))"),
    "float-member-n4": (
        "TTransformCertificate(steps=((1, 2, 0.8074122839566156), (0, 2, "
        "0.8377436015173642), (0, 3, 0.8558855408381913)), "
        "start=LogVector(values=(1.921, 0.33, -1.078, -1.128)), "
        "end=LogVector(values=(1.1027724344686973, 0.05883649581091476, "
        "-0.36422757035114217, -0.7523813599284699)))"),
    "float-nonmember-n4": (
        "SeparatingFunctional(k=3, margin=1.0519999999999998, "
        "hull_max=1.1729999999999998, value_at_y=2.2249999999999996)"),
    "exact-member-n5": (
        "TTransformCertificate(steps=((0, 1, Fraction(9101, 9280)), (0, 2, "
        "Fraction(8961, 10189)), (0, 3, Fraction(7733, 10033)), (0, 4, "
        "Fraction(7733, 9605))), start=LogVector(values=(Fraction(37, 1), "
        "Fraction(8, 1), Fraction(23, 5), Fraction(5, 4), Fraction(-23, 5))), "
        "end=LogVector(values=(Fraction(6261, 320), Fraction(2739, 320), "
        "Fraction(135, 16), Fraction(135, 16), Fraction(5, 4))))"),
    "exact-nonmember-n5": (
        "SeparatingFunctional(k=2, margin=Fraction(3, 4), hull_max=Fraction(45,"
        " 1), value_at_y=Fraction(183, 4))"),
    "float-member-n5": (
        "TTransformCertificate(steps=((3, 4, 0.5449052069274631), (1, 2, "
        "0.9503974674038059), (0, 2, 0.6754109988266315), (0, 4, "
        "0.9521262031172348)), start=LogVector(values=(3.611, 2.292, -0.057, "
        "-0.209, -3.598)), end=LogVector(values=(2.242129400390668, "
        "2.17548365093154, 1.2122888800078766, -1.7513162537228275, "
        "-1.8395856776072572)))"),
    "float-nonmember-n5": (
        "SeparatingFunctional(k=1, margin=1.916, hull_max=3.611, "
        "value_at_y=5.527)"),
    "exact-member-n6": (
        "TTransformCertificate(steps=((4, 5, Fraction(3715, 4608)), (1, 2, "
        "Fraction(195, 256)), (1, 3, Fraction(2819, 2950)), (1, 5, "
        "Fraction(22601, 22933)), (0, 5, Fraction(26493, 27197))), "
        "start=LogVector(values=(Fraction(13, 2), Fraction(3, 1), Fraction(1, "
        "1), Fraction(-9, 1), Fraction(-19, 2), Fraction(-23, 1))), "
        "end=LogVector(values=(Fraction(93, 16), Fraction(27, 16), "
        "Fraction(189, 128), Fraction(-2173, 256), Fraction(-12407, 1024), "
        "Fraction(-19837, 1024))))"),
    "exact-nonmember-n6": (
        "SeparatingFunctional(k=1, margin=Fraction(5, 4), hull_max=Fraction(13,"
        " 2), value_at_y=Fraction(31, 4))"),
    "float-member-n6": (
        "TTransformCertificate(steps=((1, 2, 0.667852588776858), (1, 3, "
        "0.8014705069486032), (0, 3, 0.9552441927931739), (0, 4, "
        "0.7960554734959719), (0, 5, 0.7146461417951266)), "
        "start=LogVector(values=(3.457, 0.663, -0.639, -1.852, -3.156, "
        "-3.762)), end=LogVector(values=(0.30854977726026384, "
        "-0.18290234800345334, -0.2065440705874693, -1.2194491291488454, "
        "-1.852, -2.136654229520497)))"),
    "float-nonmember-n6": (
        "SeparatingFunctional(k=1, margin=1.3999999999999995, hull_max=3.457, "
        "value_at_y=4.856999999999999)"),
    "exact-member-n7": (
        "TTransformCertificate(steps=((5, 6, Fraction(286163, 286720)), (4, 6, "
        "Fraction(292819, 294355)), (1, 2, Fraction(638709, 1114112)), (0, 2, "
        "Fraction(1734912, 1883893)), (0, 6, Fraction(4509003, 5994659))), "
        "start=LogVector(values=(Fraction(32, 3), Fraction(15, 2), Fraction(14,"
        " 3), Fraction(2, 1), Fraction(1, 1), Fraction(5, 6), Fraction(-5, "
        "1))), end=LogVector(values=(Fraction(2559667, 393216), "
        "Fraction(2473717, 393216), Fraction(9607, 1536), Fraction(2, 1), "
        "Fraction(31, 32), Fraction(40403, 49152), Fraction(-2415, 2048))))"),
    "exact-nonmember-n7": (
        "SeparatingFunctional(k=3, margin=Fraction(1, 4), "
        "hull_max=Fraction(137, 6), value_at_y=Fraction(277, 12))"),
    "float-member-n7": (
        "TTransformCertificate(steps=((3, 4, 0.5123995182696115), (3, 5, "
        "0.9702946245915972), (2, 5, 0.6032380320899111), (1, 5, "
        "0.8606265178650777), (1, 6, 0.8447294932279046), (0, 6, "
        "0.7158411321284266)), start=LogVector(values=(3.668, 2.247, 1.397, "
        "0.953, -1.849, -2.719, -3.591)), "
        "end=LogVector(values=(1.8426307296806097, 0.953, -0.2088968524548472, "
        "-0.4817495245919517, -0.4827434501914512, -0.5858470011532115, "
        "-0.930393901289148)))"),
    "float-nonmember-n7": (
        "SeparatingFunctional(k=1, margin=0.44700000000000006, hull_max=3.668, "
        "value_at_y=4.115)"),
    "exact-member-n8": (
        "TTransformCertificate(steps=((4, 5, Fraction(6149, 8064)), (3, 5, "
        "Fraction(16184, 18821)), (1, 5, Fraction(10089, 10478)), (1, 6, "
        "Fraction(13633, 14171)), (0, 6, Fraction(3002, 3457)), (0, 7, "
        "Fraction(59, 77))), start=LogVector(values=(Fraction(27, 2), "
        "Fraction(13, 2), Fraction(7, 2), Fraction(-1, 5), Fraction(-7, 2), "
        "Fraction(-28, 5), Fraction(-26, 3), Fraction(-11, 1))), "
        "end=LogVector(values=(Fraction(179, 32), Fraction(1771, 320), "
        "Fraction(7, 2), Fraction(-227, 256), Fraction(-3071, 768), "
        "Fraction(-1283, 320), Fraction(-421, 80), Fraction(-95, 16))))"),
    "exact-nonmember-n8": (
        "SeparatingFunctional(k=2, margin=Fraction(2, 1), hull_max=Fraction(20,"
        " 1), value_at_y=Fraction(22, 1))"),
    "float-member-n8": (
        "TTransformCertificate(steps=((3, 4, 0.8582390530414372), (2, 4, "
        "0.6921518408488376), (2, 5, 0.6900449310333479), (1, 5, "
        "0.799295526811459), (1, 6, 0.7158696575070026), (0, 6, "
        "0.7307924037216844), (0, 7, 0.805235794353492)), "
        "start=LogVector(values=(3.501, 3.01, 2.963, 1.269, -0.44, -1.105, "
        "-2.19, -3.069)), end=LogVector(values=(1.269, 1.0791172439996386, "
        "1.03067175603619, 1.026730541647816, 0.7752945371713205, "
        "0.4876656359270579, 0.29027839853198445, -2.0197581133140075)))"),
    "float-nonmember-n8": (
        "SeparatingFunctional(k=1, margin=0.7559999999999998, hull_max=3.501, "
        "value_at_y=4.257)"),
    "exact-member-n9": (
        "TTransformCertificate(steps=((5, 8, Fraction(1065, 1168)), (3, 8, "
        "Fraction(87, 103)), (2, 8, Fraction(10187, 10888)), (0, 1, Fraction(5,"
        " 8)), (0, 8, Fraction(19488, 21155))), "
        "start=LogVector(values=(Fraction(40, 1), Fraction(27, 2), Fraction(3, "
        "2), Fraction(1, 3), Fraction(-21, 4), Fraction(-29, 3), Fraction(-13, "
        "1), Fraction(-16, 1), Fraction(-34, 1))), "
        "end=LogVector(values=(Fraction(9877, 384), Fraction(375, 16), "
        "Fraction(-125, 384), Fraction(-14, 3), Fraction(-21, 4), "
        "Fraction(-189, 16), Fraction(-13, 1), Fraction(-16, 1), Fraction(-331,"
        " 16))))"),
    "exact-nonmember-n9": (
        "SeparatingFunctional(k=3, margin=Fraction(1, 2), hull_max=Fraction(55,"
        " 1), value_at_y=Fraction(111, 2))"),
    "float-member-n9": (
        "TTransformCertificate(steps=((4, 5, 0.6640249350070415), (3, 5, "
        "0.8207747154315795), (3, 6, 0.8987263539668178), (2, 6, "
        "0.7924765465658923), (2, 7, 0.9262611963266336), (1, 7, "
        "0.6811946966769185), (1, 8, 0.8899374230084588), (0, 8, "
        "0.7022397368062085)), start=LogVector(values=(3.172, 3.0, 1.232, "
        "0.475, 0.133, -1.144, -1.388, -2.865, -3.907)), "
        "end=LogVector(values=(1.232, 0.650862410048091, 0.45838843915913763, "
        "0.09465502688754703, -0.29604015799600786, -0.5016889506958339, "
        "-0.7118862606337026, -0.8149819186068491, -1.403308588162382)))"),
    "float-nonmember-n9": (
        "SeparatingFunctional(k=4, margin=0.5040000000000004, "
        "hull_max=7.8790000000000004, value_at_y=8.383000000000001)"),
}


PINNED_PAIRS = {tag: (x, y) for tag, x, y in pinned_chain_pairs()}


@pytest.mark.parametrize("tag", PINNED_CHAINS)
def test_pinned_certificates(tag):
    x, y = PINNED_PAIRS[tag]
    assert repr(permutohedron_certificate(x, y)) == PINNED_CHAINS[tag]


NEAR_TIE_EPS = (0, 1e-16, 1e-14, 1e-12, 1e-11, 1e-10, 3e-10, 1e-9, 1e-6)


class TestNearTies:
    # order, certify and witness on pairs tied within eps at some levels:
    # one pair of coordinates of x scaled by 1 + eps and its inverse; float
    # x is also scaled by e^shift, a product far from 1
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(2, 8), st.booleans(), st.sampled_from(NEAR_TIE_EPS),
           st.sampled_from((1, -1)), st.sampled_from((0.0, 2.0, -50.0)),
           st.integers(0, 2 ** 32 - 1))
    def test_one_verdict_per_pair(self, n, rational, eps, sign, shift, seed):
        rng = np.random.default_rng(seed)
        x = exact_sl_moduli(rng, n) if rational else random_sl_moduli(rng, n)
        i, j = sorted(rng.choice(n, size=2, replace=False))
        f = 1 + sign * (F(str(eps)) if rational else eps)
        values = list(x.values) if rational else [v * math.exp(shift) for v in x.values]
        x = ModuliVector.from_values(values)
        values[i], values[j] = values[i] * f, values[j] / f
        y = ModuliVector.from_values(values)
        # a float chain stops once every level ties: twice the band of its
        # scale, at most 2 (sum |log|) for centered logs, plus the means' gap
        size = sum(map(abs, x.log_values())) + sum(map(abs, y.log_values()))
        bound = 5 * order.REL_SLACK * size + 4 * n * 2.0 ** -53
        for a, b in ((x, y), (y, x)):
            verdict = kostant_compare(a, b)
            member = verdict.relation in (GEQ, EQUAL)
            cert = permutohedron_certificate(a, b)
            assert isinstance(cert, TTransformCertificate) == member
            if member:
                assert verify_certificate(cert) <= bound
            else:
                assert cert.k == verdict.failing_level
                assert cert.margin > 0
            try:
                find_separating_character(a, b)
            except OrderHolds:
                assert member
            except DimensionCap:
                assert not member
            else:
                assert not member

    def test_product_far_from_one(self):
        # the totals tie inside their band but differ by 3.9e-8, past the
        # band of the centered logs: the level and its margin come from
        # those centered logs, not from the raw ones, on which it is -1e-8
        x = ModuliVector.from_values([math.exp(101), math.exp(99)])
        y = ModuliVector.from_values([math.exp(101 - 1e-8), math.exp(99 - 2.9e-8)])
        functional = permutohedron_certificate(x, y)
        assert functional.k == kostant_compare(x, y).failing_level == 1
        assert functional.margin == functional.value_at_y - functional.hull_max > 0
        # members whose uncentered logs tie in a narrower band than the
        # centered ones the order reads
        for n, eps in ((2, 5.9e-10), (3, 2.5e-10), (8, 3e-10)):
            x = ModuliVector.from_values([math.e] + [1.0] * (n - 1))
            y = ModuliVector.from_values(
                [math.e * (1 + eps)] + [1.0] * (n - 2) + [1 / (1 + eps)])
            for a, b in ((x, y), (y, x)):
                member = kostant_compare(a, b).relation in (GEQ, EQUAL)
                assert isinstance(permutohedron_certificate(a, b), TTransformCertificate) == member

    def test_totals_apart_inside_the_band(self):
        # the totals differ by 1e-12, a tie, so the last coordinate lies
        # above its target by that much, after the pair (0, 1) that the
        # chain needs: the scan must still find that pair
        x, y = [1.0, 0.0, -1.0], [0.9, 0.1, -1.0 - 1e-12]
        xm, ym = (ModuliVector.from_values([math.exp(v) for v in w]) for w in (x, y))
        assert kostant_compare(xm, ym).relation == GEQ
        for a, b in ((x, y), (xm, ym)):
            cert = permutohedron_certificate(a, b)
            assert [step[:2] for step in cert.steps] == [(0, 1)]
            assert verify_certificate(cert) < 2e-12


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

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 20), st.floats(-12, 3), st.floats(-5, 5),
           st.sampled_from(["float", "rational", "mixed"]))
    def test_paper_degree_matches_the_search(self, n, log10_gap, log_d, kind):
        # log(c/d) from 1e-12 to 1e3: the estimate and its check give the
        # degree that exponential and binary search give
        gap = 10.0 ** log10_gap
        c, d = math.exp(log_d + gap / 2), math.exp(log_d - gap / 2)
        if kind == "mixed":  # a Fraction against a float
            c = F(c)
        elif kind == "rational":
            d = F(math.exp(log_d)).limit_denominator(10 ** 6)
            c = d * (F(math.exp(gap / 8)) ** 8 if gap > 1 else
                     1 + F(math.expm1(gap)).limit_denominator(10 ** 15))
        assert c > d
        assert _least_paper_degree(c, d, n) == paper_degree_by_search(c, d, n)

    @pytest.mark.parametrize("k, j", [(3, 1), (4, 1), (5, 1), (10, 1), (12, 1),
                                      (3, 2), (7, 2), (9, 2)])
    def test_root_just_below_an_integer(self, k, j):
        # for c/d = ((j + 1) k)^j and n = j k the root of
        # m log(c/d) = n log(m + n) is k exactly; a ratio 1e-20 above that
        # moves it just below k, so k is the least proven degree, but the
        # estimate's floats land on k or past it, and only the check of
        # the degree below the estimate finds k
        n, c = j * k, F((j + 1) * k) ** j * (1 + F(1, 10 ** 20))
        with localcontext() as ctx:
            ctx.prec = 60
            gap = lambda m: m * (Decimal(c.numerator) / c.denominator).ln() \
                - n * (m + n).ln()
            assert gap(Decimal(k)) > 0 > gap(Decimal(k) - Decimal("1e-3"))
        assert _least_paper_degree(c, F(1), n) == paper_degree_by_search(c, F(1), n) == k

    @pytest.mark.parametrize("c, d", [
        (3.0, 2.0), (2.0 ** 600, 3.0), (1 + 2.0 ** -52, 1.0), (F(7, 3), F(2, 9)),
        (F(10 ** 400 + 1, 10 ** 400), F(1)), (2.5, F(1, 3)), (F(5, 2), 0.1),
        (F(3), 1e-300)])
    def test_log_ratio_fields_are_those_of_the_fraction_quotient(self, c, d):
        ratio = F(c) / F(d)
        if ratio < 2:
            log = math.log1p(float(ratio - 1))
            reference = _LogRatio(ratio, log, log)
        else:
            log_num, log_den = math.log(ratio.numerator), math.log(ratio.denominator)
            reference = _LogRatio(ratio, log_num - log_den, abs(log_num) + abs(log_den))
        assert repr(_LogRatio.of(c, d)) == repr(reference)

    @pytest.mark.parametrize("cap", [1, 10 ** 6, None])
    def test_degree_budget_is_the_largest_degree_under_the_cap(self, cap):
        for ext_dim in sorted({math.comb(n, k) for n in range(1, 9) for k in range(n + 1)}):
            budget = _degree_budget(ext_dim, cap)
            if cap is None:
                assert budget is None
                continue
            assert math.comb(budget + ext_dim - 1, ext_dim - 1) <= cap
            assert budget == MAX_SYM_DEGREE or \
                math.comb(budget + ext_dim, ext_dim - 1) > cap
            assert _degree_budget(ext_dim, cap) == budget

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

    def test_gap_of_six_ulps_is_undecided(self):
        # The band is PAPER_BAND_EPS = 8 ulps of 1 of the scale
        # m * magnitude + log_bound: a gap of 6 is inside it, one of 12
        # outside (each to within the rounding of log_bound).
        log_ratio = _LogRatio.of(F(2), F(1))  # log = magnitude = log 2
        for ulps, decided in ((6, 0), (12, 1)):
            for side in (1, -1):
                log_bound = log_ratio.log * (1 - side * ulps * 2.0 ** -51)
                gap = log_ratio.log - log_bound
                scale = log_ratio.magnitude + log_bound
                assert ulps - 0.5 < abs(gap) / scale / 2.0 ** -52 < ulps + 0.5
                assert log_ratio.sign(1, log_bound) == side * decided

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

    def test_tie_in_the_chain_fails_the_check(self, monkeypatch):
        # 2^1 = binom(2, 1) * 1^1: the chain cannot decide at m = 1. A proven
        # paper degree leaves the chain a gap of at least log(m + n), so a
        # tie there is an internal error, not a case to evaluate
        monkeypatch.setattr(order, "_least_paper_degree", lambda *args: 1)
        with pytest.raises(AssertionError, match="the paper degree failed to separate"):
            separating_sym_power([F(2), F(1, 2)], [F(1), F(1)])

    @pytest.mark.parametrize("c, d", [
        ([F(2), F(1, 2)], [F(2), F(1, 4)]),
        ([2.0, 0.5], [2.0, 0.25]),
        ([2.0, 0.5], [F(2), F(1, 4)]),  # a float and a Fraction compare exactly
        ([math.inf, 1.0], [2.0, 0.5]),  # no paper degree past float range
    ])
    def test_radii_that_do_not_separate_are_refused(self, c, d):
        with pytest.raises(NotSeparable, match="^spectral radii do not separate: c = "):
            separating_sym_power(c, d)

    def test_exact_scan_continues_one_pass_per_side(self, monkeypatch):
        # h_m differs inside the tie band at every degree up to 1334, where
        # the exact values decide; the scan continues one _h_exact pass per
        # side rather than starting one per in-band degree
        passes = []
        h_exact = symchar._h_exact
        monkeypatch.setattr(symchar, "_h_exact",
                            lambda a, m: passes.append(m) or h_exact(a, m))
        c, d = [2 + F(1, 10 ** 12), F(1, 2) - F(1, 10 ** 9)], [F(2), F(1, 2)]
        assert separating_sym_power(c, d, m_limit=20000) == (1334, 129994038841090)
        assert len(passes) <= 2


def test_float_tie_band_above_the_exact_degree_limit():
    # the logs lie 5e-13 apart, well inside the tie band; the exact values
    # of the float inputs decide up to EXACT_TIE_DEGREE_LIMIT = 2000, and
    # above it the band reads as a tie
    c = ModuliVector.from_values([2.0, 0.5])
    d = ModuliVector.from_values([2.0, 0.5 + 2.0 ** -40])
    for m, sign in ((2000, -1), (2001, 0)):
        log_c, log_d = complete_homogeneous_log(m, c), complete_homogeneous_log(m, d)
        assert abs(log_c - log_d) < 1e-12
        assert _h_sign(m, log_c, log_d, c, d) == sign


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

    @pytest.mark.parametrize("exact", [False, True])
    def test_characters_are_those_of_the_spec(self, exact):
        # chi1 and chi2 are the characters that `kostant char` reports for
        # the witness spec; past float range, the logs of those characters
        rng = np.random.default_rng(2026)
        pairs = [] if exact else [([math.exp(v) for v in (3.5, 3.4, -6.9)],
                                   [math.exp(v) for v in (3.51, -1.75, -1.76)])]
        while len(pairs) < 30:
            n = int(rng.integers(2, 6))
            x, y = (exact_sl_moduli(rng, n) if exact else random_sl_moduli(rng, n, 2.0)
                    for _ in range(2))
            if kostant_compare(x, y).relation not in (GEQ, EQUAL):
                pairs.append((x, y))
        for x, y in pairs:
            try:
                w = find_separating_character(x, y)
            except DimensionCap:
                continue
            for chi, v in ((w.chi_1, x), (w.chi_2, y)):
                if isinstance(chi, LogValue):
                    inner = rep_moduli(w.spec.inner, v, cap=None)
                    assert chi.log == complete_homogeneous_log(w.m, inner)
                else:
                    assert chi == abs_character(w.spec, v, cap=None)
                    assert isinstance(chi, Fraction) == exact
            assert w.chi_1 < w.chi_2

    @pytest.mark.parametrize("exact", [False, True])
    def test_one_evaluation_per_side_at_the_witness_degree(self, exact, monkeypatch):
        # the degree scan makes one _h_scan pass per side; the witness then
        # evaluates h_m once per side at m_min, _h_exact on rationals
        calls = {"_h_scan": [], "_h_exact": []}
        for name in calls:
            original = getattr(symchar, name)

            def counted(values, m, name=name, original=original):
                calls[name].append(m)
                return original(values, m)
            monkeypatch.setattr(symchar, name, counted)
        x, y = [F(4), F(1, 2), F(1, 2)], [F(3), F(1), F(1, 3)]
        if not exact:
            x, y = ModuliVector.from_values(map(float, x)), ModuliVector.from_values(map(float, y))
        w = find_separating_character(x, y)
        assert (w.k, w.m) == (2, 1)
        scans, evaluations = calls["_h_scan"][:2], calls["_h_scan"][2:] + calls["_h_exact"]
        assert len(scans) == 2 and evaluations == [w.m, w.m]

    def test_dimension_cap_names_each_skipped_level(self):
        # h_1 separates, but the float log of the radius ratio 1 + 10^-400
        # is 0, so the paper degree search finds no proven degree first
        a = 2 * (1 + F(1, 10 ** 400))
        x, y = [F(2), F(1, 2)], [a, 1 / a]
        advice = "use exact inputs and dim_cap=None"
        with pytest.raises(DimensionCap) as exc:
            find_separating_character(x, y, dim_cap=None)
        message = str(exc.value)
        assert "level 1: paper degree bound overflowed the search range" in message
        assert advice not in message
        with pytest.raises(DimensionCap) as exc:
            find_separating_character(x, y)
        assert "dimension cap 1000000: level 1: paper degree" in str(exc.value)
        assert advice in str(exc.value)
        with pytest.raises(DimensionCap) as exc:
            find_separating_character(x, y, dim_cap=1)
        assert "level 1: degree budget 0 < 1" in str(exc.value)
        assert advice in str(exc.value)

    @pytest.mark.parametrize("x, y", [
        ([1e200, 1e150, 1e-150, 1e-200], [1e190, 1e190, 1e-180, 1e-200]),
        ([1e300, 1e10, 1e-10, 1e-300], [1e250, 1e250, 1e-250, 1e-250]),
        ([1e300, 1e-100, 1e-100, 1e-100], [1e200, 1e200, 1e-200, 1e-200]),
        ([1e200, 1e-50, 1e-150], [1e160, 1e160, 1e-320]),
    ])
    def test_ext_moduli_past_float_range_skip_their_level(self, x, y):
        # an Ext^2 modulus underflows to 0 or overflows to inf: the search
        # records the level as skipped for that reason and goes on
        assert kostant_compare(x, y).relation == INCOMPARABLE
        with pytest.raises(DimensionCap) as exc:
            find_separating_character(x, y)
        assert "level 2: moduli of Ext(k=2) leave float range" in str(exc.value)

    def test_float_product_off_one_is_normalized(self):
        # x has product 1 + 1e-6: the witness and its characters are those
        # of x scaled to product 1, not of x as given
        x = ModuliVector.from_values([2.0, 0.5 * (1 + 1e-6)])
        y = [3.0, 1 / 3]
        w = find_separating_character(x, y)
        assert (w.k, w.m) == (1, 1)
        assert w.chi_1 == sum(x.normalized().values) != sum(x.values)

    def test_near_identity_pair(self):
        # the radii of Ext^1 are 5e-11 relative apart; compared exactly,
        # they separate, and degree 1 does
        x = [1.001, 1.0, 0.9990009990009991]
        y = [1.0010000000500499, 1.0, 0.9990009989510491]
        assert kostant_compare(x, y) == order.OrderVerdict(LEQ, failing_level=1)
        w = find_separating_character(x, y)
        assert (w.k, w.m, w.dimension) == (1, 1, 3)
        assert w.chi_1 == 3.0000009990009993 < w.chi_2 == 3.0000009990010987

    def test_paper_degree_past_the_old_search_range(self):
        # h_1 separates; the paper degree, above 10^15, bounds the scan
        a = 2 * (1 + F(1, 10 ** 14))
        w = find_separating_character([F(2), F(1, 2)], [a, 1 / a], dim_cap=None)
        assert (w.k, w.m, w.paper_bound_m) == (1, 1, 7305480235728234)

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
