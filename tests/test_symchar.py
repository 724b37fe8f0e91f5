"""Tests for character evaluation and representation moduli."""

import math
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kostant import (
    BadIndex,
    Compose,
    DimensionCap,
    DirectSum,
    Ext,
    LengthMismatch,
    ModuliVector,
    NonPositive,
    Overflow,
    Partition,
    Schur,
    Sym,
    Tensor,
    abs_character,
    cmjd,
    complete_homogeneous,
    complete_homogeneous_log,
    elementary,
    matrix_moduli,
    rep_dim,
    rep_moduli,
    schur,
    spectral_radius_rep,
)
from kostant.order import LogVector
from kostant.symchar import _h_exact, _h_scan, _last, _scaled_to_log

from conftest import (
    brute_force_e,
    brute_force_h,
    brute_force_moduli,
    brute_force_schur,
    elimination_det,
    enumerate_ssyt,
    random_sl,
    random_sl_moduli,
    rep_matrix,
)


def F(*args):
    return Fraction(*args)


class TestModuliVector:
    def test_sorting_and_exactness(self):
        v = ModuliVector.from_values([F(1, 2), F(4), F(1, 2)])
        assert v.values == (F(4), F(1, 2), F(1, 2))
        assert v.exact and v.product() == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositive):
            ModuliVector.from_values([1.0, 0.0])

    def test_float_vectors_are_inexact(self):
        assert not ModuliVector.from_values([2.0, 0.5]).exact

    def test_float_product_multiplies_left_to_right(self, rng):
        assert ModuliVector.from_values([3.0, 2.0, 0.25]).product() == 1.5
        for _ in range(20):
            v = ModuliVector.from_values(rng.uniform(0.1, 10.0, size=7).tolist())
            expected = 1.0
            for value in v.values:
                expected *= value
            assert v.product() == expected

    def test_normalized_product_one(self):
        v = ModuliVector.from_values([3.0, 2.0, 1.0]).normalized()
        assert abs(math.fsum(v.log_values())) < 1e-12

    def test_logs_of_rationals_past_float_range(self):
        big = F(10 ** 400, 3)
        v = ModuliVector.from_values([big, F(7, 3), F(2, 10 ** 310), 1 / big])
        logs = v.log_values()
        # in range: the bits of math.log(float(v)); out of range (overflow,
        # subnormal, underflow to 0): log p - log q
        assert logs[1] == math.log(float(F(7, 3)))
        for value, log in zip(v.values[::2], logs[::2]):
            assert log == math.log(value.numerator) - math.log(value.denominator)
        assert math.isclose(logs[0], 400 * math.log(10) - math.log(3), rel_tol=1e-15)
        assert logs[0] == -logs[3]
        floats = ModuliVector.from_values([2.5, 1e-310, 4.0])
        assert floats.log_values() == tuple(math.log(v) for v in floats.values)


@pytest.mark.parametrize("cls", [ModuliVector, LogVector])
class TestConstruction:
    """from_values sorts rationals on their integers over the common
    denominator and builds the vector without re-checking that order; a
    direct constructor call keeps the full check."""

    def test_rationals_apart_in_the_40th_digit_sort_exactly(self, cls):
        base = F(123456789, 10 ** 9)
        near = [base + F(k, d * 10 ** 40)
                for k, d in ((2, 7), (5, 11), (1, 3), (4, 13), (3, 9))]
        assert len({float(v) for v in near}) == 1  # floats cannot order them
        v = cls.from_values(near + [F(1, 30)])
        assert v.values == tuple(sorted(near, reverse=True)) + (F(1, 30),)
        a, den = v.integers
        assert den == math.lcm(*(value.denominator for value in v.values))
        assert all(F(p, den) == value for p, value in zip(a, v.values))

    def test_direct_call_keeps_the_full_check(self, cls):
        with pytest.raises(ValueError, match="sorted"):
            cls((F(1, 2), F(2)))
        with pytest.raises(ValueError, match="nonempty"):
            cls(())

    def test_empty_input_raises(self, cls):
        with pytest.raises(ValueError, match="nonempty"):
            cls.from_values([])

    def test_int_input_becomes_fraction(self, cls):
        v = cls.from_values([1, 3, F(1, 2)])
        assert v.values == (F(3), F(1), F(1, 2))
        assert all(type(value) is Fraction for value in v.values)
        assert v.exact and v.integers == ((6, 2, 1), 2)

    def test_mixed_float_and_fraction_takes_the_float_path(self, cls):
        for values in ([F(1, 2), 2.0], [2.0, F(1, 2)]):
            v = cls.from_values(values)
            assert v.values == (2.0, F(1, 2))
            assert not v.exact and v.integers is None

    def test_fields_alone_make_equality_hash_and_repr(self, cls):
        built, direct = cls.from_values([F(1, 2), 2]), cls((F(2), F(1, 2)))
        assert built == direct and hash(built) == hash(direct)
        assert repr(built) == f"{cls.__name__}(values=(Fraction(2, 1), Fraction(1, 2)))"


class TestNonPositiveModuli:
    @pytest.mark.parametrize("values", [
        [F(1), F(0)], [F(2), F(-1, 3), F(1, 2)], [0, 5], [F(-1), F(-2)]])
    def test_rational_non_positive_raises(self, values):
        with pytest.raises(NonPositive) as built:
            ModuliVector.from_values(values)
        with pytest.raises(NonPositive) as direct:
            ModuliVector(tuple(sorted(map(F, values), reverse=True)))
        assert str(built.value) == str(direct.value)

    def test_direct_call_checks_positivity(self):
        with pytest.raises(NonPositive):
            ModuliVector((F(1), F(0)))


class TestCompleteHomogeneous:
    def test_all_ones_counts_monomials(self):
        # every monomial evaluates to 1, so the sum is the monomial count
        assert complete_homogeneous(3, [F(1), F(1)]) == 4
        assert 4 == math.comb(3 + 2 - 1, 2 - 1)

    def test_degree_zero(self):
        assert complete_homogeneous(0, [2.0, 3.0]) == 1.0

    def test_underflowing_leading_power(self):
        # 0.5**1030 is subnormal, but h_1030(0.5, 0.5) = 1031 / 2**1030 is not
        got = complete_homogeneous(1030, [0.5, 0.5])
        assert math.isclose(got, Fraction(1031, 2 ** 1030), rel_tol=1e-12)

    def test_enumerated_anchor(self):
        assert complete_homogeneous(2, [F(2), F(1)]) == 7

    def test_matches_enumeration(self, rng):
        for n in range(1, 5):
            for m in range(7):
                x = [F(int(rng.integers(1, 6)), int(rng.integers(1, 4)))
                     for _ in range(n)]
                assert complete_homogeneous(m, ModuliVector.from_values(x)) \
                    == brute_force_h(m, x)

    def test_float_close_to_exact(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(0, 9))
            vals = rng.uniform(0.2, 3.0, size=n)
            exact = brute_force_h(m, [Fraction(v) for v in vals])
            got = complete_homogeneous(m, ModuliVector.from_values(vals))
            assert math.isclose(got, float(exact), rel_tol=n * m * 1e-15 + 1e-15)

    def test_overflow_paths(self):
        x = ModuliVector.from_values([2.0, 0.5])
        with pytest.raises(Overflow):
            complete_homogeneous(3000, x)
        # closed form: h_m(a, b) = (a^(m+1) - b^(m+1)) / (a - b)
        expected = 3001 * math.log(2.0) - math.log(1.5)
        assert math.isclose(complete_homogeneous_log(3000, x), expected,
                            rel_tol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=6),
           st.integers(0, 60))
    def test_float_within_nm_eps_of_exact(self, values, m):
        x = ModuliVector.from_values(values)
        exact = _last(_h_exact(x.as_fractions(), m))
        got = complete_homogeneous(m, x)
        bound = max(x.n * m, 1) * sys.float_info.epsilon
        assert abs(Fraction(got) - exact) <= bound * exact

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(1, 64), min_size=1, max_size=4),
           st.integers(0, 6), st.integers(0, 3000))
    def test_log_matches_exact_to_high_degree(self, numerators, j, m):
        # dyadic moduli a / 2^j: floats and Fractions hold the same values
        x = ModuliVector.from_values([F(a, 2 ** j) for a in numerators])
        exact = complete_homogeneous(m, x)
        k = exact.numerator.bit_length() - exact.denominator.bit_length()
        want = math.log(exact / F(2) ** k) + k * math.log(2)  # no cancellation
        got = complete_homogeneous_log(m, ModuliVector.from_values(x.as_floats()))
        eps = sys.float_info.epsilon
        top = abs(math.log(x.values[0]))
        assert abs(got - want) <= (x.n * m + 2 * m * top + 1) * eps

    def test_log_of_exact_moduli_past_float_range(self):
        x = [F(10 ** 400, 3), F(3, 10 ** 400)]
        h = complete_homogeneous(3, x)
        want = math.log(h.numerator) - math.log(h.denominator)
        assert math.isclose(complete_homogeneous_log(3, x), want, rel_tol=1e-14)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(1e-300, 1e300), min_size=1, max_size=6),
           st.integers(0, 300))
    def test_log_of_float_moduli_scans_them_as_given(self, values, m):
        # float moduli reach _h_scan unchanged, so the log keeps its bits
        x = ModuliVector.from_values(values)
        want = _scaled_to_log(math.log(x.values[0]), m, *_last(_h_scan(x.values, m)))
        assert complete_homogeneous_log(m, x) == want

    def test_rescaled_rows_match_binomial(self):
        # h_m(2, ..., 2) = 2^m binom(m+n-1, n-1), past the row guard here
        n, m = 100, 3000
        count = math.comb(m + n - 1, n - 1)
        bound = n * m * sys.float_info.epsilon
        assert math.isclose(complete_homogeneous(m, [1.0] * n), count,
                            rel_tol=bound)
        assert math.isclose(complete_homogeneous_log(m, [2.0] * n),
                            m * math.log(2) + math.log(count), abs_tol=bound)

    def test_log_matches_linear_in_range(self):
        x = ModuliVector.from_values([1.7, 0.9, 0.4])
        for m in (0, 1, 5, 20):
            direct = complete_homogeneous(m, x)
            assert math.isclose(math.exp(complete_homogeneous_log(m, x)),
                                direct, rel_tol=1e-10)

    def test_exact_values_survive_large_degree(self):
        value = complete_homogeneous(300, [F(2), F(1, 2)])
        assert value > F(2) ** 300  # dominated by the top monomial


def wide_rationals():
    """Rationals p/q * 10^e: q up to 10^30, magnitudes up to 10^(+-400)."""
    return st.builds(lambda p, q, e: F(p, q) * F(10) ** e, st.integers(1, 10 ** 30),
                     st.integers(1, 10 ** 30), st.integers(-400, 400))


SCHUR_SHAPES = ((1,), (3,), (2, 1), (1, 1, 1), (2, 2), (3, 1, 1))
REP_SPECS = (Sym(0), Sym(3), Ext(2), Schur(Partition((2, 1))),
             Tensor(Sym(2), Ext(1)), Compose(Sym(2), Ext(2)),
             DirectSum((Sym(3), Ext(2), Sym(0))))


class TestIntegerKernels:
    """The exact kernels run on integers over one common denominator;
    they must equal Fraction arithmetic on the values themselves."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.lists(wide_rationals(), min_size=1, max_size=4), st.integers(0, 6))
    def test_symmetric_functions_match_fraction_oracles(self, values, m):
        assert complete_homogeneous(m, values) == brute_force_h(m, values)
        for k in range(len(values) + 1):
            assert elementary(k, values) == brute_force_e(k, values)
        for shape in SCHUR_SHAPES:
            if len(shape) <= len(values):
                assert schur(shape, values) == brute_force_schur(shape, values)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.lists(wide_rationals(), min_size=n, max_size=n),
        st.lists(st.integers(1, 12), min_size=1, max_size=n))))
    def test_schur_matches_fraction_elimination(self, case):
        # the reference is Gaussian elimination in Fractions on the
        # Jacobi-Trudi matrix of the values themselves
        values, parts = case
        parts = sorted(parts, reverse=True)
        h = [complete_homogeneous(d, values) for d in range(parts[0] + len(parts))]
        matrix = [[h[p - i + j] if p - i + j >= 0 else 0 for j in range(len(parts))]
                  for i, p in enumerate(parts)]
        got = schur(parts, values)
        assert (got, type(got)) == (elimination_det(matrix), Fraction)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(wide_rationals(), min_size=2, max_size=4), st.sampled_from(REP_SPECS))
    def test_rep_moduli_and_characters_match_fraction_oracle(self, values, spec):
        moduli = brute_force_moduli(spec, values)
        assert rep_moduli(spec, values, cap=None).values == tuple(sorted(moduli, reverse=True))
        assert abs_character(spec, values, cap=None) == sum(moduli)
        assert spectral_radius_rep(spec, values, cap=None) == max(moduli)

    def test_degree_3000_on_moduli_of_size_ten_to_minus_400(self):
        # Fraction additions took minutes here: every one reduced by a gcd
        # of numbers of up to a million digits
        values = [F(7, 3 * 10 ** 400), F(3, 10 ** 400), F(5, 11 * 10 ** 400)]
        m = 3000
        h = complete_homogeneous(m, values)
        exact_log = math.log(h.numerator) - math.log(h.denominator)
        top = max(values)
        size = m * (math.log(top.numerator) + math.log(top.denominator)) + \
            math.log(h.numerator) + math.log(h.denominator)
        bound = (len(values) * m + 2 * size + 1) * sys.float_info.epsilon
        assert abs(complete_homogeneous_log(m, values) - exact_log) <= bound


class TestElementary:
    def test_full_product_is_det(self):
        assert elementary(3, [F(4), F(1, 2), F(1, 2)]) == 1

    def test_pairwise_sum(self):
        assert elementary(2, [F(1), F(2), F(3)]) == 11

    def test_degree_zero(self):
        assert elementary(0, [5.0, 1.0]) == 1.0

    def test_bad_index(self):
        with pytest.raises(BadIndex):
            elementary(3, [1.0, 2.0])


class TestSchur:
    def test_empty_shape_is_one(self):
        exact, floats = schur((), [F(2), F(1, 2)]), schur((), [2.0, 0.5])
        assert (exact, type(exact)) == (1, Fraction)
        assert (floats, type(floats)) == (1.0, float)

    def test_tuple_shape_is_coerced(self):
        spec = Schur(Partition((2, 1)))
        assert Schur((2, 1)) == spec  # equal fields: the shape is a Partition
        for x in ([F(3), F(1), F(1, 3)], [3.0, 1.0, 1 / 3]):
            for f in (rep_moduli, abs_character, spectral_radius_rep):
                assert f(Schur((2, 1)), x) == f(spec, x)
        assert rep_dim(Schur((2, 1)), 3) == rep_dim(spec, 3) == 8

    def test_single_row_is_h(self):
        x = ModuliVector.from_values([F(3), F(2), F(1)])
        assert schur((1,), x) == elementary(1, x) == complete_homogeneous(1, x)

    def test_tableau_anchor(self):
        assert schur((2, 1), [F(2), F(1)]) == 6

    def test_column_is_determinant(self):
        x = ModuliVector.from_values([F(4), F(1, 2), F(1, 2)])
        assert schur((1, 1, 1), x) == 1

    def test_matches_tableau_enumeration(self, rng):
        shapes = [(1,), (2,), (1, 1), (2, 1), (3, 1), (2, 2), (3, 2),
                  (2, 2, 1), (3, 1, 1)]
        for shape in shapes:
            for n in range(len(shape), 4):
                x = [F(int(rng.integers(1, 5)), int(rng.integers(1, 3)))
                     for _ in range(n)]
                mv = ModuliVector.from_values(x)
                assert schur(shape, mv) == brute_force_schur(shape, x)

    def test_pieri_consistency(self, rng):
        x = random_sl_moduli(rng, 4)
        for m in range(1, 5):
            assert math.isclose(schur((m,), x), complete_homogeneous(m, x),
                                rel_tol=1e-12)
        for k in range(1, 5):
            assert math.isclose(schur((1,) * k, x), elementary(k, x),
                                rel_tol=1e-12)

    def test_cancelling_shape_is_correctly_rounded(self):
        # s_(3,3)(a, b) = (a b)^3: float Jacobi-Trudi cancels catastrophically;
        # the integer determinant is exact and rounded once
        x = ModuliVector.from_values([1.0, 1e-6])
        assert schur((3, 3), x) == float(Fraction(1e-6) ** 3)

    def test_float_value_past_the_range_of_its_entries(self):
        # h_400(3, 1, 1/3) fits a float, h_400**2 does not, and s_(400,400)
        # does; h_2(1e200, 1e-200) is past float range, s_(2,2) = 1 is not
        x = ModuliVector.from_values([3.0, 1.0, 1 / 3])
        h = [complete_homogeneous(d, x.as_fractions()) for d in (399, 400, 401)]
        exact = h[1] ** 2 - h[0] * h[2]
        assert schur((400, 400), x) == float(exact) == 1.1905445995855874e+191
        exact = (Fraction(1e200) * Fraction(1e-200)) ** 2
        assert schur((2, 2), [1e200, 1e-200]) == float(exact) == 0.9999999999999999

    def test_float_value_past_float_range_overflows(self):
        with pytest.raises(Overflow):
            schur((400, 400), [3.0 ** 2, 1.0, 1 / 9])

    def test_too_long_partition(self):
        with pytest.raises(LengthMismatch):
            schur((1, 1, 1), [2.0, 1.0])

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(1, 5), min_size=1, max_size=4),
           st.lists(st.floats(0.05, 20.0), min_size=5, max_size=5),
           st.integers(1, 5))
    def test_float_matches_tableau_enumeration(self, parts, values, n):
        # one rounding of the exact value of the float inputs
        shape = tuple(sorted(parts, reverse=True))
        x = ModuliVector.from_values(values[:max(n, len(shape))])
        got = schur(shape, x)
        assert (got, type(got)) == (float(brute_force_schur(shape, x.as_fractions())), float)

    def test_row_swap_keeps_sign(self):
        # moduli below 1: h_0 = 1 outweighs h_2 in the first column of the
        # Jacobi-Trudi matrix [[h_2, h_3], [h_0, h_1]], so the reference's
        # pivoting swaps rows; the fraction-free kernel swaps none
        x = ModuliVector.from_values([0.5, 0.25])
        h = [complete_homogeneous(d, x) for d in range(4)]
        assert h[0] > h[2]
        assert schur((2, 1), x) == float(brute_force_schur((2, 1), x.as_fractions()))
        assert elimination_det([[F(0), F(1)], [F(1), F(0)]]) == -1
        assert elimination_det([[2.0, 3.0], [4.0, 5.0]]) == -2.0


class TestKostka:
    """The dimension of a Schur functor is its number of semistandard
    tableaux, the sum of its Kostka numbers."""

    def test_dimension_agrees_with_tableau_count(self):
        for shape in [(2, 1), (3, 2), (2, 2, 1)]:
            for n in (3, 4):
                assert rep_dim(Schur(Partition(shape)), n) == sum(
                    1 for _ in enumerate_ssyt(shape, n))


class TestRepModuli:
    @pytest.mark.parametrize("spec", [Sym(0), Ext(0), Schur(Partition(()))])
    def test_trivial_rep_keeps_the_arithmetic(self, spec):
        # empty products start from 1.0 on floats and Fraction(1) on rationals
        for x, kind in (([2.0, 0.5], float), ([F(2), F(1, 2)], Fraction)):
            assert [type(v) for v in rep_moduli(spec, x).values] == [kind]
            assert type(spectral_radius_rep(spec, x)) is kind

    @pytest.mark.parametrize("x", [[1e200, 1.0], [1.0, 1e-200]])
    def test_float_moduli_past_float_range_overflow(self, x):
        # (1e200)^2 is inf and (1e-200)^2 is 0: neither is a modulus
        spec = Compose(Sym(2), Ext(1))
        with pytest.raises(Overflow, match=r"^moduli of Compose\("):
            rep_moduli(spec, x)
        exact = rep_moduli(spec, [Fraction(v) for v in x])
        assert exact.values == tuple(sorted(
            (Fraction(a) * Fraction(b) for a, b in ((x[0], x[0]), (x[0], x[1]), (x[1], x[1]))),
            reverse=True))

    def test_ext_pairwise_products(self):
        v = rep_moduli(Ext(2), [F(4), F(1, 2), F(1, 2)])
        assert v.values == (F(2), F(2), F(1, 4))

    def test_sym_one_is_identity(self):
        x = ModuliVector.from_values([3.0, 1.0, 0.5])
        assert rep_moduli(Sym(1), x).values == x.values

    def test_direct_sum_concatenates(self):
        spec = DirectSum((Sym(1), Sym(1), Sym(1)))
        v = rep_moduli(spec, [F(2), F(1, 2)])
        assert v.values == (F(2), F(2), F(2), F(1, 2), F(1, 2), F(1, 2))

    def test_schur_weights_sum_to_character(self, rng):
        x = ModuliVector.from_values(
            [F(int(rng.integers(1, 5)), int(rng.integers(1, 3)))
             for _ in range(3)])
        for shape in [(2, 1), (2, 2), (3, 1)]:
            moduli = rep_moduli(Schur(Partition(shape)), x)
            assert sum(moduli.values) == schur(shape, x)
            assert moduli.n == rep_dim(Schur(Partition(shape)), 3)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 6),
           parts=st.lists(st.integers(1, 6), min_size=1, max_size=6),
           x=st.lists(st.fractions(min_value=F(1, 5), max_value=9, max_denominator=5),
                      min_size=6, max_size=6))
    @example(n=2, parts=[2, 1], x=[F(2), F(1)] * 3)
    @example(n=4, parts=[3, 2, 2, 1], x=[F(3), F(1, 2), F(5, 3), F(1), F(2), F(1)])
    def test_schur_weights_are_tableau_weights(self, n, parts, x):
        shape = sorted(parts, reverse=True)[:n]
        while sum(shape) > 12:
            shape.pop()
        x = x[:n]
        moduli = rep_moduli(Schur(Partition(tuple(shape))), x, cap=None)
        x.sort(reverse=True)
        contents = Counter(tuple(sorted(v for row in t for v in row))
                           for t in enumerate_ssyt(tuple(shape), n))
        expected = [math.prod((x[v - 1] for v in content), start=F(1))
                    for content, count in contents.items() for _ in range(count)]
        assert moduli.n == len(expected)
        assert moduli.values == tuple(sorted(expected, reverse=True))

    def test_schur_weight_above_twelve(self, rng):
        # no weight cap: only the moduli cap bounds the size
        x = ModuliVector.from_values(
            [F(int(rng.integers(1, 7)), int(rng.integers(1, 4))) for _ in range(5)])
        moduli = rep_moduli(Schur(Partition((7, 6))), x)
        assert moduli.n == 6930 == rep_dim(Schur(Partition((7, 6))), 5)
        assert sum(moduli.values) == schur((7, 6), x)

    def test_compose_chains_evaluation(self):
        spec = Compose(Sym(2), Ext(2))
        v = rep_moduli(spec, [F(4), F(1, 2), F(1, 2)])
        inner = rep_moduli(Ext(2), [F(4), F(1, 2), F(1, 2)])
        expected = rep_moduli(Sym(2), inner)
        assert v.values == expected.values

    def test_dimension_cap(self):
        with pytest.raises(DimensionCap):
            rep_moduli(Sym(60), [1.0] * 6, cap=10 ** 6)

    def test_tensor_matches_products(self):
        x = ModuliVector.from_values([F(2), F(1, 2)])
        v = rep_moduli(Tensor(Sym(1), Sym(1)), x)
        assert v.values == (F(4), F(1), F(1), F(1, 4))


class TestAbsCharacter:
    def test_sym_equals_h(self):
        assert abs_character(Sym(2), [F(2), F(1)]) == 7

    def test_ext_sum(self):
        assert abs_character(Ext(2), [F(4), F(1, 2), F(1, 2)]) == F(17, 4)

    def test_all_ones_gives_dimension(self, rng):
        specs = [Sym(3), Ext(2), Schur(Partition((2, 1))),
                 Tensor(Sym(1), Ext(2)), DirectSum((Sym(2), Ext(1))),
                 Compose(Sym(2), Ext(2))]
        x = ModuliVector.from_values([F(1)] * 4)
        for spec in specs:
            assert abs_character(spec, x) == rep_dim(spec, 4)

    def test_equals_sum_of_moduli(self, rng):
        x = random_sl_moduli(rng, 4)
        specs = [Sym(3), Ext(3), Schur(Partition((2, 2))),
                 Tensor(Sym(2), Ext(1)), Compose(Sym(2), Ext(2))]
        for spec in specs:
            direct = abs_character(spec, x)
            moduli_sum = sum(rep_moduli(spec, x).values)
            assert math.isclose(direct, moduli_sum, rel_tol=1e-11)

    @pytest.mark.parametrize("evaluate", [abs_character, spectral_radius_rep, rep_moduli])
    @pytest.mark.parametrize("cap", [None, 10 ** 6])
    def test_one_message_for_an_exterior_power_past_n(self, evaluate, cap):
        with pytest.raises(BadIndex, match="^exterior power 4 exceeds dimension 3$"):
            evaluate(Ext(4), [2.0, 1.0, 0.5], cap=cap)

    @pytest.mark.parametrize("evaluate, spec", [
        (abs_character, Tensor(Sym(400), Sym(400))),  # a product past float range
        (abs_character, Schur(Partition((700, 700)))),
        (spectral_radius_rep, Sym(700)),  # float ** int raises OverflowError
        (spectral_radius_rep, Tensor(Sym(400), Sym(400)))])  # an inf product
    def test_float_value_past_float_range_overflows(self, evaluate, spec):
        x = [3.0, 1.0, 1 / 3]
        with pytest.raises(Overflow, match="exceeds float range"):
            evaluate(spec, x, cap=None)
        # the exact value is a rational, past float range or not
        assert evaluate(spec, [F(3), F(1), F(1, 3)], cap=None) > 10 ** 308

    def test_equals_trace_of_rep_matrix(self, rng):
        x = random_sl_moduli(rng, 3)
        diag = np.diag(x.as_floats())
        for spec in [Sym(2), Sym(3), Ext(2), Tensor(Sym(1), Ext(2)),
                     DirectSum((Sym(1), Ext(1)))]:
            trace = np.trace(rep_matrix(spec, diag)).real
            assert math.isclose(abs_character(spec, x), trace, rel_tol=1e-11)


class TestSpectralRadiusRep:
    def test_ext_top_products(self, rng):
        x = random_sl_moduli(rng, 5)
        for k in range(1, 6):
            expected = math.prod(x.as_floats()[:k])
            assert math.isclose(spectral_radius_rep(Ext(k), x), expected,
                                rel_tol=1e-12)

    def test_sym_power_of_max(self):
        x = ModuliVector.from_values([F(3), F(1, 3)])
        assert spectral_radius_rep(Sym(4), x) == 81

    def test_tensor_example(self):
        x = ModuliVector.from_values([F(4), F(1, 2), F(1, 2)])
        assert spectral_radius_rep(Tensor(Sym(1), Ext(2)), x) == 8

    @pytest.mark.parametrize("spec, radius", [
        (Sym(2), 9.0), (Ext(2), 1.5), (Schur(Partition((2, 1))), 4.5)])
    def test_float_vector_holding_a_fraction_gets_a_float_radius(self, spec, radius):
        # a vector with a float entry is float-mode, its Fraction entries too
        value = spectral_radius_rep(spec, [F(3), 0.5])
        assert value == radius and type(value) is float

    def test_matches_max_of_moduli(self, rng):
        x = random_sl_moduli(rng, 4)
        for spec in [Sym(3), Ext(2), Schur(Partition((3, 1))),
                     Compose(Sym(2), Ext(3)), DirectSum((Sym(2), Ext(1))),
                     Tensor(Schur(Partition((2, 1))), Ext(3))]:
            assert math.isclose(spectral_radius_rep(spec, x),
                                max(rep_moduli(spec, x).as_floats()),
                                rel_tol=1e-12)


class TestRepMatrix:
    def test_top_exterior_power_is_det(self, rng):
        a = random_sl(rng, 3)
        top = rep_matrix(Ext(3), a)
        assert top.shape == (1, 1)
        assert abs(top[0, 0] - np.linalg.det(a)) < 1e-10

    def test_sym_one_identity(self, rng):
        a = random_sl(rng, 3)
        assert np.allclose(rep_matrix(Sym(1), a), a)

    def test_ext_two_diagonal(self):
        m = rep_matrix(Ext(2), np.diag([2.0, 3.0, 5.0]))
        assert np.allclose(np.sort(np.diag(m).real), [6.0, 10.0, 15.0])
        assert np.allclose(m - np.diag(np.diag(m)), 0)

    def test_multiplicative(self, rng):
        for spec in [Sym(2), Sym(3), Ext(2), Tensor(Sym(1), Ext(2)),
                     DirectSum((Sym(2), Ext(1)))]:
            a = random_sl(rng, 3)
            b = random_sl(rng, 3)
            lhs = rep_matrix(spec, a @ b)
            rhs = rep_matrix(spec, a) @ rep_matrix(spec, b)
            assert np.allclose(lhs, rhs, atol=1e-9 * np.linalg.norm(rhs))

    def test_decomposition_commutes_with_rep(self, rng):
        # the induced matrix of the hyperbolic factor has the rep moduli
        for spec in [Sym(2), Ext(2)]:
            g = random_sl(rng, 3)
            pg = rep_matrix(spec, g)
            h_of_pg = cmjd(pg).hyperbolic
            expected = rep_moduli(spec, matrix_moduli(g)).as_floats()
            got = sorted(np.abs(np.linalg.eigvals(h_of_pg)), reverse=True)
            assert np.allclose(got, expected, rtol=1e-7, atol=1e-9)
