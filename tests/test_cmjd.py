"""Tests for the multiplicative decomposition and its logarithms."""

from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from kostant import (
    IllConditioned,
    NotHyperbolic,
    NotUnipotent,
    Singular,
    cmjd,
    hyperbolic_log,
    mat_norm,
    unipotent_log,
    validate_cmjd,
)

from conftest import (
    random_invertible,
    random_sl,
    random_unipotent,
    random_unipotent_exact,
    random_unitary,
)


class TestCmjdExamples:
    def test_positive_diagonal_is_hyperbolic(self):
        g = np.diag([2.0, 0.5])
        t = cmjd(g)
        assert np.allclose(t.elliptic, np.eye(2))
        assert np.allclose(t.hyperbolic, g)
        assert np.allclose(t.unipotent, np.eye(2))

    def test_unipotent_input(self):
        g = np.array([[1.0, 1.0], [0.0, 1.0]])
        t = cmjd(g)
        assert np.allclose(t.elliptic, np.eye(2))
        assert np.allclose(t.hyperbolic, np.eye(2))
        assert np.allclose(t.unipotent, g)

    def test_phase_modulus_split(self):
        # polar form of each eigenvalue: 2i -> (i, 2), -i/2 -> (-i, 1/2)
        g = np.diag([2j, -0.5j])
        t = cmjd(g)
        assert np.allclose(np.diag(t.elliptic), [1j, -1j])
        assert np.allclose(np.diag(t.hyperbolic), [2.0, 0.5])
        assert np.allclose(t.unipotent, np.eye(2))

    def test_singular_raises(self):
        with pytest.raises(Singular):
            cmjd(np.array([[1.0, 2.0], [2.0, 4.0]]))


class TestCmjdProperties:
    def test_roundtrip_residuals(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 9))
            g = random_sl(rng, n)
            t = cmjd(g)
            bound = 1e-8 * mat_norm(g)
            assert t.residuals["reconstruction"] <= bound
            assert t.residuals["commutation"] <= bound
            assert t.residuals["unipotency"] <= bound

    def test_idempotence_on_factors(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 6))
            g = random_sl(rng, n)
            t = cmjd(g)
            t_h = cmjd(t.hyperbolic)
            assert np.allclose(t_h.hyperbolic, t.hyperbolic, atol=1e-8)
            assert np.allclose(t_h.elliptic, np.eye(n), atol=1e-8)
            assert np.allclose(t_h.unipotent, np.eye(n), atol=1e-8)
            t_u = cmjd(t.unipotent)
            assert np.allclose(t_u.unipotent, t.unipotent, atol=1e-7)
            assert np.allclose(t_u.elliptic, np.eye(n), atol=1e-7)
            assert np.allclose(t_u.hyperbolic, np.eye(n), atol=1e-7)

    def test_conjugation_equivariance(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 6))
            g = random_sl(rng, n)
            q = random_unitary(rng, n)
            t = cmjd(g)
            t_conj = cmjd(q @ g @ q.conj().T)
            for ours, base in ((t_conj.elliptic, t.elliptic),
                               (t_conj.hyperbolic, t.hyperbolic),
                               (t_conj.unipotent, t.unipotent)):
                assert mat_norm(ours - q @ base @ q.conj().T) <= 1e-7 * max(
                    mat_norm(base), 1.0)

    def test_determinant_split(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            g = random_sl(rng, n)
            t = cmjd(g)
            assert abs(abs(np.linalg.det(t.hyperbolic))
                       - abs(np.linalg.det(g))) < 1e-8
            assert abs(abs(np.linalg.det(t.elliptic)) - 1.0) < 1e-8
            assert abs(np.linalg.det(t.unipotent) - 1.0) < 1e-8

    def test_exp_log_roundtrips(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 6))
            g = random_sl(rng, n)
            t = cmjd(g)
            u, h = t.unipotent, t.hyperbolic
            assert mat_norm(expm(unipotent_log(u)) - u) <= 1e-9 * max(
                mat_norm(u), 1.0)
            assert mat_norm(expm(hyperbolic_log(h)) - h) <= 1e-9 * max(
                mat_norm(h), 1.0)


class TestCmjdJordanBlocks:
    """Rounding splits a defective eigenvalue into clusters about
    eps^(1/j) apart; cmjd must then raise, never return a bad triple."""

    def test_jordan_block_validates_or_raises(self, rng):
        raised = 0
        for j in range(2, 7):
            for _ in range(8):
                s = random_invertible(rng, j, cond_cap=1e3)
                z = np.exp(rng.normal() + 2j * np.pi * rng.uniform())
                g = s @ (z * np.eye(j) + np.eye(j, k=1)) @ np.linalg.inv(s)
                try:
                    t = cmjd(g)
                except IllConditioned:
                    raised += 1
                    continue
                assert validate_cmjd(g, t).passed
        assert raised > 0  # some block split, so the raise path ran

    def test_jordan_direct_sum_with_separated_eigenvalues(self):
        # 2x2 Jordan block at 2 plus a simple eigenvalue at -1/2: exact
        # clusters, so the split is clean
        g = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, -0.5]])
        t = cmjd(g)
        assert validate_cmjd(g, t).passed
        assert np.allclose(t.hyperbolic, np.diag([2.0, 2.0, 0.5]))
        assert np.allclose(t.elliptic, np.diag([1.0, 1.0, -1.0]))
        assert np.allclose(t.unipotent, [[1.0, 0.5, 0.0], [0.0, 1.0, 0.0],
                                         [0.0, 0.0, 1.0]])


class TestUnipotentLog:
    def test_identity(self):
        assert np.allclose(unipotent_log(np.eye(3)), np.zeros((3, 3)))

    def test_single_term_series(self):
        u = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert np.allclose(unipotent_log(u), [[0.0, 1.0], [0.0, 0.0]])

    def test_two_term_series_roundtrip(self):
        u = np.array([[1.0, 2.0, 3.0], [0.0, 1.0, 4.0], [0.0, 0.0, 1.0]])
        y = unipotent_log(u)
        assert np.allclose(expm(y), u)
        assert np.allclose(np.linalg.matrix_power(y, 3), 0)

    def test_exact_mode_nilpotency(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 6))
            u = random_unipotent_exact(rng, n)
            y = unipotent_log(u)
            power = np.array([[Fraction(1 if i == j else 0) for j in range(n)]
                              for i in range(n)], dtype=object)
            for _ in range(n):
                power = power @ y
            assert all(v == 0 for v in power.ravel())

    def test_random_roundtrip(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 9))
            u = random_unipotent(rng, n)
            y = unipotent_log(u)
            assert mat_norm(expm(y) - u) <= 1e-10 * max(mat_norm(u), 1.0)

    def test_not_unipotent_raises(self):
        with pytest.raises(NotUnipotent):
            unipotent_log(np.diag([2.0, 1.0]))


class TestHyperbolicLog:
    def test_identity(self):
        assert np.allclose(hyperbolic_log(np.eye(3)), np.zeros((3, 3)))

    def test_entrywise_log(self):
        h = np.diag([np.e, 1.0 / np.e])
        assert np.allclose(hyperbolic_log(h), np.diag([1.0, -1.0]))

    def test_negative_spectrum_raises(self):
        with pytest.raises(NotHyperbolic):
            hyperbolic_log(np.diag([-1.0, -1.0]))

    def test_nondiagonalizable_raises(self):
        with pytest.raises(NotHyperbolic):
            hyperbolic_log(np.array([[2.0, 1.0], [0.0, 2.0]]))

    def test_repeated_positive_eigenvalue(self, rng):
        s = random_invertible(rng, 5, cond_cap=1e3)
        vals = np.array([3.0, 3.0, 3.0, 0.5, 0.5])
        h = s @ np.diag(vals) @ np.linalg.inv(s)
        x = hyperbolic_log(h)
        expected = s @ np.diag(np.log(vals)) @ np.linalg.inv(s)
        assert mat_norm(x - expected) <= 1e-9 * mat_norm(expected)
        assert mat_norm(expm(x) - h) <= 1e-9 * mat_norm(h)

    def test_real_spectrum_of_log(self, rng):
        g = random_sl(rng, 4)
        h = cmjd(g).hyperbolic
        x = hyperbolic_log(h)
        vals = np.linalg.eigvals(x)
        assert np.max(np.abs(vals.imag)) < 1e-8


class TestValidateCmjd:
    def test_self_consistency(self, rng):
        g = random_sl(rng, 4)
        report = validate_cmjd(g, cmjd(g))
        assert report.passed

    def test_swapped_factors_fail_spectrum_checks(self):
        g = np.diag([2j, -0.5j])
        t = cmjd(g)
        swapped = type(t)(elliptic=t.hyperbolic, hyperbolic=t.elliptic,
                          unipotent=t.unipotent, residuals=t.residuals)
        report = validate_cmjd(g, swapped)
        assert not report.checks["elliptic_spectrum"]
        assert not report.checks["hyperbolic_spectrum"]

    def test_perturbation_fails_tight_tolerance(self, rng):
        g = random_sl(rng, 3)
        t = cmjd(g)
        perturbed = t.unipotent.copy()
        perturbed[0, -1] += 1e-6
        bad = type(t)(elliptic=t.elliptic, hyperbolic=t.hyperbolic,
                      unipotent=perturbed, residuals=t.residuals)
        report = validate_cmjd(g, bad, tol=1e-12)
        assert not report.checks["reconstruction"]
        assert not report.passed
