"""Tests for the multiplicative decomposition and the hyperbolic logarithm."""

import importlib

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from kostant import (
    IllConditioned,
    KostantError,
    NotHyperbolic,
    Singular,
    cmjd,
    hyperbolic_log,
    mat_norm,
    spectral_projectors,
    validate_cmjd,
)
import kostant.linalg

from conftest import (
    jordan_direct_sum,
    random_invertible,
    random_sl,
    random_unitary,
)

# the module, not the function that the package exports under its name
cmjd_module = importlib.import_module("kostant.cmjd")


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

    def test_singularity_is_relative_to_the_largest_modulus(self):
        # eigenvalue moduli 1e-14 apart relative to the largest are
        # numerically singular; 1e-12 apart they are not
        with pytest.raises(Singular):
            cmjd(np.diag([1e7, 1e-7]))
        assert np.allclose(np.diag(cmjd(np.diag([1e6, 1e-6])).hyperbolic), [1e6, 1e-6])


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
            h = t.hyperbolic
            assert mat_norm(expm(hyperbolic_log(h)) - h) <= 1e-9 * max(
                mat_norm(h), 1.0)


def factor_errors(triple, expected):
    """Relative Frobenius distance of e, h, u from the expected factors."""
    return [mat_norm(got - want) / max(mat_norm(want), 1.0)
            for got, want in zip((triple.elliptic, triple.hyperbolic,
                                  triple.unipotent), expected)]


class TestCmjdJordanBlocks:
    """Rounding splits a j x j Jordan block into j eigenvalues about
    eps^(1/j) apart; cmjd merges them back when the block is nilpotent
    about its mean, and otherwise raises, never returning a bad triple."""

    def test_direct_sums_match_construction(self, rng):
        for _ in range(30):
            sizes = []
            while sum(sizes) < int(rng.integers(4, 25)):
                sizes.append(int(rng.integers(2, 5)))
            g, expected = jordan_direct_sum(rng, sizes)
            t = cmjd(g)
            assert validate_cmjd(g, t).passed
            assert max(factor_errors(t, expected)) <= 1e-6

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(2, 4), min_size=1, max_size=6),
           st.integers(0, 2 ** 32 - 1))
    def test_direct_sums_match_construction_hypothesis(self, sizes, seed):
        g, expected = jordan_direct_sum(np.random.default_rng(seed), sizes)
        t = cmjd(g)
        assert validate_cmjd(g, t).passed
        assert max(factor_errors(t, expected)) <= 1e-6

    def test_merge_takes_the_block_mean(self, rng):
        # a 4x4 block splits by about 1e-4, so any one split eigenvalue
        # misses the true one by far more than the trace mean does
        g, expected = jordan_direct_sum(rng, [4, 2])
        d = spectral_projectors(g)
        assert sorted(m for _, m in d.spectrum.clusters) == [2, 4]
        want = np.linalg.eigvals(expected[0] @ expected[1])
        for z, _ in d.spectrum.clusters:
            assert np.min(np.abs(want - z)) <= 1e-9

    def test_non_defective_pair_inside_merge_radius_stays_split(self, rng):
        # diagonalizable, with two eigenvalues 1e-4 .. 1e-6 apart relative
        # to the spectral radius: inside the merge radius, but the pair is
        # farther from nilpotent about its mean than rounding explains, so
        # each keeps its own cluster. In `near` the pair's eigenvectors are
        # 1e-4 apart (cond about 1e4), so the Schur form couples the pair
        # strongly and its block lies close to, yet not within rounding of,
        # a nilpotent one.
        for rel in (1e-4, 1e-5, 1e-6):
            z = np.array([2.0, 2.0 * (1 + rel), -0.7 + 0.4j, 0.3j, 1.1])
            near = random_invertible(rng, 5, cond_cap=10.0)
            near[:, 1] = near[:, 0] + 1e-4 * near[:, 1]
            for q, tol in ((random_unitary(rng, 5), 1e-6),
                           (random_invertible(rng, 5, cond_cap=10.0), 1e-6),
                           (near, 1e-3)):
                qi = np.linalg.inv(q)
                g = q @ np.diag(z) @ qi
                assert len(spectral_projectors(g).spectrum.clusters) == 5
                expected = (q @ np.diag(z / np.abs(z)) @ qi,
                            q @ np.diag(np.abs(z)) @ qi, np.eye(5))
                t = cmjd(g)
                assert max(factor_errors(t, expected)) <= tol

    def test_coupled_pair_beyond_rounding_stays_split(self):
        # eigenvalues 1e-4 apart with coupling 1, projector norm about 1e4:
        # the matrix lies 2.5e-9 from a defective one, far beyond rounding
        g = np.array([[1.0, 1.0], [0.0, 1.0 + 1e-4]])
        assert len(spectral_projectors(g).spectrum.clusters) == 2
        t = cmjd(g)
        assert validate_cmjd(g, t).passed
        assert mat_norm(t.unipotent - np.eye(2)) <= 1e-9
        assert mat_norm(t.hyperbolic - g) <= 1e-9

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


class TestOneFactorization:
    """cmjd computes one Schur form and no other eigenvalues: the spectra
    of e and h are proven from the block basis of that form."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"schur": 0, "eigvals": 0, "block_diag": 0, "ztrsen": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        # kostant.linalg._schur is one Schur form: zgees after its workspace query
        for module, name, key in ((kostant.linalg, "_schur", "schur"),
                                  (np.linalg, "eigvals", "eigvals"),
                                  (scipy.linalg, "block_diag", "block_diag"),
                                  (kostant.linalg, "ztrsen", "ztrsen")):
            monkeypatch.setattr(module, name, counting(key, getattr(module, name)))
        return counts

    def test_generic_input(self, rng, calls):
        cmjd(random_sl(rng, 12))
        assert calls == {"schur": 1, "eigvals": 0, "block_diag": 0, "ztrsen": 0}

    def test_jordan_input(self, rng, calls):
        g, _ = jordan_direct_sum(rng, [3, 2, 4])
        cmjd(g)
        assert calls["schur"] == 1 and calls["eigvals"] == 0
        assert calls["block_diag"] == 0

    def test_hyperbolic_log(self, rng, calls):
        h = cmjd(random_sl(rng, 8)).hyperbolic
        calls.update(schur=0, eigvals=0)
        hyperbolic_log(h)
        assert calls == {"schur": 1, "eigvals": 0, "block_diag": 0, "ztrsen": 0}


def own_factors(g):
    """cmjd's factors of g before its checks, with the decomposition and
    the coefficients they are built from."""
    m = np.asarray(g, dtype=complex)
    decomp = spectral_projectors(m)
    z = np.array(decomp.spectrum.values)
    r = np.abs(z)
    return (m, decomp, decomp.combine(z / r), decomp.combine(r),
            decomp.combine(1.0 / z) @ m, z / r, r)


class TestProvenSpectra:
    """cmjd checks the spectra of its own e and h by a Bauer-Fike bound in
    the basis V, W of its block diagonalization, and calls eigvals only
    when that bound cannot decide."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 24), st.lists(st.integers(1, 4), min_size=1, max_size=6),
           st.booleans(), st.integers(0, 2 ** 32 - 1))
    def test_returned_triples_validate(self, n, sizes, jordan, seed):
        rng = np.random.default_rng(seed)
        if jordan:
            g, _ = jordan_direct_sum(rng, sizes)
        else:
            g = random_invertible(rng, n)
        try:
            t = cmjd(g)
        except KostantError:
            return
        assert validate_cmjd(g, t).passed

    @pytest.mark.parametrize("jordan", [False, True])
    def test_moved_elliptic_coefficient_fails(self, rng, jordan):
        g = jordan_direct_sum(rng, [3, 2, 1, 2])[0] if jordan else random_sl(rng, 8)
        m, decomp, e, h, u, phases, moduli = own_factors(g)
        tol, scale = 1e-8, max(mat_norm(m), 1.0)
        assert max(cmjd_module._spectrum_bounds(decomp, e, h, phases, moduli)) \
            * cmjd_module.SPECTRUM_MARGIN <= tol * scale
        phases = phases.copy()
        phases[0] *= 1 + 1e-6
        e = decomp.combine(phases)
        bounds = cmjd_module._spectrum_bounds(decomp, e, h, phases, moduli)
        assert bounds[0] >= 1e-6 > tol * scale
        report = cmjd_module._check_triple(m, e, h, u, tol, bounds)
        assert not report.checks["elliptic_spectrum"]
        assert report.checks["hyperbolic_spectrum"]

    @pytest.mark.parametrize("jordan", [False, True])
    def test_rotated_hyperbolic_coefficient_fails(self, rng, jordan):
        g = jordan_direct_sum(rng, [3, 2, 1, 2])[0] if jordan else random_sl(rng, 8)
        m, decomp, e, h, u, phases, moduli = own_factors(g)
        tol, scale = 1e-8, max(mat_norm(m), 1.0)
        moduli = moduli.astype(complex)
        moduli[0] *= np.exp(1e-6j)  # the largest modulus, at least 1 on SL_n
        h = decomp.combine(moduli)
        bounds = cmjd_module._spectrum_bounds(decomp, e, h, phases, moduli)
        assert bounds[1] >= 1e-6 * abs(moduli[0]) * (1 - 1e-6) > tol * scale
        report = cmjd_module._check_triple(m, e, h, u, tol, bounds)
        assert not report.checks["hyperbolic_spectrum"]
        assert report.checks["elliptic_spectrum"]

    def test_near_defective_falls_back_to_eigvals(self, monkeypatch):
        # eigenvalues d apart with coupling 1: projector norms about 1/d
        # put the bound above the tolerance, so eigvals decides
        calls = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda a: calls.append(1) or eigvals(a))
        for d in (1e-4, 1e-5, 1e-6):
            g = np.array([[1.0, 1.0], [0.0, 1.0 + d]])
            m, decomp, e, h, u, phases, moduli = own_factors(g)
            bounds = cmjd_module._spectrum_bounds(decomp, e, h, phases, moduli)
            assert max(bounds) > 1e-8 * mat_norm(m)
            calls.clear()
            t = cmjd(g)
            assert len(calls) == 2
            own = cmjd_module._check_triple(m, e, h, u, 1e-8, bounds)
            report = validate_cmjd(g, t)
            assert own.residuals == report.residuals
            assert own.passed and report.passed


    def test_bound_inside_the_margin_falls_back_to_eigvals(self, monkeypatch):
        # at d = 1e-3 the bound lies under the tolerance, but not 100 times
        # under it (SPECTRUM_MARGIN), so eigvals decides
        calls = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda a: calls.append(1) or eigvals(a))
        g = np.array([[1.0, 1.0], [0.0, 1.001]])
        m, decomp, e, h, u, phases, moduli = own_factors(g)
        bounds = cmjd_module._spectrum_bounds(decomp, e, h, phases, moduli)
        assert 1e-2 < max(bounds) / (1e-8 * mat_norm(m)) < 1
        calls.clear()
        assert validate_cmjd(g, cmjd(g)).passed
        assert len(calls) == 4  # cmjd's two, then validate_cmjd's two


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

    def test_defective_positive_cluster_raises(self, rng):
        for size in (2, 3):
            for _ in range(5):
                q = random_unitary(rng, size)
                block = 2.0 * np.eye(size) + np.eye(size, k=1)
                h = q @ block @ q.conj().T
                # the 3x3 block splits beyond tol, so this needs the merge
                assert spectral_projectors(h).spectrum.clusters[0][1] == size
                with pytest.raises(NotHyperbolic):
                    hyperbolic_log(h)
        s = random_invertible(rng, 4, cond_cap=1e3)
        block = np.diag([3.0, 3.0, 3.0, 0.5]) + np.diag([1.0, 1.0, 0.0], k=1)
        with pytest.raises(NotHyperbolic):
            hyperbolic_log(s @ block @ np.linalg.inv(s))

    def test_coupled_pair_beyond_rounding(self):
        # diagonalizable, 1e-4 from defective: a logarithm, not a merge
        h = np.array([[1.0, 1.0], [0.0, 1.0 + 1e-4]])
        x = hyperbolic_log(h)
        assert mat_norm(expm(x) - h) <= 1e-9 * mat_norm(h)
        assert abs(x[1, 1] - np.log1p(1e-4)) <= 1e-12

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

    def test_factor_shapes_must_match_g(self):
        g = np.diag([2.0, 0.5])
        t = cmjd(g)
        wrong = type(t)(elliptic=t.elliptic, hyperbolic=np.eye(3),
                        unipotent=t.unipotent, residuals=t.residuals)
        with pytest.raises(ValueError, match="factor dimensions"):
            validate_cmjd(g, wrong)
