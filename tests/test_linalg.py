"""Tests for the dense complex kernels."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kostant.linalg
from kostant import (
    IllConditioned,
    NonConvergence,
    eigen_spectrum,
    mat_norm,
    matrix_moduli,
    spectral_projectors,
)
from kostant.cli import main
from kostant.linalg import _clusters, _schur, as_matrix

from conftest import jordan_direct_sum, random_invertible, random_unitary

FRACTIONS = st.fractions(min_value=-10 ** 6, max_value=10 ** 6)


def cluster_dict(spectrum, digits=6):
    return {complex(round(v.real, digits), round(v.imag, digits)): m
            for v, m in spectrum.clusters}


def reference_clusters(values, thr):
    """The clustering loop as first written: merge the first pair of
    groups whose means lie within thr, recompute every mean, repeat."""
    groups = [[complex(v)] for v in values]
    merged = True
    while merged:
        merged = False
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                mi = sum(groups[i]) / len(groups[i])
                mj = sum(groups[j]) / len(groups[j])
                if abs(mi - mj) <= thr:
                    groups[i].extend(groups[j])
                    del groups[j]
                    merged = True
                    break
            if merged:
                break
    return groups


class TestClusters:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4),
                              st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                    min_size=1, max_size=14),
           st.sampled_from([0.0, 0.3, 1.0, 1.5]))
    def test_matches_reference_loop(self, points, thr):
        # grid points plus jitter of up to half the threshold: chains of
        # near neighbours, where merge order changes the means
        values = np.array([complex(a + 0.5 * thr * x, b + 0.5 * thr * y)
                           for a, b, x, y in points])
        groups = _clusters(values, thr)
        want = reference_clusters(values, thr)
        assert [[complex(values[k]) for k in g] for g in groups] == want
        means = [sum(complex(values[k]) for k in g) / len(g) for g in groups]
        assert means == [sum(g) / len(g) for g in want]


class TestEigenSpectrum:
    def test_triangular_diagonal(self):
        a = np.array([[2, 5, 1], [0, 1j, -3], [0, 0, -1]], dtype=complex)
        s = eigen_spectrum(a)
        assert cluster_dict(s) == {2 + 0j: 1, 1j: 1, -1 + 0j: 1}

    def test_identity_single_cluster(self):
        s = eigen_spectrum(np.eye(3))
        assert s.clusters == ((1 + 0j, 3),)

    def test_rotation_pair(self):
        # characteristic polynomial x^2 + 1
        s = eigen_spectrum(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        vals = sorted(s.values, key=lambda z: z.imag)
        assert abs(vals[0] + 1j) < 1e-12 and abs(vals[1] - 1j) < 1e-12

    def test_near_coincident_merge(self):
        a = np.diag([1.0, 1.0 + 1e-12, 3.0])
        s = eigen_spectrum(a, cluster_tol=1e-8)
        assert sorted(m for _, m in s.clusters) == [1, 2]

    def test_cluster_separation_invariant(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 9))
            a = random_invertible(rng, n)
            s = eigen_spectrum(a)
            thr = s.cluster_tol * s.radius
            values = s.values
            for i in range(len(values)):
                for j in range(i + 1, len(values)):
                    assert abs(values[i] - values[j]) > thr

    def test_similarity_invariance(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            a = random_invertible(rng, n)
            q = random_unitary(rng, n)
            s1 = sorted(eigen_spectrum(a).moduli())
            s2 = sorted(eigen_spectrum(q @ a @ q.conj().T).moduli())
            assert np.allclose(s1, s2, rtol=1e-7, atol=1e-9)

    def test_rejects_negative_tol(self):
        with pytest.raises(ValueError):
            eigen_spectrum(np.eye(2), cluster_tol=-1.0)

    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_conjugated_jordan_block_is_one_cluster(self, rng, size):
        # rounding splits the eigenvalue; the kernel merges it back
        for _ in range(5):
            g, _ = jordan_direct_sum(rng, [size])
            assert [m for _, m in eigen_spectrum(g).clusters] == [size]

    def test_matrix_moduli_are_the_kernels(self, rng):
        matrices = [jordan_direct_sum(rng, sizes)[0]
                    for sizes in ([1] * 6, [2], [3, 1], [2, 2, 1])]
        matrices += [random_invertible(rng, int(rng.integers(2, 9))) for _ in range(10)]
        for g in matrices:
            assert list(matrix_moduli(g).values) == spectral_projectors(g).spectrum.moduli()


class TestSpectralProjectors:
    def test_diagonal(self):
        d = spectral_projectors(np.diag([2.0, 3.0]))
        by_value = {round(v.real): p
                    for (v, _), p in zip(d.spectrum.clusters, d.projectors)}
        assert np.allclose(by_value[2], np.diag([1.0, 0.0]))
        assert np.allclose(by_value[3], np.diag([0.0, 1.0]))

    def test_jordan_block_single_projector(self):
        d = spectral_projectors(np.array([[5.0, 1.0], [0.0, 5.0]]))
        assert len(d.projectors) == 1
        assert np.allclose(d.projectors[0], np.eye(2))

    def test_hand_solved_projectors(self):
        # P solves P^2 = P, AP = PA, with ranks matching the eigenspaces
        a = np.array([[1.0, 1.0], [0.0, 2.0]])
        d = spectral_projectors(a)
        by_value = {round(v.real): p
                    for (v, _), p in zip(d.spectrum.clusters, d.projectors)}
        assert np.allclose(by_value[1], [[1.0, -1.0], [0.0, 0.0]], atol=1e-12)
        assert np.allclose(by_value[2], [[0.0, 1.0], [0.0, 1.0]], atol=1e-12)

    def test_algebra_invariants_random(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 9))
            a = random_invertible(rng, n)
            d = spectral_projectors(a)
            assert d.residual <= 1e-8 * mat_norm(a)
            # reconstruction through eigennilpotent split
            total = np.zeros_like(a)
            for (z, _), p in zip(d.spectrum.clusters, d.projectors):
                total += z * p + (a - z * np.eye(n)) @ p
            assert mat_norm(total - a) <= 1e-8 * mat_norm(a)

    def test_diagonalizable_sandwich_identity(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            a = random_invertible(rng, n)  # distinct eigenvalues a.s.
            d = spectral_projectors(a)
            sandwich = sum(p @ a @ p for p in d.projectors)
            assert mat_norm(sandwich - a) <= 1e-8 * mat_norm(a)

    def test_projector_norms_match_formed_projectors(self, rng):
        # two-dimensional clusters after the first block: complex Gram
        # matrices on both sides of the trace formula; merged Jordan
        # blocks of sizes 2-4 in an order other than the clusters'
        s = random_invertible(rng, 5, cond_cap=1e3)
        middle = s @ np.diag([3.0, 1j, 1j, 0.5, 0.5]) @ np.linalg.inv(s)
        cases = [random_invertible(rng, int(rng.integers(2, 9))),
                 self._repeated_cluster_matrix(rng, 6), middle,
                 np.array([[1.0, 1e5], [0.0, 1.0 + 1e-2]]),
                 jordan_direct_sum(rng, [3, 2, 4, 2])[0]]
        for a in cases:
            d = spectral_projectors(a)
            want = [mat_norm(p) for p in d.projectors]
            assert np.allclose(d.projector_norms(), want, rtol=1e-10)

    def test_norm_cap_raises(self):
        # eigenvalues 1e-2 apart, beyond the merge radius; projector norm
        # ~ 1e11 / 1e-2 = 1e13, past the 1e12 cap
        a = np.array([[1.0, 1e11], [0.0, 1.01]])
        with pytest.raises(IllConditioned):
            spectral_projectors(a)

    @staticmethod
    def _repeated_cluster_matrix(rng, n):
        """Random similarity of a diagonal with one eigenvalue repeated."""
        z = rng.normal(size=n) + 1j * rng.normal(size=n)
        reps = int(rng.integers(2, n + 1))
        z[1:reps] = z[0]
        s = random_invertible(rng, n, cond_cap=1e3)
        return s @ np.diag(z) @ np.linalg.inv(s)

    def test_projector_algebra_pairwise(self, rng):
        cases = [random_invertible(rng, int(rng.integers(2, 9)))
                 for _ in range(10)]
        cases += [self._repeated_cluster_matrix(rng, int(rng.integers(2, 8)))
                  for _ in range(10)]
        for a in cases:
            n = a.shape[0]
            d = spectral_projectors(a)
            projs = d.projectors
            assert len(projs) == len(d.spectrum.clusters)
            tol = 1e-8 * mat_norm(a)
            assert mat_norm(sum(projs) - np.eye(n)) <= tol
            for i, p in enumerate(projs):
                assert mat_norm(a @ p - p @ a) <= tol
                for j, q in enumerate(projs):
                    expected = p if i == j else np.zeros_like(p)
                    assert mat_norm(p @ q - expected) <= tol

    def test_repeated_cluster_projector_rank(self, rng):
        for _ in range(10):
            a = self._repeated_cluster_matrix(rng, int(rng.integers(3, 8)))
            d = spectral_projectors(a)
            assert max(m for _, m in d.spectrum.clusters) >= 2
            for (_, mult), p in zip(d.spectrum.clusters, d.projectors):
                assert abs(np.trace(p) - mult) <= 1e-8

    def test_combine_matches_projector_sum(self, rng):
        a = self._repeated_cluster_matrix(rng, 6)
        d = spectral_projectors(a)
        coeffs = rng.normal(size=len(d.blocks)) + 1j
        expected = sum(c * p for c, p in zip(coeffs, d.projectors))
        assert mat_norm(d.combine(coeffs) - expected) <= 1e-10 * mat_norm(expected)
        assert mat_norm(d.combine(d.spectrum.values) - a) <= 1e-8 * mat_norm(a)


class TestLapackCalls:
    """kostant.linalg calls scipy's LAPACK extension as scipy.linalg's
    schur and solve_triangular call it, and checks every info."""

    def test_bit_for_bit_with_scipy_linalg(self, rng):
        for n in (1, 2, 7, 33):
            m = as_matrix(random_invertible(rng, n))
            t, z = _schur(m)
            want_t, want_z = scipy.linalg.schur(m, output="complex")
            assert np.array_equal(t, want_t) and np.array_equal(z, want_z)
            x = np.triu(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), 1)
            x += np.eye(n)
            w, info = kostant.linalg.ztrtrs(x.T, z.conj().T, lower=1, trans=1,
                                            unitdiag=1)
            want_w = scipy.linalg.solve_triangular(x, z.conj().T, unit_diagonal=True)
            assert info == 0 and np.array_equal(w, want_w)

    def test_schur_failure_is_nonconvergence(self, monkeypatch, tmp_path, capsys):
        real = kostant.linalg.zgees

        def failing(*args, **kwargs):
            *out, _ = real(*args, **kwargs)
            return (*out, 1)  # the QR algorithm failed at eigenvalue 1

        monkeypatch.setattr(kostant.linalg, "zgees", failing)
        with pytest.raises(NonConvergence, match="Schur form not found"):
            spectral_projectors(np.diag([2.0, 0.5]))
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"entries": [[2, 1], [0, 0.5]]}))
        assert main(["decompose", "--g", str(path)]) == 3
        assert json.loads(capsys.readouterr().out)["error"] == "NonConvergence"

    @pytest.mark.parametrize("info", [1, -2])
    def test_triangular_solve_failure_raises(self, info, monkeypatch, rng):
        real = kostant.linalg.ztrtrs
        monkeypatch.setattr(kostant.linalg, "ztrtrs",
                            lambda *args, **kwargs: (real(*args, **kwargs)[0], info))
        with pytest.raises(IllConditioned, match=f"ztrtrs info {info}"):
            spectral_projectors(random_invertible(rng, 4))


class TestAsMatrix:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.lists(
        st.one_of(FRACTIONS, st.complex_numbers(max_magnitude=10 ** 6,
                                                allow_infinity=False, allow_nan=False)),
        min_size=n * n, max_size=n * n)))
    @example([Fraction(1, 3), complex(1, -2 / 7), Fraction(5), 0j])
    def test_object_matrix_roundtrip(self, entries):
        # as_matrix converts an object matrix entrywise by complex()
        n = math.isqrt(len(entries))
        a = np.empty((n, n), dtype=object)
        a.ravel()[:] = entries
        c = as_matrix(a)
        assert c.dtype == complex
        assert c.tolist() == [[complex(e) for e in row] for row in a.tolist()]
