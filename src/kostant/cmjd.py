"""Complete multiplicative Jordan decomposition g = e * h * u.

The three factors commute: e is elliptic (diagonalizable, unit-modulus
eigenvalues), h is hyperbolic (diagonalizable, positive real eigenvalues),
u is unipotent (all eigenvalues 1). Factors are assembled from spectral
projectors: on the generalized eigenspace of eigenvalue z, h acts as |z|
and e as z/|z|, and u = h^-1 e^-1 g. No Jordan basis is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import NotHyperbolic, NotUnipotent, Singular
from .linalg import (
    SINGULARITY_THRESHOLD,
    as_matrix,
    eigen_spectrum,
    identity_like,
    mat_norm,
    spectral_projectors,
    to_complex,
)

DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class CmjdTriple:
    """Factors of g = elliptic * hyperbolic * unipotent, with residuals.

    residuals holds absolute Frobenius-norm diagnostics:
    reconstruction ||e h u - g||, commutation (worst pairwise commutator),
    unipotency ||(u - I)^n||, and the projector residual inherited from
    the spectral decomposition.
    """

    elliptic: np.ndarray
    hyperbolic: np.ndarray
    unipotent: np.ndarray
    residuals: dict[str, float]

    @property
    def dim(self) -> int:
        return self.elliptic.shape[0]


@dataclass(frozen=True)
class CmjdReport:
    """Outcome of validate_cmjd: residuals plus per-invariant verdicts."""

    residuals: dict[str, float]
    checks: dict[str, bool]
    tol: float

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


def cmjd(g, tol: float = DEFAULT_TOL) -> CmjdTriple:
    """Decompose an invertible complex matrix into commuting e, h, u.

    Eigenvalues within tol (relative to the spectral radius) share one
    cluster, whose representative value supplies both the modulus for h
    and the phase for e. Raises Singular for non-invertible input and
    propagates IllConditioned from the projector construction.
    """
    m = to_complex(as_matrix(g))
    n = m.shape[0]
    spectrum = eigen_spectrum(m, cluster_tol=tol)
    radius = spectrum.radius
    if radius == 0 or min(abs(v) for v in spectrum.values) <= SINGULARITY_THRESHOLD * radius:
        raise Singular("matrix has an eigenvalue at (or numerically at) zero")
    decomp = spectral_projectors(m, spectrum)

    h = np.zeros((n, n), dtype=complex)
    e = np.zeros((n, n), dtype=complex)
    h_inv = np.zeros((n, n), dtype=complex)
    e_inv = np.zeros((n, n), dtype=complex)
    for (z, _), p in zip(spectrum.clusters, decomp.projectors):
        r = abs(z)
        phase = z / r
        h += r * p
        e += phase * p
        h_inv += (1.0 / r) * p
        e_inv += (1.0 / phase) * p
    u = h_inv @ e_inv @ m

    eye = np.eye(n, dtype=complex)
    residuals = {
        "reconstruction": mat_norm(e @ h @ u - m),
        "commutation": max(
            mat_norm(e @ h - h @ e),
            mat_norm(e @ u - u @ e),
            mat_norm(h @ u - u @ h),
        ),
        "unipotency": mat_norm(np.linalg.matrix_power(u - eye, n)),
        "projector": decomp.residual,
    }
    return CmjdTriple(elliptic=e, hyperbolic=h, unipotent=u, residuals=residuals)


def unipotent_log(u, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Nilpotent logarithm of a unipotent matrix.

    Evaluates the terminating series
    log u = -(I-u)/1 - (I-u)^2/2 - ... - (I-u)^(n-1)/(n-1).
    Exact inputs (object arrays of Fraction / ComplexRational) are
    processed exactly and yield an exact nilpotent result.

    Raises NotUnipotent when ||(u - I)^n|| > tol * ||u||^n.
    """
    m = as_matrix(u)
    n = m.shape[0]
    eye = identity_like(m)
    nil = eye - m  # I - u, nilpotent for unipotent u
    power = nil
    for _ in range(n - 1):
        power = power @ nil
    if mat_norm(power) > tol * max(mat_norm(m), 1.0) ** n:
        raise NotUnipotent(
            f"(u - I)^{n} has norm {mat_norm(power):.3e}; input is not unipotent "
            f"at tolerance {tol:g}")
    result = eye - eye  # zero of the right dtype
    term = eye
    for k in range(1, n):
        term = term @ nil
        result = result - term / k
    return result


def hyperbolic_log(h, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Real-semisimple logarithm of a hyperbolic matrix.

    X = sum_i log|z_i| P_i over the spectral projectors; exp(X) = h.
    Raises NotHyperbolic if any eigenvalue is non-positive-real beyond
    tolerance, or if h is not diagonalizable (nilpotent residue on some
    generalized eigenspace).
    """
    m = to_complex(as_matrix(h))
    n = m.shape[0]
    spectrum = eigen_spectrum(m, cluster_tol=tol)
    scale = max(spectrum.radius, 1.0)
    for z, _ in spectrum.clusters:
        if z.real <= 0 or abs(z.imag) > tol * scale:
            raise NotHyperbolic(f"eigenvalue {z} is not positive real")
    decomp = spectral_projectors(m, spectrum)
    x = np.zeros((n, n), dtype=complex)
    for (z, _), p in zip(spectrum.clusters, decomp.projectors):
        nilpotent_part = (m - z * np.eye(n)) @ p
        if mat_norm(nilpotent_part) > tol * scale * max(mat_norm(p), 1.0):
            raise NotHyperbolic(
                "matrix is not diagonalizable: nilpotent residue "
                f"{mat_norm(nilpotent_part):.3e} on cluster at {z}")
        x += np.log(abs(z)) * p
    return x


def validate_cmjd(g, triple: CmjdTriple, tol: float = DEFAULT_TOL) -> CmjdReport:
    """Check the defining properties of a CMJD triple against g.

    Report-only: residuals for reconstruction, commutation, unipotency,
    unit-modulus spectrum of e and positive-real spectrum of h, each
    compared against tol * ||g||.
    """
    m = to_complex(as_matrix(g))
    n = m.shape[0]
    e, h, u = triple.elliptic, triple.hyperbolic, triple.unipotent
    if e.shape != m.shape or h.shape != m.shape or u.shape != m.shape:
        raise ValueError("factor dimensions do not match g")
    scale = max(mat_norm(m), 1.0)
    eye = np.eye(n, dtype=complex)

    e_vals = np.linalg.eigvals(to_complex(e))
    h_vals = np.linalg.eigvals(to_complex(h))
    residuals = {
        "reconstruction": mat_norm(e @ h @ u - m),
        "commutation": max(
            mat_norm(e @ h - h @ e),
            mat_norm(e @ u - u @ e),
            mat_norm(h @ u - u @ h),
        ),
        "unipotency": mat_norm(np.linalg.matrix_power(to_complex(u) - eye, n)),
        "elliptic_spectrum": float(np.max(np.abs(np.abs(e_vals) - 1.0))),
        "hyperbolic_spectrum": float(np.max(np.abs(h_vals - np.abs(h_vals)))),
    }
    checks = {name: value <= tol * scale for name, value in residuals.items()}
    return CmjdReport(residuals=residuals, checks=checks, tol=tol)


def verify_exp_log(triple: CmjdTriple, tol: float = DEFAULT_TOL) -> dict[str, float]:
    """Round-trip residuals exp(log u) - u and exp(log h) - h."""
    u = triple.unipotent
    h = triple.hyperbolic
    return {
        "unipotent": mat_norm(
            expm(to_complex(unipotent_log(u, tol))) - to_complex(u)),
        "hyperbolic": mat_norm(
            expm(to_complex(hyperbolic_log(h, tol))) - to_complex(h)),
    }
