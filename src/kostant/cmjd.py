"""Complete multiplicative Jordan decomposition g = e * h * u.

The three factors commute: e is elliptic (diagonalizable, unit-modulus
eigenvalues), h is hyperbolic (diagonalizable, positive real eigenvalues),
u is unipotent (all eigenvalues 1). On the generalized eigenspace of
the eigenvalue z, h acts as |z|, e as z/|z| and u as g/z, so each factor
is one product over the block diagonalization g = V T W of
``linalg.spectral_projectors``; no Jordan basis is formed. That kernel
makes one Schur form per matrix and merges the clusters into which
rounding splits a defective eigenvalue, so Jordan blocks of moderate
size decompose; the only other eigenvalue computations are the
independent checks of the spectra of e and h.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IllConditioned, NotHyperbolic, NotUnipotent, Singular
from .linalg import (
    SINGULARITY_THRESHOLD,
    as_matrix,
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
    cluster, and clusters within linalg.MERGE_RADIUS whose block is
    nilpotent about its mean up to rounding are merged (a defective
    eigenvalue split by rounding; see linalg.spectral_projectors). A cluster's value z gives
    h = V diag(|z|) W, e = V diag(z/|z|) W and u = V diag(1/z) W g over
    the block diagonalization g = V T W.

    Never returns a triple that validate_cmjd rejects: raises
    IllConditioned when any of its checks fails at tol (as when a
    defective eigenvalue stays split into clusters), or from the block
    diagonalization. Raises Singular for non-invertible input.
    """
    m = to_complex(as_matrix(g))
    decomp = spectral_projectors(m, cluster_tol=tol)
    z = np.array(decomp.spectrum.values)
    r = np.abs(z)
    if r.max() == 0 or r.min() <= SINGULARITY_THRESHOLD * r.max():
        raise Singular("matrix has an eigenvalue at (or numerically at) zero")
    h = decomp.combine(r)
    e = decomp.combine(z / r)
    u = decomp.combine(1.0 / z) @ m

    report = _check_triple(m, e, h, u, tol)
    if not report.passed:
        failing = [name for name, ok in report.checks.items() if not ok]
        raise IllConditioned(f"decomposition fails {failing} at tolerance {tol:g}")
    residuals = {name: report.residuals[name]
                 for name in ("reconstruction", "commutation", "unipotency")}
    residuals["projector"] = decomp.residual
    return CmjdTriple(elliptic=e, hyperbolic=h, unipotent=u, residuals=residuals)


def _check_triple(m: np.ndarray, e: np.ndarray, h: np.ndarray, u: np.ndarray,
                  tol: float) -> CmjdReport:
    """The checks of validate_cmjd on complex factors of m."""
    n = m.shape[0]
    e_vals = np.linalg.eigvals(e)
    h_vals = np.linalg.eigvals(h)
    residuals = {
        "reconstruction": mat_norm(e @ h @ u - m),
        "commutation": max(
            mat_norm(e @ h - h @ e),
            mat_norm(e @ u - u @ e),
            mat_norm(h @ u - u @ h),
        ),
        "unipotency": mat_norm(np.linalg.matrix_power(u - np.eye(n), n)),
        "elliptic_spectrum": float(np.max(np.abs(np.abs(e_vals) - 1.0))),
        "hyperbolic_spectrum": float(np.max(np.abs(h_vals - np.abs(h_vals)))),
    }
    scale = max(mat_norm(m), 1.0)
    checks = {name: value <= tol * scale for name, value in residuals.items()}
    return CmjdReport(residuals=residuals, checks=checks, tol=tol)


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

    X = V diag(log|z|) W = sum_i log|z_i| P_i over the block
    diagonalization h = V T W from the one Schur form of h; exp(X) = h.
    Raises NotHyperbolic if any eigenvalue is non-positive-real beyond
    tolerance, or if h is not diagonalizable: a nilpotent residue
    (h - zI) P_i = V_b (T_bb - zI) W_b above
    tol * max(radius, 1) * max(||P_i||, 1). A defective eigenvalue that
    rounding split is merged into one cluster first, so it meets this
    check too.
    """
    m = to_complex(as_matrix(h))
    decomp = spectral_projectors(m, cluster_tol=tol)
    spectrum = decomp.spectrum
    scale = max(spectrum.radius, 1.0)
    for z, _ in spectrum.clusters:
        if z.real <= 0 or abs(z.imag) > tol * scale:
            raise NotHyperbolic(f"eigenvalue {z} is not positive real")
    for (z, _), b, p_norm in zip(spectrum.clusters, decomp.blocks,
                                 decomp.projector_norms()):
        t_b = decomp.t[b, b] - z * np.eye(b.stop - b.start)
        residue = mat_norm(decomp.v[:, b] @ t_b @ decomp.w[b, :])
        if residue > tol * scale * max(p_norm, 1.0):
            raise NotHyperbolic(
                "matrix is not diagonalizable: nilpotent residue "
                f"{residue:.3e} on cluster at {z}")
    return decomp.combine(np.log(np.abs(spectrum.values)))


def validate_cmjd(g, triple: CmjdTriple, tol: float = DEFAULT_TOL) -> CmjdReport:
    """Check the defining properties of a CMJD triple against g.

    Report-only: residuals for reconstruction, commutation, unipotency,
    unit-modulus spectrum of e and positive-real spectrum of h, each
    compared against tol * max(||g||, 1); cmjd raises on the same checks.
    """
    m = to_complex(as_matrix(g))
    e, h, u = triple.elliptic, triple.hyperbolic, triple.unipotent
    if e.shape != m.shape or h.shape != m.shape or u.shape != m.shape:
        raise ValueError("factor dimensions do not match g")
    return _check_triple(m, to_complex(e), to_complex(h), to_complex(u), tol)

