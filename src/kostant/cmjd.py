"""Complete multiplicative Jordan decomposition g = e * h * u.

The three factors commute: e is elliptic (diagonalizable, unit-modulus
eigenvalues), h is hyperbolic (diagonalizable, positive real eigenvalues),
u is unipotent (all eigenvalues 1). On the generalized eigenspace of
the eigenvalue z, h acts as |z|, e as z/|z| and u as g/z, so each factor
is one product over the block diagonalization g = V T W of
``linalg.spectral_projectors``; no Jordan basis is formed. That kernel
makes one Schur form per matrix and merges the clusters into which
rounding splits a defective eigenvalue, so Jordan blocks of moderate
size decompose. cmjd checks the spectra of its own e and h in that same
basis, by a Bauer-Fike bound that needs one product per factor; the
spectra are computed by ``np.linalg.eigvals`` only when that bound cannot
decide, and always by ``validate_cmjd`` on a triple it is handed.
"""

from __future__ import annotations

import numpy as np

from ._frozen import frozen
from .errors import IllConditioned, NotHyperbolic, Singular
from .linalg import (
    DEFAULT_CLUSTER_TOL,
    SINGULARITY_THRESHOLD,
    SpectralDecomposition,
    as_matrix,
    mat_norm,
    spectral_projectors,
)

DEFAULT_TOL = DEFAULT_CLUSTER_TOL

UNIT_ROUNDOFF = np.finfo(float).eps / 2

SPECTRUM_MARGIN = 100.0
"""How far below tol * max(||g||, 1) a proven spectrum bound must lie to
stand in for the eigenvalues. ``validate_cmjd`` computes the spectrum of
X + E with ||E|| <= p(n) u ||X|| (backward stability of the QR algorithm),
and Bauer-Fike in the same basis puts that within delta (1 + p(n) / (n + 1))
of the coefficients, since delta holds the term gamma_(n+1) ||W|| ||X|| ||V||.
So the independent check's own rounding is of order delta, and with this
margin it cannot read a spectrum residual above the tolerance where cmjd
proved one below it, for any p(n) up to 99 (n + 1)."""


@frozen
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


@frozen
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
    diagonalization. Raises Singular for non-invertible input. The
    spectra of e and h are checked without an eigensolve when the
    Bauer-Fike bound of _spectrum_bounds, in the basis V, lies below
    tol * max(||g||, 1) by the factor SPECTRUM_MARGIN; otherwise
    np.linalg.eigvals computes them as validate_cmjd does.
    """
    m = as_matrix(g)
    decomp = spectral_projectors(m, cluster_tol=tol)
    z = np.array(decomp.spectrum.values)
    r = np.abs(z)
    if r.max() == 0 or r.min() <= SINGULARITY_THRESHOLD * r.max():
        raise Singular("matrix has an eigenvalue at (or numerically at) zero")
    phases = z / r
    h = decomp.combine(r)
    e = decomp.combine(phases)
    u = decomp.combine(1.0 / z) @ m

    bounds = _spectrum_bounds(decomp, e, h, phases, r)
    report = _check_triple(m, e, h, u, tol, bounds)
    if not report.passed:
        failing = [name for name, ok in report.checks.items() if not ok]
        raise IllConditioned(f"decomposition fails {failing} at tolerance {tol:g}")
    residuals = {name: report.residuals[name]
                 for name in ("reconstruction", "commutation", "unipotency")}
    residuals["projector"] = decomp.residual
    return CmjdTriple(elliptic=e, hyperbolic=h, unipotent=u, residuals=residuals)


def _spectrum_bounds(decomp: SpectralDecomposition, e: np.ndarray, h: np.ndarray,
                     e_coeffs, h_coeffs) -> tuple[float, float] | None:
    """Upper bounds on the elliptic and hyperbolic spectrum residuals of
    e ~ sum_i e_coeffs[i] P_i and h ~ sum_i h_coeffs[i] P_i, read in the
    basis V, W of the block diagonalization decomp; None when W is too
    far from V^-1 for the bound to hold.

    Bauer & Fike, "Norms and exclusion theorems", Numer. Math. 2 (1960).
    Let X be e or h, F = diag(c[labels]) its coefficients and
    R = X V - V F. With rho = decomp.residual + gamma_(n+1) ||W|| ||V||
    >= ||W V - I|| (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 3, for the rounding of the computed W V) and
    rho <= 1/2, V is invertible with ||V^-1|| <= ||W|| / (1 - rho), and
    V^-1 X V = F + V^-1 R with F diagonal. So every eigenvalue of X lies
    within
        delta = ||W|| (||R^|| + gamma_(n+1) (||X|| ||V|| + ||V F||)) / (1 - rho)
    of some c_i, where R^ is R as computed and the gamma term bounds its
    rounding (Frobenius norms throughout). Hence ||lambda| - 1| <=
    delta + max_i ||c_i| - 1| for e, and |lambda - |lambda|| <=
    2 delta + max_i |c_i - |c_i|| for h; reading each deviation in
    floating point errs by below 5 u |c_i|, which is added. Asking
    rho <= 1/2 rather than rho < 1 keeps the rounding of the norms
    themselves, of relative order gamma_(n+1), from moving the bounds by
    more than that relative order.
    """
    v, w, labels = decomp.v, decomp.w, decomp.labels
    k = len(labels) + 1
    gamma = k * UNIT_ROUNDOFF / (1 - k * UNIT_ROUNDOFF)  # Higham's gamma_(n+1)
    col_sq = np.einsum("ij,ij->j", v.conj(), v).real
    v_norm = float(np.sqrt(col_sq.sum()))
    w_norm = mat_norm(w)
    rho = decomp.residual + gamma * w_norm * v_norm
    if not rho <= 0.5:
        return None

    def delta(x, c):
        f = c[labels]
        vf_norm = float(np.sqrt(col_sq @ (f.real ** 2 + f.imag ** 2)))
        r_norm = mat_norm(x @ v - v * f)
        return (w_norm * (r_norm + gamma * (mat_norm(x) * v_norm + vf_norm))
                / (1.0 - rho))

    c_e = np.asarray(e_coeffs, dtype=complex)
    c_h = np.asarray(h_coeffs, dtype=complex)
    elliptic = (delta(e, c_e) + float(np.max(np.abs(np.abs(c_e) - 1.0)))
                + 5 * UNIT_ROUNDOFF * float(np.max(np.abs(c_e))))
    hyperbolic = (2 * delta(h, c_h) + float(np.max(np.abs(c_h - np.abs(c_h))))
                  + 5 * UNIT_ROUNDOFF * float(np.max(np.abs(c_h))))
    return elliptic, hyperbolic


def _check_triple(m: np.ndarray, e: np.ndarray, h: np.ndarray, u: np.ndarray,
                  tol: float, bounds: tuple[float, float] | None = None) -> CmjdReport:
    """The checks of validate_cmjd on complex factors of m.

    bounds, from _spectrum_bounds, are proven upper bounds on the
    elliptic and hyperbolic spectrum residuals. They stand in for the two
    eigensolves when both lie below tol * max(||m||, 1) by the factor
    SPECTRUM_MARGIN, so that the independent eigvals check of
    validate_cmjd gives the same verdicts; otherwise (and when bounds is
    None) np.linalg.eigvals computes both spectra.
    """
    n = m.shape[0]
    scale = max(mat_norm(m), 1.0)
    residuals = {
        "reconstruction": mat_norm(e @ h @ u - m),
        "commutation": max(
            mat_norm(e @ h - h @ e),
            mat_norm(e @ u - u @ e),
            mat_norm(h @ u - u @ h),
        ),
        "unipotency": mat_norm(np.linalg.matrix_power(u - np.eye(n), n)),
    }
    if bounds is not None and all(b * SPECTRUM_MARGIN <= tol * scale
                                  for b in bounds):
        residuals["elliptic_spectrum"], residuals["hyperbolic_spectrum"] = bounds
    else:
        e_vals = np.linalg.eigvals(e)
        h_vals = np.linalg.eigvals(h)
        residuals["elliptic_spectrum"] = float(np.max(np.abs(np.abs(e_vals) - 1.0)))
        residuals["hyperbolic_spectrum"] = float(
            np.max(np.abs(h_vals - np.abs(h_vals))))
    checks = {name: value <= tol * scale for name, value in residuals.items()}
    return CmjdReport(residuals=residuals, checks=checks, tol=tol)


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
    m = as_matrix(h)
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
    m = as_matrix(g)
    e, h, u = triple.elliptic, triple.hyperbolic, triple.unipotent
    if e.shape != m.shape or h.shape != m.shape or u.shape != m.shape:
        raise ValueError("factor dimensions do not match g")
    return _check_triple(m, as_matrix(e), as_matrix(h), as_matrix(u), tol)

