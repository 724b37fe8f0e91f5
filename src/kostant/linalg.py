"""Dense complex matrix kernels.

Eigenvalue computation with modulus-relative clustering, the one spectral
kernel, and the handful of matrix helpers the decomposition layer needs.
Matrices are plain numpy arrays (complex128); exact-mode inputs use
object arrays of :class:`fractions.Fraction` or :class:`ComplexRational`.

This is also the one place where a matrix becomes moduli: matrix_moduli
(clustered eigenvalues) and moduli_from_eigenvalues (supplied
eigenvalues, exact when their moduli are rational) hand the order and
character layers a symchar.ModuliVector, and nothing more.

No Jordan basis is ever formed. From one complex Schur form,
``spectral_projectors`` block-diagonalizes g = V T W with W = V^-1, one
block per eigenvalue cluster (Bavely & Stewart, SIAM J. Numer. Anal. 16,
1979); then f(g) = sum_i f(z_i) P_i is the one product (V f) W.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import ztrsen, ztrsyl

from .errors import IllConditioned, NonConvergence
from .symchar import ModuliVector

DEFAULT_CLUSTER_TOL = 1e-8
PROJECTOR_NORM_CAP = 1e12
SINGULARITY_THRESHOLD = 1e-13


class ComplexRational:
    """Gaussian rational a + b*i with Fraction components.

    Supports the ring operations plus division, enough to run the
    terminating unipotent-log series exactly inside object arrays.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ComplexRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ComplexRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ComplexRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero ComplexRational")
        return ComplexRational(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return ComplexRational(-self.re, -self.im)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __abs__(self):
        return math.hypot(float(self.re), float(self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def conjugate(self):
        return ComplexRational(self.re, -self.im)

    def modulus_squared(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def __repr__(self):
        return f"ComplexRational({self.re!r}, {self.im!r})"


def _coerce(value):
    if isinstance(value, ComplexRational):
        return value
    if isinstance(value, (int, Fraction)):
        return ComplexRational(value)
    return NotImplemented


def exact_modulus(z) -> Fraction | None:
    """Exact |z| for a rational scalar, or None when it is irrational.

    Works for Fraction, int, and ComplexRational whose |z|^2 happens to be
    a perfect rational square.
    """
    if isinstance(z, (int, Fraction)):
        return abs(Fraction(z))
    if isinstance(z, ComplexRational):
        m2 = z.modulus_squared()
        num, den = m2.numerator, m2.denominator
        rn, rd = math.isqrt(num), math.isqrt(den)
        if rn * rn == num and rd * rd == den:
            return Fraction(rn, rd)
        return None
    return None


# --- matrix plumbing --------------------------------------------------------


def as_matrix(a) -> np.ndarray:
    """Validate and coerce to a square complex matrix (or object array)."""
    arr = np.asarray(a)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if arr.dtype == object:
        return arr
    return arr.astype(complex)


def identity_like(a: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    if a.dtype == object:
        eye = np.array([[1 if i == j else 0 for j in range(n)] for i in range(n)],
                       dtype=object)
        return eye
    return np.eye(n, dtype=complex)


def to_complex(a: np.ndarray) -> np.ndarray:
    """Convert an exact object matrix to complex128 (identity on floats)."""
    arr = as_matrix(a)
    if arr.dtype != object:
        return arr
    out = np.empty(arr.shape, dtype=complex)
    for i in range(arr.shape[0]):
        for j in range(arr.shape[1]):
            out[i, j] = complex(arr[i, j])
    return out


def mat_norm(a, ord="fro") -> float:
    a = np.asarray(a)
    if a.dtype == object:
        return math.sqrt(sum(abs(x) ** 2 for x in a.ravel()))
    return float(np.linalg.norm(a, ord))


# --- spectra and projectors --------------------------------------------------


@dataclass(frozen=True)
class Spectrum:
    """Clustered eigenvalues of a square matrix.

    clusters: tuple of (value, algebraic multiplicity), sorted by
    non-increasing modulus; cluster values are multiplicity-weighted
    means of the merged eigenvalues.
    """

    clusters: tuple[tuple[complex, int], ...]
    cluster_tol: float

    @property
    def dim(self) -> int:
        return sum(m for _, m in self.clusters)

    @property
    def values(self) -> tuple[complex, ...]:
        return tuple(v for v, _ in self.clusters)

    @property
    def radius(self) -> float:
        return max(abs(v) for v, _ in self.clusters)

    def moduli(self) -> list[float]:
        """Eigenvalue moduli with multiplicity, sorted non-increasing."""
        out: list[float] = []
        for v, m in self.clusters:
            out.extend([abs(v)] * m)
        out.sort(reverse=True)
        return out


@dataclass(frozen=True)
class SpectralDecomposition:
    """Block diagonalization g = V T W, with W = V^-1 and T block
    diagonal; blocks[i] holds cluster i of ``spectrum.clusters``.
    residual is max(||W V - I||, ||g V - V T||) (Frobenius, absolute)."""

    spectrum: Spectrum
    v: np.ndarray
    w: np.ndarray
    t: np.ndarray
    blocks: tuple[slice, ...]
    residual: float

    @property
    def projectors(self) -> tuple[np.ndarray, ...]:
        """Spectral projectors P_i = V[:, b_i] W[b_i, :], one per cluster."""
        return tuple(self.v[:, b] @ self.w[b, :] for b in self.blocks)

    def projector_norms(self) -> list[float]:
        """Frobenius norms ||P_i||_F without forming P_i, from
        ||V_b W_b||_F^2 = tr((V_b* V_b)(W_b W_b*)), O(n m_b^2) per block."""
        norms = []
        for b in self.blocks:
            v_b, w_b = self.v[:, b], self.w[b, :]
            gram = (v_b.conj().T @ v_b) * (w_b @ w_b.conj().T).T
            norms.append(math.sqrt(max(float(gram.sum().real), 0.0)))
        return norms

    def combine(self, coeffs) -> np.ndarray:
        """sum_i coeffs[i] P_i, formed as the one product (V f) W."""
        f = np.repeat(np.asarray(coeffs, dtype=complex),
                      [m for _, m in self.spectrum.clusters])
        return (self.v * f) @ self.w


def eigen_spectrum(a, cluster_tol: float = DEFAULT_CLUSTER_TOL) -> Spectrum:
    """All eigenvalues of a, with near-coincident values merged.

    Eigenvalues whose distance is at most cluster_tol relative to the
    spectral radius are merged into one cluster; the cluster value is the
    mean of its members. Merging repeats until all cluster values are
    separated by more than the threshold.
    """
    if cluster_tol < 0:
        raise ValueError("cluster_tol must be nonnegative")
    m = to_complex(a)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    try:
        vals = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:  # QR iteration budget exhausted
        raise NonConvergence(str(exc)) from exc
    scale = float(np.max(np.abs(vals)))
    thr = cluster_tol * (scale if scale > 0 else 1.0)

    # single-linkage merge, then re-merge until means separate by > thr
    groups: list[list[complex]] = [[complex(v)] for v in vals]
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
    clusters = sorted(
        ((sum(g) / len(g), len(g)) for g in groups),
        key=lambda c: (-abs(c[0]), -c[0].real, -c[0].imag),
    )
    return Spectrum(clusters=tuple(clusters), cluster_tol=cluster_tol)


def spectral_projectors(a, spectrum: Spectrum | None = None) -> SpectralDecomposition:
    """Block-diagonalize a along its eigenvalue clusters, from one Schur form.

    ztrsen reorders the Schur form a = Z T Z* so that each cluster (the
    eigenvalues closest to its value) fills one contiguous block; ztrsyl
    then decouples each block from the trailing part, accumulating
    V = Z S and W = S^-1 Z*. The spectrum defaults to eigen_spectrum(a).
    Raises IllConditioned when a reordering selects the wrong count, a
    Sylvester equation is singular, or a projector's Frobenius norm
    exceeds PROJECTOR_NORM_CAP (clusters too close for the tolerance).
    """
    m = to_complex(a)
    n = m.shape[0]
    if spectrum is None:
        spectrum = eigen_spectrum(m)
    if spectrum.dim != n:
        raise ValueError("spectrum does not match matrix dimension")
    mults = [mult for _, mult in spectrum.clusters]
    ends = list(accumulate(mults))
    blocks = tuple(slice(end - mult, end) for end, mult in zip(ends, mults))
    if len(blocks) == 1:
        eye = np.eye(n, dtype=complex)
        return SpectralDecomposition(spectrum, eye, eye, m, blocks, 0.0)

    values = np.array(spectrum.values)
    t, z = sla.schur(m, output="complex")
    for i, end in enumerate(ends[:-1]):
        labels = np.argmin(np.abs(np.diag(t)[:, None] - values), axis=1)
        t, z, _, count, _, _, info = ztrsen(labels <= i, t, z, job="N")
        if info != 0 or count != end:
            raise IllConditioned(
                f"clusters 0..{i}: Schur reordering selected {count} eigenvalues, "
                f"expected {end}; clusters too close for tolerance "
                f"{spectrum.cluster_tol:g}")

    v, w = z, z.conj().T
    for b in blocks[:-1]:
        rest = slice(b.stop, n)
        x, scale, info = ztrsyl(t[b, b], t[rest, rest], t[b, rest], isgn=-1)
        if info != 0:
            raise IllConditioned(f"cluster at rows {b.start}..{b.stop - 1} "
                                 "shares eigenvalues with the trailing block")
        x /= scale
        v[:, rest] -= v[:, b] @ x
        w[b, :] += x @ w[rest, :]
    d = sla.block_diag(*(t[b, b] for b in blocks))

    residual = max(mat_norm(w @ v - np.eye(n)), mat_norm(m @ v - v @ d))
    decomp = SpectralDecomposition(spectrum, v, w, d, blocks, residual)
    worst = max(decomp.projector_norms())
    if worst > PROJECTOR_NORM_CAP:
        raise IllConditioned(
            f"projector norm {worst:.3e} exceeds cap {PROJECTOR_NORM_CAP:.3e}")
    return decomp


# --- matrix -> moduli ----------------------------------------------------------


def matrix_moduli(g, cluster_tol: float = DEFAULT_CLUSTER_TOL) -> ModuliVector:
    """Eigenvalue moduli of a matrix, sorted non-increasing.

    These are exactly the eigenvalues of the hyperbolic factor of g.
    """
    spectrum = eigen_spectrum(g, cluster_tol)
    return ModuliVector.from_values(spectrum.moduli())


def moduli_from_eigenvalues(values) -> ModuliVector:
    """Moduli of externally supplied eigenvalues; exact when possible.

    Rational eigenvalues with exactly rational moduli yield an exact
    vector; anything else falls back to floats.
    """
    exact: list[Fraction] = []
    for z in values:
        mod = exact_modulus(z)
        if mod is None:
            return ModuliVector.from_values([abs(complex(z)) for z in values])
        exact.append(mod)
    return ModuliVector.from_values(exact)
