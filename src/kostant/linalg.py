"""Dense complex matrix kernels.

Eigenvalue computation with modulus-relative clustering, the one spectral
kernel, and the two matrix helpers the decomposition layer needs
(as_matrix, mat_norm). Every matrix is a complex128 numpy array: as_matrix
converts what it is given. Exact-mode payloads keep their supplied
eigenvalues as :class:`ComplexRational` scalars, whose rational moduli
exact_modulus reads.

This is also the one place where a matrix becomes moduli: matrix_moduli
(clustered eigenvalues) and moduli_from_eigenvalues (supplied
eigenvalues, exact when their moduli are rational) hand the order and
character layers a symchar.ModuliVector, and nothing more.

No Jordan basis is ever formed. Each matrix gets one factorization, its
complex Schur form, and ``spectral_projectors`` clusters the eigenvalues
on its diagonal, with the rule ``eigen_spectrum`` applies to the
eigenvalues of ``matrix_moduli``. Clusters that rounding split off one
defective eigenvalue (closer than MERGE_RADIUS, and nilpotent about
their mean up to rounding) are merged back. From that form it block-diagonalizes
g = V T W with W = V^-1, one block per cluster: by one triangular
back-substitution when every cluster is a single eigenvalue, otherwise
by reordering and Sylvester decoupling (Bavely & Stewart, SIAM J.
Numer. Anal. 16, 1979). Then f(g) = sum_i f(z_i) P_i is the one product
(V f) W.

LAPACK comes from scipy's f2py extension scipy.linalg._flapack, loaded
from its file: zgees (the Schur form), ztrtrs (W from the eigenvector
matrix X), ztrsen (reordering) and ztrsyl (Sylvester decoupling). The
scipy.linalg package is not imported: it costs about 0.28 s at start-up,
0.2 s of it scipy's array-API layer, which imports every numpy submodule;
the extension alone loads in a few milliseconds. Each routine is called
as scipy.linalg.schur and solve_triangular call it, workspace query
included, so the results are bit-for-bit theirs, and every info is checked.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
from fractions import Fraction

import numpy as np

from ._frozen import frozen
from .errors import IllConditioned, NonConvergence
from .symchar import ModuliVector


def _load_flapack():
    """scipy's f2py LAPACK extension, run from its file under its own name
    scipy.linalg._flapack; neither scipy nor scipy.linalg is imported. A
    later ``import scipy.linalg`` finds this module in sys.modules."""
    scipy = importlib.util.find_spec("scipy")
    spec = scipy and importlib.machinery.PathFinder.find_spec(
        "scipy.linalg._flapack",
        [os.path.join(path, "linalg") for path in scipy.submodule_search_locations])
    if spec is None:
        raise ImportError("kostant.linalg needs scipy's LAPACK extension "
                          "scipy.linalg._flapack")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
zgees, ztrtrs, ztrsen, ztrsyl = (_flapack.zgees, _flapack.ztrtrs,
                                 _flapack.ztrsen, _flapack.ztrsyl)
del _flapack

DEFAULT_CLUSTER_TOL = 1e-8
MERGE_RADIUS = 1e-3
MERGE_ROUNDING = 100 * np.finfo(float).eps
PROJECTOR_NORM_CAP = 1e12
SINGULARITY_THRESHOLD = 1e-13


class ComplexRational:
    """Gaussian rational a + b*i with Fraction components: an exact
    complex scalar of an exact-mode payload. Supports the field operations.
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
    """Validate and coerce to a square complex128 matrix; object arrays of
    Fraction or ComplexRational convert entrywise by complex()."""
    arr = np.asarray(a)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    return arr.astype(complex)


def mat_norm(a) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(a))


# --- spectra and projectors --------------------------------------------------


@frozen
class Spectrum:
    """Clustered eigenvalues of a square matrix.

    clusters: tuple of (value, algebraic multiplicity), sorted by
    non-increasing modulus; cluster values are multiplicity-weighted
    means of the merged eigenvalues.
    """

    clusters: tuple[tuple[complex, int], ...]
    cluster_tol: float

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


@frozen
class SpectralDecomposition:
    """Block diagonalization g = V T W, with W = V^-1 and T block
    diagonal; blocks[i] holds cluster i of ``spectrum.clusters``, and
    labels[p] is the cluster of diagonal position p (blocks need not lie
    in cluster order along the diagonal). residual is
    max(||W V - I||, ||g V - V T||) (Frobenius, absolute)."""

    spectrum: Spectrum
    v: np.ndarray
    w: np.ndarray
    t: np.ndarray
    blocks: tuple[slice, ...]
    labels: np.ndarray
    residual: float

    @property
    def projectors(self) -> tuple[np.ndarray, ...]:
        """Spectral projectors P_i = V[:, b_i] W[b_i, :], one per cluster."""
        return tuple(self.v[:, b] @ self.w[b, :] for b in self.blocks)

    def projector_norms(self) -> list[float]:
        """Frobenius norms ||P_i||_F without forming P_i, from
        ||V_b W_b||_F^2 = sum_{p,q in b} (V* V)_pq (W W*)_qp: the terms
        p = q, plus twice the real part of each p < q, taken for all
        blocks at once one offset q - p at a time."""
        v, w, labels = self.v, self.w, self.labels
        sq = (np.einsum("ij,ij->j", v.conj(), v).real
              * np.einsum("ij,ij->i", w, w.conj()).real)
        for k in range(1, max(b.stop - b.start for b in self.blocks)):
            same = labels[:-k] == labels[k:]
            vv = np.einsum("ij,ij->j", v[:, :-k].conj(), v[:, k:])
            ww = np.einsum("ij,ij->i", w[k:], w[:-k].conj())
            sq[:-k] += 2 * np.where(same, (vv * ww).real, 0.0)
        sq = np.bincount(labels, weights=sq, minlength=len(self.blocks))
        return np.sqrt(np.maximum(sq, 0.0)).tolist()

    def combine(self, coeffs) -> np.ndarray:
        """sum_i coeffs[i] P_i, formed as the one product (V f) W."""
        f = np.asarray(coeffs, dtype=complex)[self.labels]
        return (self.v * f) @ self.w


def _finite(a) -> np.ndarray:
    m = as_matrix(a)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return m


def _threshold(values: np.ndarray, rel: float) -> float:
    """rel times the largest modulus among values (times 1 if all vanish)."""
    scale = float(np.max(np.abs(values)))
    return rel * (scale if scale > 0 else 1.0)


def _clusters(values: np.ndarray, thr: float) -> list[list[int]]:
    """Indices of values grouped by single linkage on group means.

    Merges the first pair of groups (in index order) whose means lie
    within thr, then repeats until all means are more than thr apart. A
    mean is the sum of the members in merge order over their count.
    """
    n = len(values)
    close = np.abs(values[:, None] - values) <= thr
    if np.count_nonzero(close) == n:  # only the diagonal: nothing merges
        return [[i] for i in range(n)]
    # a group keeps the slot of its first member; a merged-away slot dies,
    # so index order over the live slots is the order of the groups
    items = values.tolist()
    groups = {i: [i] for i in range(n)}
    means = values.astype(complex)
    alive = np.ones(n, dtype=bool)
    close = np.triu(close, 1)
    hits = np.flatnonzero(close)
    while hits.size:
        i, j = divmod(int(hits[0]), n)
        groups[i].extend(groups.pop(j))
        alive[j] = False
        close[j, :] = False
        close[:, j] = False
        means[i] = sum(items[k] for k in groups[i]) / len(groups[i])
        near = (np.abs(means - means[i]) <= thr) & alive
        close[i, i + 1:] = near[i + 1:]
        close[:i, i] = near[:i]
        hits = np.flatnonzero(close)
    return list(groups.values())


def eigen_spectrum(a, cluster_tol: float = DEFAULT_CLUSTER_TOL) -> Spectrum:
    """All eigenvalues of a, with near-coincident values merged.

    Eigenvalues whose distance is at most cluster_tol relative to the
    spectral radius are merged into one cluster; the cluster value is the
    mean of its members. Merging repeats until all cluster values are
    separated by more than the threshold.
    """
    if cluster_tol < 0:
        raise ValueError("cluster_tol must be nonnegative")
    m = _finite(a)
    try:
        vals = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:  # QR iteration budget exhausted
        raise NonConvergence(str(exc)) from exc
    items = vals.tolist()
    groups = _clusters(vals, _threshold(vals, cluster_tol))
    clusters = sorted(
        ((sum(items[k] for k in g) / len(g), len(g)) for g in groups),
        key=lambda c: (-abs(c[0]), -c[0].real, -c[0].imag),
    )
    return Spectrum(clusters=tuple(clusters), cluster_tol=cluster_tol)


def spectral_projectors(a, cluster_tol: float = DEFAULT_CLUSTER_TOL) -> SpectralDecomposition:
    """Block-diagonalize a along its eigenvalue clusters, from one Schur form.

    The complex Schur form a = Z T Z* is the only factorization. Its
    diagonal is clustered by the rule of eigen_spectrum. Rounding splits
    a j x j Jordan block into j eigenvalues about eps^(1/j) apart, so
    clusters whose means lie within MERGE_RADIUS (relative to the
    spectral radius) are then merged into one block, after the blocking
    of Davies & Higham (SIAM J. Matrix Anal. Appl. 25, 2003). A merge
    holds only when rounding explains the split: the block minus its
    mean mu = trace / j is nilpotent up to a backward error of
    MERGE_ROUNDING ||T||_F, to first order
    ||(T_bb - mu I)^j|| <= MERGE_ROUNDING ||T||_F ||T_bb - mu I||^(j-1).
    A Jordan block split by rounding gives a few eps ||T||_F there; a
    diagonalizable pair d apart with coupling s gives sqrt(2) d^2 / (4 s),
    sqrt(2) times its distance d^2 / (4 s) from a defective matrix, so
    only a pair that close to defective (about 70 eps ||T||_F) merges.
    Otherwise the clusters stay apart. Each cluster value is the mean of
    its block's diagonal.

    When every cluster is one eigenvalue (the generic case), T is not
    reordered: V = Z X and W = X^-1 Z*, with X the unit upper triangular
    eigenvector matrix of T from one back-substitution. Otherwise ztrsen
    gathers each cluster into a contiguous block and ztrsyl decouples
    each block from the trailing part (Bavely & Stewart, SIAM J. Numer.
    Anal. 16, 1979). Raises NonConvergence when the Schur form fails, and
    IllConditioned when the triangular solve for W fails, a reordering
    selects the wrong count, a Sylvester equation is singular, or a
    projector's Frobenius norm exceeds PROJECTOR_NORM_CAP (clusters too
    close for the tolerance).
    """
    if cluster_tol < 0:
        raise ValueError("cluster_tol must be nonnegative")
    m = _finite(a)
    n = m.shape[0]
    t, z = _schur(m)
    diag = np.diag(t)
    thr = _threshold(diag, cluster_tol)
    groups = _clusters(diag, thr)
    means = diag if len(groups) == n else np.array(
        [diag[g].sum() / len(g) for g in groups])
    units = _clusters(means, _threshold(diag, MERGE_RADIUS))
    if len(units) == n:
        return _simple_decomposition(m, t, z, cluster_tol)

    cluster_at = np.empty(n, dtype=int)
    for c, g in enumerate(groups):
        cluster_at[g] = c
    unit_of = np.empty(len(groups), dtype=int)
    for u, unit in enumerate(units):
        unit_of[unit] = u
    t, z, perm = _gather(t, z, unit_of[cluster_at])
    cluster_at = cluster_at[perm]
    keys = unit_of[cluster_at]
    bound = MERGE_ROUNDING * np.linalg.norm(t)
    for u, unit in enumerate(units):
        if len(unit) > 1:
            at = np.flatnonzero(keys == u)
            b = slice(at[0], at[-1] + 1)
            if not _nilpotent_about_mean(t[b, b], bound):
                # no merge: each tol-cluster of the unit gets its own key
                keys[b] = len(units) + cluster_at[b]
    t, z, perm = _gather(t, z, keys)
    keys = keys[perm]
    bounds = [0, *(np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist(), n]
    blocks = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]

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
    d = np.zeros_like(t)
    for b in blocks:
        d[b, b] = t[b, b]
    diag = np.diag(t)
    values = np.array([diag[b].sum() / (b.stop - b.start) for b in blocks])
    return _assemble(m, v, w, d, blocks, values, cluster_tol)


def _no_sort(_):
    return None


def _schur(m) -> tuple[np.ndarray, np.ndarray]:
    """Complex Schur form m = Z T Z*, returned as (T, Z): zgees with the
    optimal workspace from its query, as scipy.linalg.schur calls it."""
    lwork = int(zgees(_no_sort, m, lwork=-1)[-2][0].real)
    t, _, _, z, _, info = zgees(_no_sort, m, lwork=lwork)
    if info != 0:
        raise NonConvergence("Schur form not found. Possibly ill-conditioned.")
    return t, z


def _simple_decomposition(m, t, z, cluster_tol) -> SpectralDecomposition:
    """Every eigenvalue its own cluster: T X = X diag(T) with X unit upper
    triangular, X[i, j] = sum_{k>i} T[i, k] X[k, j] / (T[j, j] - T[i, i])."""
    n = m.shape[0]
    diag = np.diag(t)
    x = np.eye(n, dtype=complex)
    for i in range(n - 2, -1, -1):
        x[i, i + 1:] = (t[i, i + 1:] @ x[i + 1:, i + 1:]) / (diag[i + 1:] - diag[i])
    v = z @ x
    # X^-1 Z* from X^T, as solve_triangular hands a C-ordered X to ztrtrs
    w, info = ztrtrs(x.T, z.conj().T, lower=1, trans=1, unitdiag=1)
    if info != 0:
        raise IllConditioned(f"triangular solve for W failed (ztrtrs info {info})")
    blocks = [slice(p, p + 1) for p in range(n)]
    return _assemble(m, v, w, np.diag(diag), blocks, diag, cluster_tol)


def _gather(t, z, keys) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reorder the Schur form so that positions with equal keys are
    adjacent; returns t, z and perm, where keys[perm] are the new keys.

    ztrsen moves the selected eigenvalues to the top in their order and
    keeps the rest in theirs, so one call gathers one key behind the
    keys already gathered.
    """
    n = len(keys)
    perm = np.arange(n)
    pos = 0
    while pos < n:
        current = keys[perm]
        members = current == current[pos]
        count = int(np.count_nonzero(members))
        if not members[pos:pos + count].all():
            members[:pos] = True
            t, z, _, got, _, _, info = ztrsen(members, t, z, job="N")
            if info != 0 or got != pos + count:
                raise IllConditioned(
                    f"Schur reordering selected {got} eigenvalues, expected "
                    f"{pos + count}; clusters too close to reorder")
            perm = np.concatenate((perm[members], perm[~members]))
        pos += count
    return t, z, perm


def _nilpotent_about_mean(block: np.ndarray, bound: float) -> bool:
    """Whether A = block - mu I, mu = trace / j, lies within about bound
    of a nilpotent matrix: ||A^j|| <= bound ||A||^(j-1), evaluated on
    A / ||A||."""
    j = block.shape[0]
    a = block - (np.trace(block) / j) * np.eye(j)
    size = np.linalg.norm(a)
    if size == 0:
        return True
    a /= size
    power = a
    for _ in range(j - 1):
        power = power @ a
    return np.linalg.norm(power) * size <= bound


def _assemble(m, v, w, d, blocks, values, cluster_tol) -> SpectralDecomposition:
    """Sort the clusters by non-increasing modulus, check the residual
    and the projector-norm cap."""
    n = m.shape[0]
    order = np.lexsort((-values.imag, -values.real, -np.abs(values)))
    blocks = tuple(blocks[i] for i in order)
    labels = np.empty(n, dtype=int)
    for c, b in enumerate(blocks):
        labels[b] = c
    clusters = tuple(zip(values[order].tolist(), (b.stop - b.start for b in blocks)))
    spectrum = Spectrum(clusters=clusters, cluster_tol=cluster_tol)
    residual = max(mat_norm(w @ v - np.eye(n)), mat_norm(m @ v - v @ d))
    decomp = SpectralDecomposition(spectrum, v, w, d, blocks, labels, residual)
    worst = max(decomp.projector_norms())
    if not worst <= PROJECTOR_NORM_CAP:
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
