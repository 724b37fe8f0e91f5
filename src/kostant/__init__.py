"""Multiplicative Jordan decompositions and the log-majorization order.

The library decomposes invertible complex matrices into commuting
elliptic, hyperbolic, and unipotent factors, decides the partial order
generated by log-majorization of eigenvalue moduli on SL_n(C), and, when
the order fails, constructs a representation whose character strictly
separates the two elements, together with machine-checkable certificates
for both outcomes.

Importing the package loads the moduli layers (symchar, order) only: the
matrix exports of cmjd and linalg, and numpy and scipy's LAPACK extension
with them, load on first use.
"""

import importlib
import sys
import types

from .errors import (
    BadIndex,
    DimensionCap,
    IllConditioned,
    KostantError,
    LengthMismatch,
    NonConvergence,
    NonPositive,
    NotHyperbolic,
    NotSeparable,
    OrderHolds,
    Overflow,
    ParseError,
    Singular,
    SumMismatch,
)
from .order import (
    EQUAL,
    GEQ,
    INCOMPARABLE,
    LEQ,
    LogValue,
    LogVector,
    OrderVerdict,
    SeparatingFunctional,
    SeparatingWitness,
    TTransformCertificate,
    apply_t_transforms,
    find_separating_character,
    kostant_compare,
    permutohedron_certificate,
    separating_sym_power,
    verify_certificate,
)
from .symchar import (
    Compose,
    DirectSum,
    Ext,
    ModuliVector,
    Partition,
    RepSpec,
    Schur,
    Sym,
    Tensor,
    abs_character,
    complete_homogeneous,
    complete_homogeneous_log,
    elementary,
    rep_dim,
    rep_moduli,
    schur,
    spectral_radius_rep,
)

__version__ = "0.1.0"

# Served on first use, so that importing the package or its moduli layers
# (order, symchar, serialize, cli) loads neither numpy nor scipy.
_LAZY = {
    **dict.fromkeys(("CmjdReport", "CmjdTriple", "cmjd", "hyperbolic_log",
                     "validate_cmjd"), "cmjd"),
    **dict.fromkeys(("SpectralDecomposition", "Spectrum", "eigen_spectrum",
                     "mat_norm", "matrix_moduli", "spectral_projectors"), "linalg"),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_LAZY[name]}", __name__)
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


class _Package(types.ModuleType):
    """The package keeps its exports over submodules of the same name.

    The import system binds a submodule on its package when it first
    loads it; the submodule kostant.cmjd would so replace the exported
    function kostant.cmjd, whatever the order of imports.
    """

    def __setattr__(self, name, value):
        if not (name in _LAZY and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
