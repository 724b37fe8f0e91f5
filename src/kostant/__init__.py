"""Multiplicative Jordan decompositions and the log-majorization order.

The library decomposes invertible complex matrices into commuting
elliptic, hyperbolic, and unipotent factors, decides the partial order
generated by log-majorization of eigenvalue moduli on SL_n(C), and, when
the order fails, constructs a representation whose character strictly
separates the two elements, together with machine-checkable certificates
for both outcomes.
"""

from .cmjd import (
    CmjdReport,
    CmjdTriple,
    cmjd,
    hyperbolic_log,
    unipotent_log,
    validate_cmjd,
)
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
    NotUnipotent,
    OrderHolds,
    Overflow,
    ParseError,
    PreconditionFailed,
    Singular,
    SumMismatch,
)
from .linalg import (
    ComplexRational,
    SpectralDecomposition,
    Spectrum,
    eigen_spectrum,
    mat_norm,
    matrix_moduli,
    moduli_from_eigenvalues,
    spectral_projectors,
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
    TopKReport,
    apply_t_transforms,
    check_topk,
    find_separating_character,
    kostant_compare,
    majorize_additive,
    majorize_multiplicative,
    permutohedron_certificate,
    separating_sym_power,
    verify_certificate,
    verify_functional,
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
    kostka_number,
    rep_dim,
    rep_moduli,
    schur,
    spectral_radius_rep,
)

__version__ = "0.1.0"
