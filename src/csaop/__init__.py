"""csaop: antiunitary symmetries and complex-self-adjoint matrices.

A matrix ``H`` is complex-self-adjoint when ``C H C^{-1} = H*`` for some
antiunitary ``C`` (not necessarily involutive). The package provides the
antiunitary operator algebra, verification and generation of such
matrices, the refined polar decomposition ``H = C^{-1} J |H|``, the
singular-value expansion with J-fixed vectors, antilinear eigenvalue
problems and pseudospectra, a spinorial Fourier-multiplier toy model, and
model-space / generalized-Toeplitz constructions.
"""

from .antieig import (
    AntilinearEigenSystem,
    PseudospectrumGrid,
    antilinear_eigensystem,
    pseudospectrum,
    resolvent_norm,
)
from .antiunitary import (
    AntilinearMap,
    AntiunitaryOp,
    InvolutionClass,
    classify,
    compose_antilinear,
    conjugate_linear_map,
    conjugation_k,
)
from .csa import (
    CsaReport,
    check_c_real,
    check_c_selfadjoint,
    eigen_pairing,
    generate_csa,
    kernel_pairing,
)
from .decomp import (
    RefinedPolar,
    RefinedSVD,
    fix_basis_involutive,
    phase_fix,
    refined_polar,
    refined_svd,
)
from .errors import (
    AsymmetricGrid,
    CsaopError,
    DimMismatch,
    HypothesisViolated,
    NonFinite,
    NotCsa,
    NotInvariant,
    NotInvolutive,
    NotUnitary,
    NumericalFailure,
    OddDimension,
    UnsupportedDegeneracy,
    ZInSpectrum,
)
from .linalg import DEFAULT_TOL, Tolerance

__all__ = [
    "AntilinearEigenSystem",
    "AntilinearMap",
    "AntiunitaryOp",
    "AsymmetricGrid",
    "CsaReport",
    "CsaopError",
    "DEFAULT_TOL",
    "DimMismatch",
    "HypothesisViolated",
    "InvolutionClass",
    "NonFinite",
    "NotCsa",
    "NotInvariant",
    "NotInvolutive",
    "NotUnitary",
    "NumericalFailure",
    "OddDimension",
    "PseudospectrumGrid",
    "RefinedPolar",
    "RefinedSVD",
    "Tolerance",
    "UnsupportedDegeneracy",
    "ZInSpectrum",
    "antilinear_eigensystem",
    "check_c_real",
    "check_c_selfadjoint",
    "classify",
    "compose_antilinear",
    "conjugate_linear_map",
    "conjugation_k",
    "eigen_pairing",
    "fix_basis_involutive",
    "generate_csa",
    "kernel_pairing",
    "phase_fix",
    "pseudospectrum",
    "refined_polar",
    "refined_svd",
    "resolvent_norm",
]
