"""Exception hierarchy for csaop.

All domain errors derive from :class:`CsaopError` so that callers (and the
CLI) can distinguish "the mathematics refused" from I/O or programming
errors.
"""


class CsaopError(Exception):
    """Base class for all csaop domain errors."""


class DimMismatch(CsaopError):
    """Operands have incompatible shapes."""


class NonFinite(CsaopError):
    """Input contains NaN or infinite entries."""


class NotUnitary(CsaopError):
    """The matrix supplied as the unitary part of an antiunitary operator
    is not unitary within tolerance. Inputs are rejected rather than
    re-orthonormalized, so a failure here usually indicates a caller bug."""


class NotCsa(CsaopError):
    """The operator is not complex-self-adjoint with respect to the given
    antiunitary, but the operation requires it."""


class NotInvariant(CsaopError):
    """A subspace assumed invariant under an antilinear map is not."""


class NotInvolutive(CsaopError):
    """An antilinear map assumed involutive on a subspace is not."""


class UnsupportedDegeneracy(CsaopError):
    """A nonzero singular value is degenerate and the symmetry is not
    involutive, so no fixed orthonormal basis of the eigenspace exists
    (for an anti-involutive symmetry it provably cannot exist)."""


class NumericalFailure(CsaopError):
    """A decomposition was computed but its residuals exceed tolerance."""


class ZInSpectrum(CsaopError):
    """The requested shift is (numerically) in the spectrum, so the
    resolvent does not exist."""


class AsymmetricGrid(CsaopError):
    """A momentum grid is not symmetric under k -> -k."""


class OddDimension(CsaopError):
    """An even dimension is required."""


class HypothesisViolated(CsaopError):
    """An algebraic hypothesis of a construction fails for the given data."""
