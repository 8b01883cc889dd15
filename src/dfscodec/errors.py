"""Exception types shared across the package."""


class DfsCodecError(Exception):
    """Base class for every error this package raises on purpose."""


class NotAGroup(DfsCodecError):
    """A candidate Cayley table violates one of the group axioms."""


class UnknownBuiltin(DfsCodecError, ValueError):
    """A spec names no built-in group or representation."""


class GroupTooLarge(DfsCodecError):
    """Group order exceeds ``limits.MAX_GROUP_ORDER``."""


class ResourceLimit(DfsCodecError):
    """A dense object would exceed a size budget in :mod:`dfscodec.limits`."""


class NotFaithful(DfsCodecError):
    """Two group elements map to the same matrix."""


class RMaxExceeded(DfsCodecError):
    """No tensor power up to the search cap contains the regular representation."""


class NonIntegerMultiplicity(DfsCodecError):
    """Character arithmetic produced a non-integer irrep multiplicity."""


class MissingIrrepMatrices(DfsCodecError):
    """A multi-dimensional irrep is present but no explicit matrices were supplied."""


class NumericalDegeneracy(DfsCodecError):
    """Gram-Schmidt found fewer independent vectors than the integer multiplicity."""


class RegularRepMissing(DfsCodecError):
    """The decomposition does not contain the regular representation."""


class ConditionOneViolated(DfsCodecError):
    """Token states are not mutually orthogonal."""


class ConditionTwoViolated(DfsCodecError):
    """Token states are not closed under the collective action."""


class DimensionMismatch(DfsCodecError):
    """Operands disagree on local dimension or register size."""


class BadTarget(DfsCodecError):
    """A qudit index is out of range or repeated."""


class NonOrthogonalProjectors(DfsCodecError):
    """Measurement projectors overlap beyond tolerance."""


class PerpOutcome(DfsCodecError):
    """The remainder outcome was sampled; the received state left the token span."""


class NotAbelian(DfsCodecError):
    """An abelian-only construction was asked for a non-abelian group."""


class UnsupportedDimension(DfsCodecError):
    """Gate-level synthesis is only available for qubits."""


class BadNormalization(DfsCodecError):
    """Coefficient pairs must be normalized."""
