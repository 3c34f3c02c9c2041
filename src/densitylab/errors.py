"""Exception taxonomy shared by all densitylab modules.

Every guard in the library raises one of these rather than a bare
ValueError, so callers can distinguish "you asked outside the domain"
from "the construction degenerated" from "numerics gave up".
"""


class DensityLabError(Exception):
    """Base class for all library errors."""


class DomainViolation(DensityLabError):
    """Evaluation point lies outside the family's open domain."""


class ParamViolation(DensityLabError):
    """Family or scenario parameters violate their invariants."""


class Singularity(DensityLabError):
    """A denominator fell below the singularity tolerance."""


class DegenerateDelta(DensityLabError):
    """The trigonometric coefficient vector of the slope equation vanishes."""


class NoRealSolution(DensityLabError):
    """The slope compatibility discriminant is negative: no real angle."""


class LiftAmbiguity(DensityLabError):
    """Adjacent samples step the doubled angle by >= pi/2; refine the path."""


class QuadratureFailure(DensityLabError):
    """The throat-period quadrature could not meet the requested tolerance."""


class RangeViolation(DensityLabError):
    """Argument outside the admissible parameter interval."""


class NotPositiveDefinite(DensityLabError):
    """Band metric coefficient |f| >= 1: quadratic form not positive definite."""


class SingularSystem(DensityLabError):
    """The 2x2 linear system for the angle gradient is singular."""


class DegenerateAllZero(DensityLabError):
    """All three obstruction coefficients vanish; route to degenerate analysis."""


class BranchCollision(DensityLabError):
    """The two candidate angle branches merge; no separated branch exists."""


class NotHomogeneous(DensityLabError):
    """Polynomial is not homogeneous where homogeneity is required."""


class DegreeViolation(DensityLabError):
    """Pairing applied to elements of inadmissible degree."""


class DegreeMismatch(DensityLabError):
    """Paired elements must have matching (or offset-by-one) degrees."""


class DimensionMismatch(DensityLabError):
    """Matrix dimension does not match the basis size."""


class IdentityFailure(DensityLabError):
    """An exact pairing identity failed; carries the identity name and witness."""


class NotPSD(DensityLabError):
    """Matrix is not positive semidefinite; carries a witness vector."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotOnSphere(DensityLabError):
    """Evaluation point is not on the unit sphere."""


class UsageError(DensityLabError):
    """Invalid CLI configuration (exit code 2)."""
