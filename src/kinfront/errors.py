"""Exception types shared across the package."""


class KinfrontError(Exception):
    """Base class for all package errors."""


class ValidationError(KinfrontError):
    """A model or configuration violates a structural requirement
    (non-normalized density, nonzero mean velocity, bad parameters)."""


class QuadratureNotConverged(KinfrontError):
    """A refinement sequence neither converged nor could be classified
    as a clean divergence within the allowed number of levels."""


class DomainError(KinfrontError):
    """An argument is outside the mathematical domain of the requested
    quantity (e.g. a wave profile past the critical decay rate)."""


class CFLViolation(KinfrontError):
    """Requested time step exceeds the CFL-stable step for the grid."""


class FrontLeftDomain(KinfrontError):
    """The tracked front reached the edge of the computational window
    before the fitting window opened."""
