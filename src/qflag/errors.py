"""Exception types shared across the package."""


class QflagError(Exception):
    """Base class for all package errors."""


class DomainError(QflagError):
    """Invalid mathematical input (bad type, non-dominant weight, ...)."""


class SpecializationError(QflagError):
    """Evaluation at a rational point failed (pole, no exact root, degeneration)."""


class DimensionGuardError(QflagError):
    """A module construction exceeded the configured dimension budget."""


class ReducibleModuleError(QflagError):
    """An operation requiring an irreducible module received something else."""


class ConventionError(QflagError):
    """An intertwiner came out inconsistent, non-unique or uncertified."""


class TruncationError(QflagError):
    """A truncated computation detected that its budget was too small."""


class CatalogError(DomainError):
    """A flag specifier outside the irreducible catalog."""
