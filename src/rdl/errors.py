"""Exception types shared across the toolkit."""


class RdlError(Exception):
    """Base class for every error raised by this package.

    Errors that are not an :class:`InputError` are numerical failures.
    """


class InputError(RdlError):
    """The caller's input is at fault: shapes, states, propagators, files or flags."""


class DimensionError(InputError):
    """Operands have incompatible, non-square, or otherwise wrong shapes."""


class UnitarityError(InputError):
    """A matrix that should be unitary is not, within tolerance."""


class HermiticityError(InputError):
    """A matrix that should be Hermitian is not, within tolerance."""


class NotAStateError(InputError):
    """A matrix fails the density-matrix checks (Hermitian, unit trace, positive).

    ``min_eigenvalue`` carries the offending eigenvalue when positivity is what
    failed, and is None otherwise.
    """

    def __init__(self, message: str, min_eigenvalue: float | None = None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class EmptyFamilyError(InputError):
    """A state family ended up with no members."""


class NotInSpanError(InputError):
    """An operator lies outside the span it was asked to be expanded in."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual
