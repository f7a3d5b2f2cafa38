"""Error types shared across the package."""


class CoprimespecError(Exception):
    """Base class for all package errors."""


class AmbientMismatch(CoprimespecError):
    """Operands live in different ambient spaces or over different fields."""


class InvalidCoalgebra(CoprimespecError):
    """A comultiplication/counit pair violates the coalgebra laws."""


class InvalidBicomodule(CoprimespecError):
    """A coaction pair violates the bicomodule laws."""


class CoalgebraMismatch(CoprimespecError):
    """An operation required matching coalgebras and got different ones."""


class NotSubbicomodule(CoprimespecError):
    """A subspace was required to be coaction-stable and is not."""


class NotFullyInvariant(CoprimespecError):
    """A subspace was required to be stable under every bicolinear map."""


class ZeroSubmodule(CoprimespecError):
    """The zero subbicomodule was passed where a nonzero one is required."""


class BudgetExceeded(CoprimespecError):
    """An enumeration would exceed the configured budget."""


class ExhaustiveUnavailableOverQ(CoprimespecError):
    """Certified exhaustive enumeration needs a finite field."""


class UnsupportedOverQ(CoprimespecError):
    """The requested computation is only defined over a finite field."""


class InvalidMorphism(CoprimespecError):
    """A linear map is not a coalgebra morphism."""


class ParseError(CoprimespecError):
    """An instance file could not be parsed.

    Carries best-effort position info for error messages.
    """

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class UncertifiedLattice(UserWarning):
    """Result is relative to an enumerated (non-exhaustive) lattice."""
