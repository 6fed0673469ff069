"""Exception hierarchy shared by all tenfold modules."""


class TenfoldError(Exception):
    """Base class for all library errors."""


class InputShapeError(TenfoldError):
    """Input matrix has the wrong shape or violates a structural precondition."""


class GroupTooLargeError(TenfoldError):
    """Multiplicative closure exceeded the element budget."""


class DegenerateDecompositionError(TenfoldError):
    """Random commutant elements kept producing near-degenerate spectra."""


class UnsupportedModeError(TenfoldError):
    """Operation needs the elements of a finite group."""


class NotInvolutiveError(TenfoldError):
    """Anti-unitary operator does not square to a sign times the identity."""


class InconsistentSymmetryError(TenfoldError):
    """Operator is not a symmetry of the structure it is applied to."""


class NotPureTensorError(TenfoldError):
    """Operator restricted to a sector failed the rank-one factor test."""


class UnsupportedConfigurationError(TenfoldError):
    """Symmetry configuration outside the supported decision table."""


class NotInManifoldError(TenfoldError):
    """Point fails the symmetric-space membership test."""


class NotQuadraticError(TenfoldError):
    """Fock operator does not preserve the span of Majorana operators."""


class SpecFileError(TenfoldError):
    """Schema violation in a symmetry-specification file.

    ``field`` names the offending entry, e.g. ``"g0.generators[0]"``.
    """

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")


class SymmetryConsistencyError(TenfoldError):
    """Declared operators are individually valid but mutually inconsistent."""
