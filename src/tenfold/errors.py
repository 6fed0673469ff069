"""Exception hierarchy shared by all tenfold modules, and the exit-code
table of ``tenfold.cli``: a category states the exit code and the stderr
label that ``cli.main`` reports it with, and its subclasses inherit both.

    2  input error                 InputShapeError
    2  error                       SpecFileError (field: problem)
    3  symmetry-consistency error  SymmetryConsistencyError
    4  unsupported configuration   UnsupportedConfigurationError
    5  invariant failure           TenfoldError (every other class)
"""


class TenfoldError(Exception):
    """Base class for all library errors: a failed invariant."""
    exit_code, label = 5, "invariant failure"


class InputShapeError(TenfoldError):
    """Input matrix has the wrong shape or violates a structural precondition."""
    exit_code, label = 2, "input error"


class GroupTooLargeError(InputShapeError):
    """Multiplicative closure exceeded the element budget."""


class DegenerateDecompositionError(TenfoldError):
    """G0's eigenclusters did not resolve into isotypic sectors."""


class UnsupportedModeError(InputShapeError):
    """Operation needs the elements of a finite group."""


class SymmetryConsistencyError(TenfoldError):
    """Operators contradict each other or the structure they act on."""
    exit_code, label = 3, "symmetry-consistency error"


class NotInvolutiveError(SymmetryConsistencyError):
    """Anti-unitary operator does not square to a sign times the identity."""


class NotPureTensorError(SymmetryConsistencyError):
    """Operator restricted to a sector failed the rank-one factor test."""


class UnsupportedConfigurationError(TenfoldError):
    """Symmetry configuration outside the supported decision table."""
    exit_code, label = 4, "unsupported configuration"


class NotInManifoldError(InputShapeError):
    """Point fails the symmetric-space membership test."""


class NotQuadraticError(TenfoldError):
    """Fock operator does not preserve the span of Majorana operators."""


class SpecFileError(TenfoldError):
    """Schema violation in a spec or sample file; ``field`` names the
    offending entry, e.g. ``"g0.generators[0]"`` or ``"record[3]"``."""

    exit_code, label = 2, "error"

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")
