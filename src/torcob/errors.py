"""Exceptions shared across the package."""


class TorcobError(Exception):
    """Base class for mathematical failures."""


class VariableMismatch(TorcobError):
    """Two series over different variable lists were combined."""


class NotDivisible(TorcobError):
    """Exact division failed; the dividend is not in the ideal up to truncation."""


class NotInvertible(TorcobError):
    """Unit inversion or compositional inversion is impossible."""


class TruncationInsufficient(TorcobError):
    """The trusted degree of the inputs is too small for the requested operation."""


class ZeroCharacter(TorcobError):
    """A nonzero character was required."""


class NotAClass(TorcobError):
    """A piecewise tuple violates the edge congruences."""


class NoSolution(TorcobError):
    """A linear expansion problem is inconsistent."""


class Ambiguous(TorcobError):
    """A linear expansion problem has more than one solution up to truncation."""


class GraphInvalid(TorcobError):
    """A moment graph violates its structural invariants."""


class TooLarge(TorcobError):
    """An input is refused up front: its size is above a fixed limit."""
