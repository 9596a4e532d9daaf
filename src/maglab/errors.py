"""Exception types shared across the library."""


class MaglabError(Exception):
    """Base class for all domain errors."""


class NonSquareMatrix(MaglabError):
    pass


class NonFiniteEntry(MaglabError):
    pass


class UnsupportedFamily(MaglabError):
    pass


class InvalidParams(MaglabError):
    pass


class NonpositiveScale(InvalidParams):
    pass


class ExponentOutOfRange(MaglabError):
    pass


class EmptySubset(MaglabError):
    pass


class InvalidMetric(MaglabError):
    """A distance matrix failed metric validation."""


class NotPositiveDefinite(MaglabError):
    """Raised when an operation requires a positive definite similarity matrix.

    Carries the spectrum diagnostics that triggered the refusal.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


class DegenerateQuadraticForm(MaglabError):
    pass


class InsufficientRecords(MaglabError):
    pass


class IndefiniteForm(MaglabError):
    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


class NotConverged(MaglabError):
    pass


class Inconsistent(MaglabError):
    """The two positive-weighting certificates disagree beyond tolerance."""


class QuadratureDivergence(MaglabError):
    pass


class NegativeRatioOnly(MaglabError):
    pass
