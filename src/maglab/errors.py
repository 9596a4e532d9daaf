"""Exception types shared across the library."""


class MaglabError(Exception):
    """Base class for all domain errors; ``diagnostics`` carries the spectrum
    diagnostics behind a refusal, if any."""

    def __init__(self, *args, diagnostics=None):
        super().__init__(*args)
        self.diagnostics = diagnostics


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


class DegenerateQuadraticForm(MaglabError):
    pass


class InsufficientRecords(MaglabError):
    pass


class IndefiniteForm(MaglabError):
    pass


class NotConverged(MaglabError):
    pass


class Inconsistent(MaglabError):
    """The two positive-weighting certificates disagree beyond tolerance."""


class QuadratureDivergence(MaglabError):
    pass
