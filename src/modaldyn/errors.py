"""Exception types for numerically meaningful failure modes."""


class ModalDynError(Exception):
    """Base class for package-specific errors."""


class AmbiguousContinuation(ModalDynError):
    """Spectral tracking cannot assign labels across a grid step.

    The standard fix is to refine the time grid.
    """


class PoleInInterval(ModalDynError):
    """A kernel was requested on an interval containing rate poles."""


class TruncationNotConverged(ModalDynError):
    """The jump-count series still carries weight at the truncation order."""


class ScenarioValidationError(ModalDynError):
    """A scenario file or record violates one of its invariants."""
