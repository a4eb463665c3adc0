"""Exception types shared across the solver stack."""


class NumericsError(Exception):
    """Base class for numerical failures that may carry partial results."""


class TNotSummable(NumericsError):
    """Transfer weights fail to be summable; requires t > 1."""

    def __init__(self, t):
        super().__init__(f"branch weights are summable only for t > 1 (got t={t})")
        self.t = t


class InvalidTol(ValueError):
    """A tolerance argument was not positive, or too large to dedupe with."""


class BranchMiss(NumericsError):
    """No solution was found for an inverse branch index."""

    def __init__(self, k, depth=None):
        loc = "" if depth is None else f" at word depth {depth}"
        super().__init__(f"no inverse-branch solution for index k={k}{loc}")
        self.k = k
        self.depth = depth


class AccuracyNotReached(NumericsError):
    """Adaptive pressure refinement exhausted its budget.

    Carries the best estimate obtained so far in ``estimate``.
    """

    def __init__(self, estimate):
        super().__init__(
            f"pressure uncertainty {estimate.uncertainty:.3g} above target "
            f"(best value {estimate.value:.6g} at t={estimate.t})"
        )
        self.estimate = estimate


class NoBracket(NumericsError):
    """The pressure scan never produced a certified sign change.

    ``trace`` holds the list of (t, value, uncertainty) triples from the scan.
    """

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = list(trace)


class ContinuationError(NumericsError):
    """A continuation track could not be completed; carries the partial track."""

    def __init__(self, message, track=None):
        super().__init__(message)
        self.track = track


class DenominatorNearOne(ContinuationError):
    """The multiplier denominator 1 - (F^n)' came too close to zero."""


class NoExpansion(NumericsError):
    """An orbit-derivative observation contradicted uniform expansion."""


class InsufficientGrid(ValueError):
    """The sweep grid is too small for the requested diagnostic."""
