"""Exception types shared across the package."""


class LoopGasError(Exception):
    """Base class for every error raised by this package."""


class DuplicateEdgeError(LoopGasError):
    """The same (variable, check) pair appears twice in an edge list."""


class IndexOutOfRangeError(LoopGasError):
    """An edge references a variable or check index outside [0, n) / [0, m)."""


class MalformedGraphError(LoopGasError):
    """A graph JSON document lacks a required key or has a value of the wrong shape."""


class InconsistentWeightsError(LoopGasError):
    """Weight data does not match the graph (wrong field count, coupling
    subset not contained in the check neighborhood, non-positive beta)."""


class WrongWeightKindError(LoopGasError):
    """An operation was called on a graph whose weight family it does not support."""


class DivisibilityError(LoopGasError):
    """A regular degree pair (l, r) is incompatible with n (n*l not divisible by r)."""


class RejectionBudgetError(LoopGasError):
    """Configuration-model sampling exhausted its restart budget without
    producing a simple graph."""


class InfeasibleDegreeSequenceError(LoopGasError):
    """A degree distribution cannot be realized at the requested size."""


class InvalidDegreeSequenceError(LoopGasError):
    """A degree sequence violates the constraints of a tree-counting formula."""


class BudgetExceededError(LoopGasError):
    """An enumeration or search exceeded its state budget."""


class TooLargeError(LoopGasError):
    """An exact computation was requested beyond its hard size cap."""


class DegreeTooLargeError(LoopGasError):
    """A check's or a variable's degree d exceeds the cap for 2^d-entry tables."""


class WeightOverflowError(LoopGasError):
    """A local weight exp(beta * sum |J|), a loop activity, the loop sum, or
    a polymer-series activity product or term is not a finite float."""


class NoSignChangeError(LoopGasError):
    """A bracketing root solve found no sign change on its interval."""


class InadmissibleKappaError(LoopGasError):
    """An expansion constant kappa lies outside the window where the
    subgraph-decay exponent is positive."""


class LogDomainError(LoopGasError):
    """A logarithm argument was not strictly positive."""


class BoundaryTooCloseError(LoopGasError):
    """Messages sit too close to +-1 for a finite-difference probe."""


class SingularDenominatorError(LoopGasError):
    """A denominator is numerically zero: an activity at a degenerate message
    set, or a BP update at messages saturated at +-1."""


class HypothesisNotMetError(LoopGasError):
    """A bound was requested outside the hypotheses that make it valid."""


class InfeasibleDomainError(LoopGasError):
    """An optimization domain is empty for the requested parameters."""
