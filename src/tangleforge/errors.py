"""Exception types shared across the package."""


class TangleforgeError(Exception):
    """Base class for all package errors."""


class PreconditionFailed(TangleforgeError):
    """An operation was called outside its stated domain."""


class ViolationFound(TangleforgeError):
    """A structural axiom failed; carries a concrete witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class SearchSpaceTooLarge(TangleforgeError):
    """An exhaustive search exceeded its node or size cap."""


class NotAPartition(TangleforgeError):
    """The given blocks do not partition the ground set."""


class WeakPetal(TangleforgeError):
    """A flower petal is contained in a tangle member; its index is the witness."""

    def __init__(self, index):
        super().__init__(f"petal {index} is weak")
        self.witness = index


class NotKSeparating(TangleforgeError):
    """A set required to be k-separating is not; carries the witness mask."""

    def __init__(self, witness, value, k):
        super().__init__(f"mask {witness:#x} has connectivity {value} > {k}")
        self.witness = witness
        self.value = value
        self.k = k


class InvalidBreakpoints(TangleforgeError):
    """Concatenation breakpoints do not describe consecutive runs."""


class DichotomyViolation(TangleforgeError):
    """A verified flower is neither an anemone nor a daisy.

    This signals a bug or an invalid input, never a legitimate outcome.
    """

    def __init__(self, witness_indices):
        super().__init__(f"union of petals {sorted(witness_indices)} breaks the dichotomy")
        self.witness_indices = witness_indices


class NonRobustObstruction(TangleforgeError):
    """Flower refinement hit an all-weakly-crossed separation.

    Only possible for non-robust tangles; carries the offending separation.
    """

    def __init__(self, separation, flower=None):
        super().__init__(f"all petals weakly crossed by {separation}")
        self.separation = separation
        self.flower = flower
