"""Exception hierarchy shared across the package."""


class RigraphError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParamsError(RigraphError, ValueError):
    """Model parameters or user input violate a documented invariant."""


class UnachievableError(RigraphError, ValueError):
    """A solver target cannot be met anywhere in the admissible range."""


class RegimeViolationError(RigraphError, ValueError):
    """Parameters fall outside the regime where a quantity is defined
    (e.g. the double-avoidance ratio needs 2*K_1 <= P)."""


class EnumerationBudgetError(RigraphError, RuntimeError):
    """A brute-force enumeration would exceed the hard evaluation budget."""


class InvariantViolation(RigraphError, AssertionError):
    """An internal consistency check failed; indicates a bug, not bad input."""


class WorkerCrashError(RigraphError, RuntimeError):
    """A worker process of the trial pool died (killed, or out of memory)."""


class StateLayoutError(RigraphError, RuntimeError):
    """numpy's PCG64 keeps its state words in a layout the sampler cannot
    seat: the import-time probe read back words that are no permutation of
    the state and increment it had set."""
