"""Exception types shared across the package."""


class KSPMError(Exception):
    """Base class for all kspm errors."""


class InvalidParameter(KSPMError, ValueError):
    """A model parameter or argument is outside its allowed range."""


class FiringNotEnabled(KSPMError):
    """Attempt to fire a column whose height difference is at most p."""


class IndexOutOfRange(KSPMError, IndexError):
    """Negative or otherwise unusable column index."""


class NotMonotone(KSPMError, ValueError):
    """A height profile increases somewhere, so it is not a sand pile."""


class NotStable(KSPMError):
    """An operation required a stable configuration but got an unstable one."""


class NonIntegral(KSPMError, ValueError):
    """An affine step would leave the integer lattice (inconsistent b value)."""


class Inconsistent(KSPMError):
    """Two derivations of the same quantity disagree; indicates a bug."""


class NoMatch(KSPMError):
    """No suffix of the configuration matches the requested pattern."""


class NumericalFailure(KSPMError):
    """A numerical routine (root finder, eigensolver) did not converge."""


class WorkLimitExceeded(KSPMError, RuntimeError):
    """Stabilization exceeded the configured firing budget."""
