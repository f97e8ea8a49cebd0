"""Exception types shared across the package."""


class SubgossError(Exception):
    """Base class for all package-specific errors."""


class InvalidDimensionError(SubgossError, ValueError):
    """Vector/matrix dimensions do not match the expected shape."""


class InvalidConfigError(SubgossError, ValueError):
    """A configuration value violates a domain constraint."""


class InsufficientSamplesError(SubgossError):
    """An estimator was asked for before every design direction was played."""


class NumericalDegeneracyError(SubgossError):
    """A matrix that must be positive definite is not."""


class GenerationFailureError(SubgossError):
    """Random instance generation could not satisfy the disjointness invariant."""


class DegenerateInstanceError(SubgossError):
    """Two subspaces explain the hidden vector equally well (zero gap)."""


class InvariantViolationError(SubgossError):
    """An agent-state invariant was broken mid-run."""


class ProtocolError(SubgossError):
    """A gossip message carried an out-of-range payload."""


class SpreadMomentOverflowError(InvalidConfigError):
    """b**(2*tau) exceeded float range during moment estimation: a b too large
    for the graph's spread times, so a configuration error."""
