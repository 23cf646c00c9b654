"""Exception types shared across the toolkit."""


class PrunescopeError(Exception):
    """Base class for all toolkit errors."""


class ConfigurationError(PrunescopeError):
    """A structural precondition was violated (shapes, wiring, config values)."""


class NumericsError(PrunescopeError):
    """A non-finite value appeared where finite numbers are required."""


class DataFormatError(ConfigurationError):
    """An input file or document does not conform to its declared format."""


class InfeasiblePlanError(PrunescopeError):
    """A pruning budget cannot be met under the given caps and protections."""
