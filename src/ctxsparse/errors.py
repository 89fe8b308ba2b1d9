"""Exception types shared across the package."""


class ContractViolation(ValueError):
    """An operation was called with inputs that break its stated contract."""


class CheckpointError(RuntimeError):
    """A checkpoint file is missing, malformed, or from an incompatible version."""
