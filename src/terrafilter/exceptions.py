"""Exception types shared across the package."""


class TerraFilterError(Exception):
    """Base class for all package errors."""


class InvalidInputError(TerraFilterError, ValueError):
    """Raised for malformed arguments: non-finite values, length mismatches,
    non-monotone time stamps."""


class InsufficientDataError(TerraFilterError, ValueError):
    """Raised when a batch fit receives fewer samples than the polynomial
    degree allows (need at least degree + 2 for a variance estimate)."""


class SingularFitError(TerraFilterError, ValueError):
    """Raised when a batch design matrix is numerically rank deficient."""


class NumericalDivergenceError(TerraFilterError, ArithmeticError):
    """Raised when a recursion produces non-finite state. Carries the step
    index at which it happened."""

    def __init__(self, message: str, step_index: int):
        super().__init__(f"{message} (step_index={step_index})")
        self.step_index = step_index


class NotFittedError(TerraFilterError, RuntimeError):
    """Raised when ``step``/``run`` is called before ``fit``."""


class ConfigError(TerraFilterError, ValueError):
    """Raised for invalid or unknown keys in experiment configuration files."""
