"""Exception hierarchy shared across the package, plus config value checks.

The CLI maps these onto stable exit codes: ConfigError -> 1,
DataError -> 2, NumericalError -> 3.
"""

import numbers


class MultiVqcError(Exception):
    """Base class for all package errors."""


class ConfigError(MultiVqcError):
    """Invalid configuration value or unusable run setup."""


class ModelDefinitionError(ConfigError):
    """Circuit or model references that cannot be resolved (bad widths,
    unknown parameter/feature ids)."""


class DataError(MultiVqcError):
    """Unusable input data: parse failures, missing values, degenerate labels."""


class NumericalError(MultiVqcError):
    """Non-finite values encountered during training or evaluation."""


class PipelineStateError(MultiVqcError):
    """Preprocessing stages used before fitting or out of order."""


def check_int(name: str, value, low: int, high: float = float("inf")) -> int:
    """``value`` if it is an integer (not a bool) in the range ``low..high``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or not low <= value <= high):
        bounds = f">= {low}" if high == float("inf") else f"in {low}..{high}"
        raise ConfigError(f"{name} must be an integer {bounds}, got {value!r}")
    return value


def check_str(name: str, value) -> str:
    """``value`` if it is a string."""
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, got {value!r}")
    return value


def check_bool(name: str, value) -> bool:
    """``value`` if it is true or false."""
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    return value


def check_enum(name: str, value, enum_type):
    """``value`` as a member of ``enum_type``."""
    try:
        return enum_type(value)
    except ValueError:
        choices = ", ".join(member.value for member in enum_type)
        raise ConfigError(f"{name} must be one of {choices}, got {value!r}") from None
