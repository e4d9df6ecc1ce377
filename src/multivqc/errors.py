"""Exception hierarchy shared across the package, plus value and document checks.

The CLI maps these onto stable exit codes: ConfigError -> 1,
DataError -> 2, NumericalError -> 3.
"""

import numbers
import sys


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
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")
    if value > high:
        raise ConfigError(f"{name} must be an integer <= {high}, got {value!r}")
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


def check_real(name: str, value) -> float:
    """``value`` if it is a number (not a bool) that is finite and fits a float."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not abs(value) <= sys.float_info.max):  # also rejects NaN
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return value


def check_equal(name: str, value, expected):
    """``value`` if it has the type of ``expected`` and equals it."""
    if type(value) is not type(expected) or value != expected:
        raise ConfigError(f"{name} must be {expected!r}, got {value!r}")
    return value


def check_list(name: str, value, item) -> list:
    """``value`` if it is a list whose every entry passes the check ``item``."""
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a list, got {value!r}")
    for i, entry in enumerate(value):
        item(f"{name}[{i}]", entry)
    return value


def check_optional(check, blank=None, means=None):
    """``check``, but a ``blank`` value passes as ``means``: a leaf that may be
    left out (null) or that a CSV column writes as ``""``."""
    return lambda name, value: means if value == blank else check(name, value)


def check_document(table: dict, document, where: str) -> dict:
    """Each leaf's checked value by path, when ``document`` holds every leaf
    of ``table`` (dotted path -> check) and no key that is not a leaf or on
    the path to one; else a ConfigError naming the path."""
    checked = {}
    for path, check in table.items():
        value = document
        for key in path.split("."):
            if not isinstance(value, dict) or key not in value:
                raise ConfigError(f"{where} lacks key {path!r}")
            value = value[key]
        checked[path] = check(path, value)
    leaves = {tuple(path.split(".")) for path in table}
    sections = {parts[:i] for parts in leaves for i in range(1, len(parts))}
    nodes = [((), document)]
    for prefix, node in nodes:  # grows by each section met
        for key, value in node.items():
            parts = (*prefix, key)
            if parts in sections:
                nodes.append((parts, value))
            elif parts not in leaves:
                raise ConfigError(f"{where} has unknown key {'.'.join(parts)!r}")
    return checked
