"""Exception types shared across the package, and the integer check that
raises one."""

import operator


class InvalidConfigError(ValueError):
    """Raised for input that does not describe a valid system or run."""


class RegimeError(ValueError):
    """Raised when a config is outside the CSIT regime a computation is
    defined for, such as `analogy_gap` away from N1 <= k < N2 = M - N1."""


class CapabilityExceededError(ValueError):
    """Raised when a precoder is asked to cancel at more antennas than it can."""


class ResampleRequiredError(RuntimeError):
    """A measure-zero degeneracy (singular submatrix) was hit; draw a new channel."""


def as_integer(value, what: str) -> int:
    """`value` as an int: any integer type passes; a bool, a float or anything
    else raises InvalidConfigError instead of being truncated."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InvalidConfigError(f"{what} must be an integer, got {value!r}")
