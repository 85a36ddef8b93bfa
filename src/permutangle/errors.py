"""Exception types shared across the package, and the integer checks of its parameters."""

import numpy as np


def is_int(value) -> bool:
    """True for an int or a numpy integer; a bool, a float such as 2.0 or a
    string is not one."""
    # an exact int, the common case, takes one type test
    return type(value) is int or (isinstance(value, (int, np.integer))
                                  and not isinstance(value, bool))


def check_int(value, what: str, lo: int, hi: int | None = None) -> int:
    """``value`` as a Python int, once :func:`is_int` accepts it and it lies in
    ``lo..hi`` (no upper end for ``hi=None``); else ``DomainError`` naming ``what``."""
    if not (is_int(value) and lo <= value and (hi is None or value <= hi)):
        span = f"of at least {lo}" if hi is None else f"in {lo}..{hi}"
        raise DomainError(f"{what} must be an int {span}, got {value!r}")
    return int(value)


class DimensionError(ValueError):
    """Matrix or subsystem dimensions are unsupported or inconsistent."""


class HermiticityError(ValueError):
    """Input violates a Hermiticity contract beyond tolerance."""


class DomainError(ValueError):
    """Parameter outside the domain of a family, curve, or measure."""


class DegenerateStateError(ValueError):
    """A construction cancelled to (numerically) zero norm."""
