"""Exception types shared across the package, and its integer, real and name checks."""

import math
from typing import Mapping

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


def check_real(value, what: str, lo: float | None = None) -> float:
    """``value`` as a Python float, once it is an int, a float or a numpy integer
    or float (a bool, a string or a complex number is not), finite and at least
    ``lo`` (no lower end for ``lo=None``); else ``DomainError`` naming ``what``."""
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    try:
        x = float(value) if real else math.nan
    except OverflowError:  # an int beyond the float range
        x = math.inf
    if not (math.isfinite(x) and (lo is None or x >= lo)):
        span = "" if lo is None else f" of at least {lo}"
        raise DomainError(f"{what} must be a finite real number{span}, got {value!r}")
    return x


def check_key(key, table: Mapping, what: str):
    """``table[key]``; else, also for an unhashable ``key``, ``DomainError``
    naming ``what``, ``key`` and the known keys."""
    try:
        return table[key]
    except (KeyError, TypeError):
        raise DomainError(f"unknown {what} {key!r}; known: {tuple(table)}") from None


class DimensionError(ValueError):
    """Matrix or subsystem dimensions are unsupported or inconsistent."""


class HermiticityError(ValueError):
    """Input violates a Hermiticity contract beyond tolerance."""


class DomainError(ValueError):
    """Parameter outside the domain of a family, curve, or measure."""


class DegenerateStateError(ValueError):
    """A construction cancelled to (numerically) zero norm."""
