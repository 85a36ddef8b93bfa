"""Exception types shared across the package, and the integer test of its parameter checks."""

import numpy as np


def is_int(value) -> bool:
    """True for an int or a numpy integer; a bool, a float such as 2.0 or a
    string is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


class DimensionError(ValueError):
    """Matrix or subsystem dimensions are unsupported or inconsistent."""


class HermiticityError(ValueError):
    """Input violates a Hermiticity contract beyond tolerance."""


class DomainError(ValueError):
    """Parameter outside the domain of a family, curve, or measure."""


class DegenerateStateError(ValueError):
    """A construction cancelled to (numerically) zero norm."""
