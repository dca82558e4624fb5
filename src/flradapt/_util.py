"""Small shared helpers: integer checks, exact integer roots and round-trip
float formatting."""
from __future__ import annotations

import numbers


def check_int(value, name: str, minimum: int) -> int:
    """``value`` as an int; ValueError naming ``name`` unless it is an
    integer of at least ``minimum`` (a bool or an integral float is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def floor_fourth_root(n: int) -> int:
    """Largest integer m with m**4 <= n, computed exactly."""
    if n < 1:
        raise ValueError("n must be >= 1")
    m = int(float(n) ** 0.25)
    while (m + 1) ** 4 <= n:
        m += 1
    while m > 0 and m ** 4 > n:
        m -= 1
    return m


def fmt(value) -> str:
    """Shortest decimal that round-trips the value (repr for floats)."""
    if isinstance(value, float):
        return repr(value)
    return str(value)
