"""Small shared helpers: integer checks, exact integer roots, round-trip
float formatting and standard JSON."""
from __future__ import annotations

import math
from numbers import Integral


def check_int(value, name: str, minimum: int) -> int:
    """``value`` as an int; ValueError naming ``name`` unless it is an
    integer of at least ``minimum`` (a bool or an integral float is not)."""
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, Integral)):
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


def finite_or_null(obj):
    """``obj`` with each NaN or infinite float in it as None: standard JSON
    (RFC 8259) has no ``NaN`` or ``Infinity``."""
    if isinstance(obj, dict):
        return {key: finite_or_null(val) for key, val in obj.items()}
    if isinstance(obj, list):
        return list(map(finite_or_null, obj))
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj
