"""Argument checks shared by the store and the runtime above it."""

import math
import numbers
from typing import Optional


def check_timeout(value: Optional[float], name: str, *, none_ok: bool = True,
                  zero_ok: bool = False) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is a positive (or,
    where ``zero_ok``, zero), finite number of seconds (not ``nan``), or
    ``None`` (no limit) where ``none_ok``."""
    if value is None and none_ok:
        return
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (0 <= value if zero_ok else 0 < value) or value == math.inf):
        sign = "non-negative" if zero_ok else "positive"
        raise ValueError(f"{name} must be a {sign}, finite number of seconds"
                         f"{' or None' if none_ok else ''}, got {value!r}")


def check_count(value: int, name: str) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is an int >= 0."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
