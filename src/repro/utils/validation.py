"""Argument-validation helpers shared across the library.

Raising early with a precise message is cheaper than debugging a silently
mis-shaped NumPy broadcast three layers down an LP model build.
"""

from __future__ import annotations


def check_index(name: str, value: int, upper: int) -> int:
    """Require ``0 <= value < upper`` and return ``int(value)``."""
    iv = int(value)
    if iv != value or iv < 0 or iv >= upper:
        raise ValueError(f"{name} must be an integer in [0, {upper}), got {value!r}")
    return iv
