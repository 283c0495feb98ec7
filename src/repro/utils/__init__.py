"""Shared utilities: seeded randomness, rounding primitives, validation.

These helpers are deliberately tiny and dependency-free (NumPy only) so that
every other subpackage can rely on them without import cycles.
"""

from repro.utils.rng import ensure_rng
from repro.utils.rounding import (
    arithmetic_grid_round,
    geometric_round,
    next_power_of_two_exponent,
)

__all__ = [
    "ensure_rng",
    "arithmetic_grid_round",
    "geometric_round",
    "next_power_of_two_exponent",
]
