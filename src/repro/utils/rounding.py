"""Rounding primitives used by the PTAS simplification steps (Section 2.1).

Two roundings appear in the paper:

* *Arithmetic-grid rounding* (due to Gálvez et al.): a value ``t`` with
  ``e(t) = floor(log2 t)`` is rounded **up** to ``2^e(t) + k·ε·2^e(t)`` for
  the smallest integer ``k`` that reaches ``t``.  The result is within a
  factor ``1 + ε`` of ``t`` and, within one binade, lies on an arithmetic
  grid of step ``ε·2^e`` — which is what bounds ``|B_g|`` in the dynamic
  program.
* *Geometric rounding* of machine speeds: a speed ``v`` is rounded **down**
  to ``(1+ε)^k · v_min`` so that at most ``O(log_{1+ε}(v_max/v_min))``
  distinct speeds remain.
"""

from __future__ import annotations

import math


def next_power_of_two_exponent(value: float) -> int:
    """Return ``e(t) = floor(log2 t)`` for a positive value ``t``."""
    if value <= 0:
        raise ValueError("value must be positive")
    return int(math.floor(math.log2(value)))


def arithmetic_grid_round(value: float, epsilon: float) -> float:
    """Round ``value`` up onto the Gálvez arithmetic grid for accuracy ``epsilon``.

    The rounded value equals ``2^e + k·ε·2^e`` with
    ``k = ceil((value - 2^e) / (ε·2^e))`` and satisfies
    ``value <= rounded <= (1 + ε)·value``.
    """
    if value < 0:
        raise ValueError("value must be non-negative")
    if value == 0:
        return 0.0
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    e = next_power_of_two_exponent(value)
    base = 2.0**e
    step = epsilon * base
    k = math.ceil((value - base) / step - 1e-12)
    k = max(k, 0)
    rounded = base + k * step
    # Guard against floating point slip below the original value.
    if rounded < value - 1e-12 * max(1.0, value):
        rounded += step
    return rounded


def geometric_round(value: float, epsilon: float, floor_value: float) -> float:
    """Round ``value`` down to ``(1+ε)^k · floor_value`` (``k`` integer, ``k ≥ 0``).

    Mirrors the speed rounding of the PTAS: speeds are normalised by the
    smallest remaining speed ``v_min`` and snapped down onto a geometric
    grid, losing at most a factor ``1 + ε``.
    """
    if value <= 0 or floor_value <= 0:
        raise ValueError("value and floor_value must be positive")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if value < floor_value:
        raise ValueError("value must be at least floor_value")
    k = int(math.floor(math.log(value / floor_value) / math.log1p(epsilon) + 1e-12))
    return floor_value * (1.0 + epsilon) ** k
