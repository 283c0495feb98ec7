"""Random-number-generator plumbing.

All randomized components of the library (instance generators, the
randomized rounding algorithm of Section 3.1, the hardness reduction of
Section 3.2) accept either an integer seed, an existing
:class:`numpy.random.Generator`, or ``None``.  Centralising the coercion
here keeps every experiment reproducible from a single seed.
"""

from __future__ import annotations

from typing import Union

import numpy as np

RandomState = Union[None, int, np.random.Generator, np.random.SeedSequence]


def ensure_rng(seed: RandomState = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        ``None`` (fresh entropy), an ``int`` seed, a ``SeedSequence`` or an
        existing ``Generator`` (returned unchanged).

    Returns
    -------
    numpy.random.Generator
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    if seed is None or isinstance(seed, (int, np.integer)):
        return np.random.default_rng(seed)
    raise TypeError(f"cannot build a Generator from {type(seed).__name__}")
