"""Generators for identical and uniformly related machine instances.

The knobs mirror the quantities the PTAS of Section 2 is sensitive to:

* ``speed_spread`` — ratio between the fastest and slowest machine speed
  (controls how many speed groups the PTAS sees);
* ``setup_regime`` — how large setup sizes are relative to job sizes
  ("small", "comparable", "dominant");
* ``jobs_per_class`` distribution — how many jobs share a setup.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.instance import Instance
from repro.utils.rng import RandomState, ensure_rng

__all__ = ["uniform_instance", "identical_instance", "sample_job_classes"]

_SETUP_REGIMES = ("small", "comparable", "dominant")


def sample_job_classes(rng: np.random.Generator, num_jobs: int, num_classes: int,
                       *, skew: float = 1.0) -> np.ndarray:
    """Sample a class label for every job.

    ``skew`` controls how unbalanced class sizes are: 1.0 gives uniform
    class probabilities, larger values concentrate jobs in a few classes
    (Zipf-like), which stresses algorithms that batch whole classes.
    Every class in ``[0, num_classes)`` is guaranteed at least one job when
    ``num_jobs >= num_classes``.
    """
    if num_classes <= 0:
        raise ValueError("num_classes must be positive")
    if num_jobs < 0:
        raise ValueError("num_jobs must be non-negative")
    weights = 1.0 / np.arange(1, num_classes + 1, dtype=float) ** max(skew - 1.0, 0.0)
    weights /= weights.sum()
    # rng.choice(num_classes, size=num_jobs, p=weights), minus its argument checks.
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    labels = cdf.searchsorted(rng.random(num_jobs), side="right")
    if num_jobs >= num_classes:
        # Guarantee every class is non-empty so K really is the class count.
        forced = rng.permutation(num_jobs)[:num_classes]
        labels[forced] = np.arange(num_classes)
    return labels.astype(int)


def _sample_sizes(rng: np.random.Generator, count: int, distribution: str,
                  low: float, high: float) -> np.ndarray:
    """Sample ``count`` sizes from the named distribution on ``[low, high]``."""
    if count == 0:
        return np.zeros(0)
    if distribution == "uniform":
        return rng.uniform(low, high, size=count)
    if distribution == "lognormal":
        raw = rng.lognormal(mean=0.0, sigma=1.0, size=count)
        raw = (raw - raw.min()) / max(raw.max() - raw.min(), 1e-12)
        return low + raw * (high - low)
    if distribution == "bimodal":
        small = rng.uniform(low, low + 0.1 * (high - low), size=count)
        large = rng.uniform(high - 0.1 * (high - low), high, size=count)
        pick = rng.random(count) < 0.5
        return np.where(pick, small, large)
    raise ValueError(f"unknown size distribution {distribution!r}")


def _setup_sizes(rng: np.random.Generator, num_classes: int, regime: str,
                 job_low: float, job_high: float) -> np.ndarray:
    """Setup sizes for the requested regime, relative to the job-size range."""
    if regime not in _SETUP_REGIMES:
        raise ValueError(f"setup_regime must be one of {_SETUP_REGIMES}, got {regime!r}")
    if regime == "small":
        return rng.uniform(0.05 * job_low, 0.5 * job_low, size=num_classes)
    if regime == "comparable":
        return rng.uniform(job_low, job_high, size=num_classes)
    return rng.uniform(2.0 * job_high, 8.0 * job_high, size=num_classes)


def uniform_instance(
    num_jobs: int,
    num_machines: int,
    num_classes: int,
    *,
    seed: RandomState = None,
    speed_spread: float = 8.0,
    job_size_range: Sequence[float] = (1.0, 100.0),
    size_distribution: str = "uniform",
    setup_regime: str = "comparable",
    class_skew: float = 1.0,
    integral: bool = False,
    name: Optional[str] = None,
) -> Instance:
    """Sample a uniformly-related-machines instance.

    Parameters
    ----------
    num_jobs, num_machines, num_classes:
        Instance dimensions (``n``, ``m``, ``K``).
    seed:
        Seed or generator for reproducibility.
    speed_spread:
        Ratio ``v_max / v_min``; speeds are sampled log-uniformly in
        ``[1, speed_spread]``.
    job_size_range:
        ``(low, high)`` range of machine-independent job sizes.
    size_distribution:
        ``"uniform"``, ``"lognormal"`` or ``"bimodal"``.
    setup_regime:
        ``"small"``, ``"comparable"`` or ``"dominant"`` setup sizes relative
        to job sizes.
    class_skew:
        Zipf-like skew of the job-to-class assignment (1.0 = balanced).
    integral:
        Round all sizes and speeds to integers ≥ 1 (the paper assumes
        integral data; most algorithms do not care, the exact MILP baseline
        is faster with integers).
    """
    rng = ensure_rng(seed)
    if speed_spread < 1.0:
        raise ValueError("speed_spread must be at least 1")
    low, high = float(job_size_range[0]), float(job_size_range[1])
    if low <= 0 or high < low:
        raise ValueError("job_size_range must satisfy 0 < low <= high")

    job_sizes = _sample_sizes(rng, num_jobs, size_distribution, low, high)
    setup_sizes = _setup_sizes(rng, num_classes, setup_regime, low, high)
    job_classes = sample_job_classes(rng, num_jobs, num_classes, skew=class_skew)
    speeds = np.exp(rng.uniform(0.0, np.log(speed_spread), size=num_machines))
    if integral:
        job_sizes = np.maximum(1, np.round(job_sizes)).astype(float)
        setup_sizes = np.maximum(1, np.round(setup_sizes)).astype(float)
        speeds = np.maximum(1, np.round(speeds)).astype(float)
    label = name or f"uniform-n{num_jobs}-m{num_machines}-K{num_classes}-{setup_regime}"
    return Instance.uniform(
        job_sizes, setup_sizes, job_classes, speeds, name=label,
        meta={
            "generator": "uniform_instance",
            "speed_spread": speed_spread,
            "setup_regime": setup_regime,
            "size_distribution": size_distribution,
        },
    )


def identical_instance(
    num_jobs: int,
    num_machines: int,
    num_classes: int,
    *,
    seed: RandomState = None,
    job_size_range: Sequence[float] = (1.0, 100.0),
    size_distribution: str = "uniform",
    setup_regime: str = "comparable",
    class_skew: float = 1.0,
    integral: bool = False,
    name: Optional[str] = None,
) -> Instance:
    """Sample an identical-machines instance (all speeds equal to 1)."""
    rng = ensure_rng(seed)
    low, high = float(job_size_range[0]), float(job_size_range[1])
    job_sizes = _sample_sizes(rng, num_jobs, size_distribution, low, high)
    setup_sizes = _setup_sizes(rng, num_classes, setup_regime, low, high)
    job_classes = sample_job_classes(rng, num_jobs, num_classes, skew=class_skew)
    if integral:
        job_sizes = np.maximum(1, np.round(job_sizes)).astype(float)
        setup_sizes = np.maximum(1, np.round(setup_sizes)).astype(float)
    label = name or f"identical-n{num_jobs}-m{num_machines}-K{num_classes}-{setup_regime}"
    return Instance.identical(
        job_sizes, setup_sizes, job_classes, num_machines, name=label,
        meta={
            "generator": "identical_instance",
            "setup_regime": setup_regime,
            "size_distribution": size_distribution,
        },
    )
