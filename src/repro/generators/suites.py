"""Named instance suites driving the experiment harness and benchmarks.

A :class:`SuiteSpec` names a generator, a list of parameter dictionaries
(the sweep), and how many seeded replications to draw per parameter point.
``benchmarks/`` and :mod:`repro.analysis.experiments` both iterate suites
through :func:`iter_suite`, so the rows printed by the benchmark harness are
reproducible from the suite name alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Tuple

from repro.core.instance import Instance
from repro.generators.restricted import (
    class_uniform_restrictions_instance,
    restricted_instance,
)
from repro.generators.uniform import identical_instance, uniform_instance
from repro.generators.unrelated import class_uniform_ptimes_instance, unrelated_instance

__all__ = ["SuiteSpec", "SUITES", "iter_suite"]


@dataclass(frozen=True)
class SuiteSpec:
    """A named family of generated instances.

    Attributes
    ----------
    name:
        Suite identifier used by the experiments and ``benchmarks/``.
    generator:
        Callable ``(seed=..., **params) -> Instance``.
    sweep:
        List of keyword-argument dictionaries, one per parameter point.
    replications:
        Number of seeds drawn per parameter point.
    base_seed:
        Root seed; the instance seed is ``base_seed + 1000*point + rep``.
    """

    name: str
    generator: Callable[..., Instance]
    sweep: Tuple[Dict[str, object], ...]
    replications: int = 3
    base_seed: int = 20190415  # IPPS 2019 conference date, purely a mnemonic


def iter_suite(spec: SuiteSpec) -> Iterator[Tuple[Dict[str, object], int, Instance]]:
    """Yield ``(params, seed, instance)`` for every point and replication of a suite."""
    for point_index, params in enumerate(spec.sweep):
        for rep in range(spec.replications):
            seed = spec.base_seed + 1000 * point_index + rep
            instance = spec.generator(seed=seed, **params)
            yield dict(params), seed, instance


def _points(**fixed) -> Callable[[List[Dict[str, object]]], Tuple[Dict[str, object], ...]]:
    def build(varying: List[Dict[str, object]]) -> Tuple[Dict[str, object], ...]:
        return tuple({**fixed, **v} for v in varying)
    return build


# ---------------------------------------------------------------------------
# Suites (used by the experiments in repro.analysis.experiments)
# ---------------------------------------------------------------------------

SUITES: Dict[str, SuiteSpec] = {}


def _register(spec: SuiteSpec) -> SuiteSpec:
    SUITES[spec.name] = spec
    return spec


# E1: LPT on uniform machines across setup regimes and sizes.
_register(SuiteSpec(
    name="e1_lpt_uniform",
    generator=uniform_instance,
    sweep=_points(integral=True)([
        {"num_jobs": 40, "num_machines": 4, "num_classes": 5, "setup_regime": "small"},
        {"num_jobs": 40, "num_machines": 4, "num_classes": 5, "setup_regime": "comparable"},
        {"num_jobs": 40, "num_machines": 4, "num_classes": 5, "setup_regime": "dominant"},
        {"num_jobs": 80, "num_machines": 6, "num_classes": 10, "setup_regime": "comparable"},
        {"num_jobs": 120, "num_machines": 8, "num_classes": 15, "setup_regime": "dominant"},
    ]),
))

# E2: PTAS on small uniform instances (exact baseline feasible).
_register(SuiteSpec(
    name="e2_ptas_uniform",
    generator=uniform_instance,
    sweep=_points(integral=True, speed_spread=4.0)([
        {"num_jobs": 12, "num_machines": 3, "num_classes": 3, "setup_regime": "comparable"},
        {"num_jobs": 16, "num_machines": 4, "num_classes": 4, "setup_regime": "comparable"},
        {"num_jobs": 20, "num_machines": 4, "num_classes": 5, "setup_regime": "dominant"},
    ]),
    replications=2,
))

# E3: randomized rounding on unrelated machines.
_register(SuiteSpec(
    name="e3_randomized_rounding",
    generator=unrelated_instance,
    sweep=_points()([
        {"num_jobs": 30, "num_machines": 5, "num_classes": 6, "correlation": "uncorrelated"},
        {"num_jobs": 60, "num_machines": 8, "num_classes": 10, "correlation": "uncorrelated"},
        {"num_jobs": 60, "num_machines": 8, "num_classes": 10, "correlation": "machine_correlated"},
        {"num_jobs": 100, "num_machines": 10, "num_classes": 15, "correlation": "job_correlated"},
    ]),
))

# E5: class-uniform restrictions (2-approximation).
_register(SuiteSpec(
    name="e5_class_uniform_restrictions",
    generator=class_uniform_restrictions_instance,
    sweep=_points()([
        {"num_jobs": 30, "num_machines": 5, "num_classes": 6, "min_eligible": 2, "max_eligible": 4},
        {"num_jobs": 60, "num_machines": 8, "num_classes": 10, "min_eligible": 2, "max_eligible": 5},
        {"num_jobs": 100, "num_machines": 10, "num_classes": 12, "min_eligible": 3, "max_eligible": 7},
    ]),
))

# E6: class-uniform processing times (3-approximation).
_register(SuiteSpec(
    name="e6_class_uniform_ptimes",
    generator=class_uniform_ptimes_instance,
    sweep=_points()([
        {"num_jobs": 30, "num_machines": 5, "num_classes": 6},
        {"num_jobs": 60, "num_machines": 8, "num_classes": 10},
        {"num_jobs": 100, "num_machines": 10, "num_classes": 12},
    ]),
))

# E7: baseline comparison across environments.
_register(SuiteSpec(
    name="e7_baselines_uniform",
    generator=uniform_instance,
    sweep=_points(integral=True)([
        {"num_jobs": 60, "num_machines": 6, "num_classes": 8, "setup_regime": "small"},
        {"num_jobs": 60, "num_machines": 6, "num_classes": 8, "setup_regime": "comparable"},
        {"num_jobs": 60, "num_machines": 6, "num_classes": 8, "setup_regime": "dominant"},
    ]),
))
_register(SuiteSpec(
    name="e7_baselines_unrelated",
    generator=unrelated_instance,
    sweep=_points()([
        {"num_jobs": 60, "num_machines": 6, "num_classes": 8, "setup_range": (1.0, 20.0)},
        {"num_jobs": 60, "num_machines": 6, "num_classes": 8, "setup_range": (50.0, 200.0)},
    ]),
))

# E8: dual search convergence.
_register(SuiteSpec(
    name="e8_dual_search",
    generator=uniform_instance,
    sweep=_points(integral=True)([
        {"num_jobs": 50, "num_machines": 5, "num_classes": 6, "setup_regime": "comparable"},
        {"num_jobs": 100, "num_machines": 10, "num_classes": 10, "setup_regime": "comparable"},
    ]),
))

# E9: scalability sweep (larger sizes; only polynomial algorithms are run).
_register(SuiteSpec(
    name="e9_scalability",
    generator=uniform_instance,
    sweep=_points(integral=True)([
        {"num_jobs": 200, "num_machines": 10, "num_classes": 20},
        {"num_jobs": 500, "num_machines": 20, "num_classes": 40},
        {"num_jobs": 1000, "num_machines": 40, "num_classes": 80},
    ]),
    replications=1,
))

# F1: wide speed spreads for the speed-group structure figure.
_register(SuiteSpec(
    name="f1_speed_groups",
    generator=uniform_instance,
    sweep=_points(integral=False)([
        {"num_jobs": 40, "num_machines": 10, "num_classes": 6, "speed_spread": 64.0},
        {"num_jobs": 60, "num_machines": 20, "num_classes": 8, "speed_spread": 256.0},
    ]),
    replications=1,
))
