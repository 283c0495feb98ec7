"""The benchmark's workloads: scenario spec files and how each batch runs.

Each workload is one or more :class:`repro.api.ScenarioSpec` files under
``specs/``.  Their specs are streamed back to back through one
:class:`repro.api.Session` as a single closed-loop batch.  The benchmark's
``--seed`` replaces every spec's ``base_seed``, so one seed always gives
the same instances and a new seed gives new ones.

This module imports ``repro`` only inside functions: the orchestrator in
``run.py`` reads the workload table without importing the package.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Tuple

SPEC_DIR = Path(__file__).resolve().parent / "specs"

#: The scale every spec file declares; it keeps every instance point.
SCALE = "bench"

#: Instance seeds of a spec are ``base_seed + 1000 * point + replication``,
#: so base seeds this far apart never share an instance.
SEED_STRIDE = 100_000


@dataclass(frozen=True)
class Workload:
    """How one workload's batch is built and served.

    ``tasks`` is the declared task count of all specs together.
    ``digest`` asks each run to compare every served makespan with a direct
    ``run_one`` call made outside the timed region.  With
    ``warm_algorithms`` set, set-up stores the results of that many leading
    algorithms of the (single) spec before the timed batch submits the whole
    grid.  ``batches`` is how many times an untraced round streams the
    batch after its one set-up: short batches take several, so that a
    run times more of them than it spends setting up.
    """

    name: str
    specs: Tuple[str, ...]
    backend: str
    tasks: int
    digest: bool = False
    warm_algorithms: int = 0
    batches: int = 1


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("paper-cold", backend="serial", tasks=104,
             specs=("paper-cold-rr.toml", "paper-cold-cur.toml",
                    "paper-cold-ptas.toml")),
    Workload("queue-small", backend="queue", tasks=450, digest=True,
             batches=3, specs=("queue-small.toml",)),
    Workload("sweep-extend", backend="serial", tasks=3000, digest=True,
             warm_algorithms=2, batches=3, specs=("sweep-extend.toml",)),
)}


def load_specs(workload: Workload, seed: int) -> List["ScenarioSpec"]:
    """The workload's specs, re-seeded from the benchmark seed."""
    from repro.api import load_scenario

    if seed < 0:
        raise ValueError(f"--seed must be >= 0, got {seed}")
    return [replace(load_scenario(SPEC_DIR / name),
                    base_seed=seed * SEED_STRIDE)
            for name in workload.specs]


def warm_spec(workload: Workload, spec: "ScenarioSpec") -> "ScenarioSpec":
    """The part of ``spec`` that set-up stores before the timed batch."""
    return replace(spec, algorithms=spec.algorithms[:workload.warm_algorithms])
