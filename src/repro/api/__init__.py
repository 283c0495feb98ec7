"""``repro.api`` — the public front door of the serving stack.

Two ideas, one package:

* **Declarative scenarios** (:mod:`repro.api.spec`) — a
  :class:`ScenarioSpec` describes a sweep (generator suite or inline
  sweep, seeds, algorithm × parameter grid, scale presets, per-task
  time limit, output columns) as data: it round-trips to TOML/JSON files
  under ``scenarios/`` and compiles deterministically to
  :class:`~repro.runtime.BatchTask` lists.
* **The Session facade** (:mod:`repro.api.session`) — a
  :class:`Session` resolves every stack knob (store, backend,
  autoscale, time limit, worker counts) from one
  :class:`SessionConfig` (kwargs > environment > defaults), owns runner
  resolution through the canonical keyed pool, and executes specs:
  ``session.run(spec)``, ``session.stream(spec)``,
  ``session.portfolio(spec)``.

``python -m repro run scenario.toml`` (:mod:`repro.api.cli`) executes
any spec file end to end and renders its
:class:`~repro.analysis.tables.ResultTable` — adding a scenario means
writing a config file, not another bespoke experiment function.
"""

from repro.api.session import ScenarioRun, Session, SessionConfig
from repro.api.spec import (
    GENERATORS,
    AlgorithmSweep,
    CompiledScenario,
    ReferencePolicy,
    ScalePreset,
    ScenarioSpec,
    TaskInfo,
    load_scenario,
    scenario_from_dict,
)

__all__ = [
    "AlgorithmSweep",
    "CompiledScenario",
    "GENERATORS",
    "ReferencePolicy",
    "ScalePreset",
    "ScenarioRun",
    "ScenarioSpec",
    "Session",
    "SessionConfig",
    "TaskInfo",
    "load_scenario",
    "scenario_from_dict",
]
