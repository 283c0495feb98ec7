"""Declarative scenario specifications.

A :class:`ScenarioSpec` is the serializable description of a sweep: where
the instances come from (a named generator suite or an inline generator +
parameter sweep), which seeds to draw, which algorithms to run with which
parameter grids, how each scale preset trims the grid, the per-task
time limit, and which columns the result table shows.  Specs are plain
frozen dataclasses that

* **round-trip to disk** — :func:`load_scenario` reads ``.toml`` /
  ``.json`` files, :meth:`ScenarioSpec.save` writes them back, and
  ``from_dict(to_dict(spec)) == spec`` holds exactly;
* **compile deterministically** — :meth:`ScenarioSpec.compile` expands
  the spec into a concrete :class:`BatchTask` list whose
  ``cache_key()`` sequence is identical across compiles (and across
  hosts: instances are drawn from seeded generators, and task keys hash
  instance *content*);
* **know nothing about execution** — running a compiled scenario is the
  :class:`repro.api.Session` facade's job.

The grid expansion is algorithm-major: for each algorithm entry, for each
parameter-grid variant (cartesian product in declared key order), for
each instance point of the suite — the same order the experiment harness
has always used, which keeps golden tables byte-stable.
"""

from __future__ import annotations

import json
import math
import tomllib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (Any, Dict, List, Mapping, Optional, Sequence, Tuple,
                    Union)

from repro.core.instance import Instance
from repro.generators import (
    class_uniform_ptimes_instance,
    class_uniform_restrictions_instance,
    identical_instance,
    restricted_instance,
    uniform_instance,
    unrelated_instance,
)
from repro.generators.suites import SUITES, SuiteSpec, iter_suite
from repro.runtime.runner import BatchTask
from repro.store.checks import check_count, check_timeout

__all__ = [
    "GENERATORS",
    "AlgorithmSweep",
    "ScalePreset",
    "ReferencePolicy",
    "TaskInfo",
    "CompiledScenario",
    "ScenarioSpec",
    "load_scenario",
    "scenario_from_dict",
]

#: Generators an inline-sweep spec may name (every exported instance
#: generator).  Registered by function name so spec files read naturally.
GENERATORS: Dict[str, Any] = {
    fn.__name__: fn
    for fn in (uniform_instance, identical_instance, unrelated_instance,
               class_uniform_ptimes_instance, restricted_instance,
               class_uniform_restrictions_instance)
}

#: Point-parameter keys rendered as the ``n`` / ``m`` / ``K`` columns
#: instead of verbatim (kept out of the default column set).
_SIZE_KEYS = ("num_jobs", "num_machines", "num_classes")


def _freeze(value: Any) -> Any:
    """Normalise nested lists to tuples so spec equality is structural."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def _thaw(value: Any) -> Any:
    """Tuples back to lists for JSON/TOML serialization."""
    if isinstance(value, tuple):
        return [_thaw(v) for v in value]
    return value


#: The value kinds a spec file may hold where a key is typed, by the
#: names error messages use (a bool is never a number).
_TYPES = {"a string": (str,), "an integer": (int,), "a number": (int, float),
          "a table": (Mapping,), "an array": (list, tuple)}


def _check_value(value: Any, kind: str, what: str) -> None:
    if isinstance(value, bool) or not isinstance(value, _TYPES[kind]):
        raise ValueError(f"{what} must be {kind}, not {type(value).__name__}")


def _items(values: Optional[Sequence[Any]], kind: str,
           where: str) -> Tuple[Any, ...]:
    """An optional array's elements, each checked to be ``kind``."""
    for value in values or ():
        _check_value(value, kind, f"each element of {where}")
    return tuple(values or ())


def _check_keys(mapping: Any, allowed: Mapping[str, str], where: str) -> None:
    """Reject a non-table, unknown keys, and a value that is not of the
    kind ``allowed`` maps its key to (``None`` counts as absent)."""
    _check_value(mapping, "a table", where)
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ValueError(
            f"unknown key(s) {sorted(unknown)} in {where}; "
            f"allowed: {sorted(allowed)}")
    for key, kind in allowed.items():
        if mapping.get(key) is not None:
            _check_value(mapping[key], kind, f"{key!r} in {where}")


@dataclass(frozen=True)
class AlgorithmSweep:
    """One algorithm entry of a scenario: a name plus a parameter grid.

    ``params`` maps each keyword argument to its *choices*; the grid is
    the cartesian product over all keys, expanded in declared key order
    with choice order preserved (so compiles are deterministic).  A
    scalar choice is a one-element grid.  ``seed_kwarg`` names a keyword
    argument that receives each instance point's suite seed — the hook
    randomized algorithms use to stay reproducible per instance.
    """

    name: str
    params: Tuple[Tuple[str, Tuple[Any, ...]], ...] = ()
    seed_kwarg: Optional[str] = None

    @staticmethod
    def make(name: str, params: Optional[Mapping[str, Any]] = None,
             seed_kwarg: Optional[str] = None) -> "AlgorithmSweep":
        """Build a sweep from a ``{kwarg: choice-or-choices}`` mapping."""
        norm: List[Tuple[str, Tuple[Any, ...]]] = []
        for key, choices in (params or {}).items():
            if not isinstance(choices, (list, tuple)):
                choices = (choices,)
            norm.append((key, tuple(_freeze(c) for c in choices)))
        return AlgorithmSweep(name=name, params=tuple(norm),
                              seed_kwarg=seed_kwarg)

    def variants(self) -> List[Dict[str, Any]]:
        """Every kwargs dict of the grid, in deterministic order."""
        out: List[Dict[str, Any]] = [{}]
        for key, choices in self.params:
            out = [dict(variant, **{key: choice})
                   for variant in out for choice in choices]
        return out

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"name": self.name}
        if self.params:
            data["params"] = {key: [_thaw(c) for c in choices]
                              for key, choices in self.params}
        if self.seed_kwarg is not None:
            data["seed_kwarg"] = self.seed_kwarg
        return data

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "AlgorithmSweep":
        _check_keys(data, {"name": "a string", "params": "a table",
                           "seed_kwarg": "a string"}, "an [[algorithms]] entry")
        if "name" not in data:
            raise ValueError("an [[algorithms]] entry needs a name")
        return AlgorithmSweep.make(data["name"], data.get("params"),
                                   data.get("seed_kwarg"))


@dataclass(frozen=True)
class ScalePreset:
    """How one named scale trims the instance stream.

    ``max_points`` caps the number of ``(params, seed, instance)`` points
    taken from the suite iteration (``None`` keeps them all);
    ``replications`` overrides the suite's seeds-per-parameter-point.
    """

    max_points: Optional[int] = None
    replications: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {}
        if self.max_points is not None:
            data["max_points"] = self.max_points
        if self.replications is not None:
            data["replications"] = self.replications
        return data

    @staticmethod
    def from_dict(data: Mapping[str, Any], where: str) -> "ScalePreset":
        _check_keys(data, {"max_points": "an integer",
                           "replications": "an integer"}, where)
        return ScalePreset(max_points=data.get("max_points"),
                           replications=data.get("replications"))


@dataclass(frozen=True)
class ReferencePolicy:
    """Opt-in reference/ratio columns: each point's reference is a stored
    ``milp-optimal`` result where ``(n + K)·m ≤ exact_limit``, its LP lower
    bound otherwise — see :func:`repro.analysis.ratios.reference_makespans`."""

    exact_limit: int = 600

    def __post_init__(self) -> None:
        check_count(self.exact_limit, "exact_limit in [scenario.reference]")

    def to_dict(self) -> Dict[str, Any]:
        return {"exact_limit": self.exact_limit}

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "ReferencePolicy":
        _check_keys(data, {"exact_limit": "an integer"}, "[scenario.reference]")
        return ReferencePolicy(**{key: value for key, value in data.items()
                                  if value is not None})


@dataclass(frozen=True)
class TaskInfo:
    """Provenance of one compiled task (parallel to the task list)."""

    algorithm: str
    params: Dict[str, Any]
    point_index: int
    seed: int


@dataclass
class CompiledScenario:
    """A spec expanded against one scale: instance points + task grid."""

    spec: "ScenarioSpec"
    scale: str
    points: List[Tuple[Dict[str, Any], int, Instance]]
    tasks: List[BatchTask]
    infos: List[TaskInfo]

    def __len__(self) -> int:
        return len(self.tasks)


@dataclass(frozen=True)
class ScenarioSpec:
    """A declarative, serializable description of one sweep scenario.

    Exactly one of ``suite`` (a name from
    :data:`repro.generators.suites.SUITES`) or ``generator`` (a name from
    :data:`GENERATORS` plus an inline ``sweep`` of parameter points) must
    be given.  ``replications`` / ``base_seed`` override the suite's
    seeding when set (and default to 3 / the suites' shared base seed for
    inline generators).  ``mode`` is ``"grid"`` (every algorithm variant
    on every instance — one row per task) or ``"portfolio"`` (best
    algorithm per instance — one row per instance).  ``timeout_s`` is
    the per-task time limit the scenario runs under (its file key is
    ``[scenario.budget] timeout_s``); it replaces the session's own.
    """

    name: str
    algorithms: Tuple[AlgorithmSweep, ...]
    suite: Optional[str] = None
    generator: Optional[str] = None
    sweep: Tuple[Dict[str, Any], ...] = ()
    replications: Optional[int] = None
    base_seed: Optional[int] = None
    mode: str = "grid"
    title: str = ""
    description: str = ""
    scales: Dict[str, ScalePreset] = field(
        default_factory=lambda: {"quick": ScalePreset(max_points=4),
                                 "full": ScalePreset()})
    timeout_s: Optional[float] = None
    reference: Optional[ReferencePolicy] = None
    columns: Tuple[str, ...] = ()
    notes: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a scenario needs a name")
        if not self.algorithms:
            raise ValueError(f"scenario {self.name!r} declares no algorithms")
        if (self.suite is None) == (self.generator is None):
            raise ValueError(
                f"scenario {self.name!r} must set exactly one of "
                f"suite / generator")
        if self.suite is not None and self.suite not in SUITES:
            raise ValueError(
                f"scenario {self.name!r}: unknown suite {self.suite!r}; "
                f"known: {sorted(SUITES)}")
        if self.generator is not None:
            if self.generator not in GENERATORS:
                raise ValueError(
                    f"scenario {self.name!r}: unknown generator "
                    f"{self.generator!r}; known: {sorted(GENERATORS)}")
            if not self.sweep:
                raise ValueError(
                    f"scenario {self.name!r}: an inline generator needs a "
                    f"non-empty sweep")
        check_timeout(self.timeout_s,
                      f"scenario {self.name!r}: timeout_s in "
                      f"[scenario.budget]")
        if self.mode not in ("grid", "portfolio"):
            raise ValueError(
                f"scenario {self.name!r}: mode must be 'grid' or "
                f"'portfolio', not {self.mode!r}")
        if self.mode == "portfolio":
            for sweep in self.algorithms:
                if len(sweep.variants()) > 1:
                    raise ValueError(
                        f"scenario {self.name!r}: portfolio mode needs a "
                        f"single variant per algorithm "
                        f"({sweep.name!r} declares a grid)")
                if sweep.seed_kwarg is not None:
                    raise ValueError(
                        f"scenario {self.name!r}: seed_kwarg is a grid-mode "
                        f"feature ({sweep.name!r}); portfolio mode seeds "
                        f"randomized algorithms from instance content")
            if self.reference is not None:
                raise ValueError(
                    f"scenario {self.name!r}: reference ratios are a grid-"
                    f"mode feature")
        # Normalise sweep point values (lists -> tuples) so equality is
        # structural across TOML/JSON round-trips.
        object.__setattr__(self, "sweep", tuple(
            {key: _freeze(value) for key, value in point.items()}
            for point in self.sweep))
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "notes", tuple(self.notes))
        object.__setattr__(self, "algorithms", tuple(self.algorithms))

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    def _suite_spec(self, preset: ScalePreset) -> SuiteSpec:
        if self.suite is not None:
            suite = SUITES[self.suite]
            if self.replications is not None:
                suite = replace(suite, replications=self.replications)
            if self.base_seed is not None:
                suite = replace(suite, base_seed=self.base_seed)
        else:
            suite = SuiteSpec(
                name=self.name,
                generator=GENERATORS[self.generator],
                sweep=tuple(dict(point) for point in self.sweep),
                replications=(self.replications
                              if self.replications is not None else 3),
                **({} if self.base_seed is None
                   else {"base_seed": self.base_seed}))
        if preset.replications is not None:
            suite = replace(suite, replications=preset.replications)
        return suite

    def points(self, scale: str = "quick"
               ) -> List[Tuple[Dict[str, Any], int, Instance]]:
        """The ``(params, seed, instance)`` points this scale runs."""
        preset = self.scales.get(scale)
        if preset is None:
            raise KeyError(
                f"scenario {self.name!r} has no scale {scale!r}; "
                f"known: {sorted(self.scales)}")
        pts = list(iter_suite(self._suite_spec(preset)))
        if preset.max_points is not None:
            pts = pts[:preset.max_points]
        return pts

    def compile(self, scale: str = "quick") -> CompiledScenario:
        """Expand into a concrete, deterministic task list.

        Algorithm-major: for each algorithm entry, for each grid variant,
        for each instance point.  Two compiles of the same spec at the
        same scale produce task lists with identical ``cache_key()``
        sequences (the determinism tests pin this).
        """
        from repro.runtime.registry import get_algorithm

        for sweep in self.algorithms:
            get_algorithm(sweep.name)  # fail fast on unknown names
        points = self.points(scale)
        tasks: List[BatchTask] = []
        infos: List[TaskInfo] = []
        for sweep in self.algorithms:
            for variant in sweep.variants():
                for point_index, (_params, seed, instance) in enumerate(points):
                    kwargs = dict(variant)
                    if sweep.seed_kwarg is not None:
                        kwargs[sweep.seed_kwarg] = seed
                    tasks.append(BatchTask.make(sweep.name, instance, kwargs))
                    infos.append(TaskInfo(algorithm=sweep.name,
                                          params=kwargs,
                                          point_index=point_index,
                                          seed=seed))
        return CompiledScenario(spec=self, scale=scale, points=points,
                                tasks=tasks, infos=infos)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        scenario: Dict[str, Any] = {"name": self.name}
        if self.title:
            scenario["title"] = self.title
        if self.description:
            scenario["description"] = self.description
        if self.mode != "grid":
            scenario["mode"] = self.mode
        if self.suite is not None:
            scenario["suite"] = self.suite
        if self.replications is not None:
            scenario["replications"] = self.replications
        if self.base_seed is not None:
            scenario["base_seed"] = self.base_seed
        if self.columns:
            scenario["columns"] = list(self.columns)
        if self.notes:
            scenario["notes"] = list(self.notes)
        scenario["scales"] = {name: preset.to_dict()
                              for name, preset in self.scales.items()}
        if self.timeout_s is not None:
            scenario["budget"] = {"timeout_s": self.timeout_s}
        if self.reference is not None:
            scenario["reference"] = self.reference.to_dict()
        data: Dict[str, Any] = {
            "scenario": scenario,
            "algorithms": [sweep.to_dict() for sweep in self.algorithms],
        }
        if self.generator is not None:
            data["generator"] = {
                "name": self.generator,
                "sweep": [{key: _thaw(value) for key, value in point.items()}
                          for point in self.sweep],
            }
        return data

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent) + "\n"

    def to_toml(self) -> str:
        """Render the spec as TOML (the inverse of :func:`load_scenario`)."""
        data = self.to_dict()
        out: List[str] = []
        scenario = dict(data["scenario"])
        scales = scenario.pop("scales", {})
        budget = scenario.pop("budget", None)
        reference = scenario.pop("reference", None)
        out.append("[scenario]")
        for key, value in scenario.items():
            out.append(f"{key} = {_toml_value(value)}")
        for name, preset in scales.items():
            out.append("")
            out.append(f"[scenario.scales.{name}]")
            for key, value in preset.items():
                out.append(f"{key} = {_toml_value(value)}")
        for header, table in (("budget", budget), ("reference", reference)):
            if table is not None:
                out.append("")
                out.append(f"[scenario.{header}]")
                for key, value in table.items():
                    out.append(f"{key} = {_toml_value(value)}")
        for entry in data["algorithms"]:
            out.append("")
            out.append("[[algorithms]]")
            for key, value in entry.items():
                if key == "params":
                    continue
                out.append(f"{key} = {_toml_value(value)}")
            if "params" in entry:
                out.append("[algorithms.params]")
                for key, value in entry["params"].items():
                    out.append(f"{key} = {_toml_value(value)}")
        if "generator" in data:
            out.append("")
            out.append("[generator]")
            out.append(f"name = {_toml_value(data['generator']['name'])}")
            for point in data["generator"]["sweep"]:
                out.append("")
                out.append("[[generator.sweep]]")
                for key, value in point.items():
                    out.append(f"{key} = {_toml_value(value)}")
        return "\n".join(out) + "\n"

    def save(self, path: Union[str, Path]) -> Path:
        """Write the spec to ``path`` (``.toml`` or ``.json``)."""
        path = Path(path)
        if path.suffix == ".toml":
            path.write_text(self.to_toml())
        elif path.suffix == ".json":
            path.write_text(self.to_json())
        else:
            raise ValueError(
                f"unsupported spec extension {path.suffix!r} "
                f"(use .toml or .json)")
        return path


def _toml_value(value: Any) -> str:
    """Render one Python value as a TOML literal."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return repr(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_toml_value(v) for v in value) + "]"
    raise TypeError(f"cannot render {type(value).__name__} as TOML")


def scenario_from_dict(data: Mapping[str, Any]) -> ScenarioSpec:
    """Build a :class:`ScenarioSpec` from parsed TOML/JSON, rejecting
    unknown keys and mistyped values at every level with a ``ValueError``
    (a typo in a spec file must fail loudly, not silently drop a
    constraint)."""
    _check_keys(data, {"scenario": "a table", "algorithms": "an array",
                       "generator": "a table"}, "the spec top level")
    scenario = data.get("scenario")
    if scenario is None:
        raise ValueError("a spec file needs a [scenario] table")
    _check_keys(scenario, {
        **dict.fromkeys(("name", "title", "description", "mode", "suite"),
                        "a string"),
        "replications": "an integer", "base_seed": "an integer",
        "columns": "an array", "notes": "an array",
        **dict.fromkeys(("scales", "budget", "reference"), "a table")},
        "[scenario]")
    generator = data.get("generator")
    gen_name: Optional[str] = None
    sweep: Tuple[Dict[str, Any], ...] = ()
    replications = scenario.get("replications")
    base_seed = scenario.get("base_seed")
    if generator is not None:
        _check_keys(generator, {"name": "a string", "sweep": "an array",
                                "replications": "an integer",
                                "base_seed": "an integer"}, "[generator]")
        gen_name = generator.get("name")
        sweep = tuple(dict(point) for point in _items(
            generator.get("sweep"), "a table", "[[generator.sweep]]"))
        if replications is None:
            replications = generator.get("replications")
        if base_seed is None:
            base_seed = generator.get("base_seed")
    scales_data = scenario.get("scales")
    budget = scenario.get("budget") or {}
    _check_keys(budget, {"timeout_s": "a number"}, "[scenario.budget]")
    scales = ({name: ScalePreset.from_dict(preset,
                                           f"[scenario.scales.{name}]")
               for name, preset in scales_data.items()}
              if scales_data else
              {"quick": ScalePreset(max_points=4), "full": ScalePreset()})
    return ScenarioSpec(
        name=scenario.get("name", ""),
        algorithms=tuple(AlgorithmSweep.from_dict(entry)
                         for entry in data.get("algorithms") or ()),
        suite=scenario.get("suite"),
        generator=gen_name,
        sweep=sweep,
        replications=replications,
        base_seed=base_seed,
        mode=scenario.get("mode", "grid"),
        title=scenario.get("title", ""),
        description=scenario.get("description", ""),
        scales=scales,
        timeout_s=budget.get("timeout_s"),
        reference=(ReferencePolicy.from_dict(scenario["reference"])
                   if "reference" in scenario else None),
        columns=_items(scenario.get("columns"), "a string", "columns"),
        notes=_items(scenario.get("notes"), "a string", "notes"),
    )


def load_scenario(source: Union[str, Path]) -> ScenarioSpec:
    """Load a scenario spec from a ``.toml`` or ``.json`` file."""
    path = Path(source)
    try:
        if path.suffix == ".toml":
            data = tomllib.loads(path.read_text())
        elif path.suffix == ".json":
            data = json.loads(path.read_text())
        else:
            raise ValueError(f"unsupported spec extension {path.suffix!r} "
                             f"(use .toml or .json)")
        return scenario_from_dict(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
