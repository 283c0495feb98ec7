"""Scenario specs: reading spec files, unknown-key rejection,
deterministic compilation.

The contracts pinned here:

* literal TOML and JSON spec files load equal to the spec built in code
  and compile to the same ``cache_key()`` task list (specs are read,
  never written, so the fixtures are literal text);
* unknown keys anywhere in a spec file fail loudly, and so do unknown
  algorithms and sweep, ``params`` and ``seed_kwarg`` names the
  generator or algorithm does not take;
* two compiles of one spec produce identical ``cache_key()`` task lists;
* the shipped ``scenarios/*.toml`` files all load;
* a malformed spec file fails with a ``ValueError`` naming the file,
  never a ``TypeError`` / ``AttributeError`` from deep inside the loader;
* ``[scenario.budget] timeout_s`` is a positive, finite number or the
  file fails naming the field.
"""

from __future__ import annotations

import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    AlgorithmSweep,
    ReferencePolicy,
    ScalePreset,
    ScenarioSpec,
    load_scenario,
    scenario_from_dict,
)

SCENARIO_DIR = pathlib.Path(__file__).parent.parent / "scenarios"


def _demo_spec(**overrides) -> ScenarioSpec:
    fields = dict(
        name="demo",
        title="Demo scenario",
        suite="e1_lpt_uniform",
        algorithms=(
            AlgorithmSweep.make("ptas-uniform", {"epsilon": [0.5, 0.25]}),
            AlgorithmSweep.make("randomized-rounding", {"restarts": 1},
                                seed_kwarg="seed"),
            AlgorithmSweep.make("lpt-with-setups"),
        ),
        scales={"quick": ScalePreset(max_points=2), "full": ScalePreset()},
        timeout_s=30.0,
        columns=("algorithm", "n", "makespan"),
        notes=("a note",),
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


def _generator_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="gen-demo",
        generator="unrelated_instance",
        sweep=(
            {"num_jobs": 20, "num_machines": 3, "num_classes": 4,
             "correlation": "uncorrelated", "setup_range": [1.0, 20.0]},
            {"num_jobs": 30, "num_machines": 4, "num_classes": 5,
             "correlation": "machine_correlated",
             "setup_range": [50.0, 200.0]},
        ),
        replications=2,
        base_seed=77,
        algorithms=(AlgorithmSweep.make("class-aware-greedy"),),
        scales={"quick": ScalePreset(max_points=3)},
    )


#: ``_demo_spec()`` as a TOML spec file.
_DEMO_TOML = """\
[scenario]
name = "demo"
title = "Demo scenario"
suite = "e1_lpt_uniform"
columns = ["algorithm", "n", "makespan"]
notes = ["a note"]

[scenario.scales.quick]
max_points = 2

[scenario.scales.full]

[scenario.budget]
timeout_s = 30.0

[[algorithms]]
name = "ptas-uniform"
[algorithms.params]
epsilon = [0.5, 0.25]

[[algorithms]]
name = "randomized-rounding"
seed_kwarg = "seed"
[algorithms.params]
restarts = 1

[[algorithms]]
name = "lpt-with-setups"
"""

#: ``_generator_spec()`` as a TOML spec file.
_GENERATOR_TOML = """\
[scenario]
name = "gen-demo"
replications = 2
base_seed = 77

[scenario.scales.quick]
max_points = 3

[[algorithms]]
name = "class-aware-greedy"

[generator]
name = "unrelated_instance"

[[generator.sweep]]
num_jobs = 20
num_machines = 3
num_classes = 4
correlation = "uncorrelated"
setup_range = [1.0, 20.0]

[[generator.sweep]]
num_jobs = 30
num_machines = 4
num_classes = 5
correlation = "machine_correlated"
setup_range = [50.0, 200.0]
"""


def _demo_data() -> dict:
    """``_demo_spec()`` as a parsed JSON spec file."""
    return {
        "scenario": {
            "name": "demo", "title": "Demo scenario",
            "suite": "e1_lpt_uniform",
            "columns": ["algorithm", "n", "makespan"], "notes": ["a note"],
            "scales": {"quick": {"max_points": 2}, "full": {}},
            "budget": {"timeout_s": 30.0},
        },
        "algorithms": [
            {"name": "ptas-uniform", "params": {"epsilon": [0.5, 0.25]}},
            {"name": "randomized-rounding", "params": {"restarts": [1]},
             "seed_kwarg": "seed"},
            {"name": "lpt-with-setups"},
        ],
    }


def _generator_data() -> dict:
    """``_generator_spec()`` as a parsed JSON spec file, its seeding under
    ``[generator]`` instead of ``[scenario]``."""
    return {
        "scenario": {"name": "gen-demo", "scales": {"quick": {"max_points": 3}}},
        "algorithms": [{"name": "class-aware-greedy"}],
        "generator": {
            "name": "unrelated_instance", "replications": 2, "base_seed": 77,
            "sweep": [
                {"num_jobs": 20, "num_machines": 3, "num_classes": 4,
                 "correlation": "uncorrelated", "setup_range": [1.0, 20.0]},
                {"num_jobs": 30, "num_machines": 4, "num_classes": 5,
                 "correlation": "machine_correlated",
                 "setup_range": [50.0, 200.0]},
            ],
        },
    }


def _keys(spec: ScenarioSpec, scale: str = "quick") -> list:
    return [task.cache_key() for task in spec.compile(scale).tasks]


class TestReader:
    @pytest.mark.parametrize("name, text, expected", [
        ("demo.toml", _DEMO_TOML, _demo_spec),
        ("demo.json", json.dumps(_demo_data()), _demo_spec),
        ("gen.toml", _GENERATOR_TOML, _generator_spec),
        ("gen.json", json.dumps(_generator_data()), _generator_spec),
    ])
    def test_spec_file_loads_equal_to_the_spec_and_its_tasks(
            self, tmp_path, name, text, expected):
        path = tmp_path / name
        path.write_text(text)
        loaded = load_scenario(path)
        assert loaded == expected()
        assert _keys(loaded) == _keys(expected())

    def test_reference_table_loads(self):
        data = _demo_data()
        data["scenario"]["reference"] = {"exact_limit": 400}
        assert (scenario_from_dict(data)
                == _demo_spec(reference=ReferencePolicy(exact_limit=400)))

    def test_unsupported_extension_rejected(self, tmp_path):
        (tmp_path / "demo.yaml").write_text("x")
        with pytest.raises(ValueError, match="extension"):
            load_scenario(tmp_path / "demo.yaml")


class TestUnknownKeys:
    def test_unknown_scenario_key_rejected(self):
        data = _demo_data()
        data["scenario"]["sweeep"] = []
        with pytest.raises(ValueError, match="sweeep"):
            scenario_from_dict(data)

    def test_unknown_top_level_key_rejected(self):
        data = _demo_data()
        data["algoritms"] = []
        with pytest.raises(ValueError, match="algoritms"):
            scenario_from_dict(data)

    def test_unknown_algorithm_key_rejected(self):
        data = _demo_data()
        data["algorithms"][0]["seed_kwargs"] = "seed"
        with pytest.raises(ValueError, match="seed_kwargs"):
            scenario_from_dict(data)

    def test_unknown_scale_key_rejected(self):
        data = _demo_data()
        data["scenario"]["scales"]["quick"]["max_point"] = 3
        with pytest.raises(ValueError, match="max_point"):
            scenario_from_dict(data)

    def test_unknown_budget_key_rejected(self):
        # timeout_s is the only budget key; the two retired cost-model
        # budget keys fail like any typo.
        for key in ("timeout", "budget_factor", "min_budget_s"):
            data = _demo_data()
            data["scenario"]["budget"][key] = 3
            with pytest.raises(ValueError, match=key):
                scenario_from_dict(data)

    def test_file_error_names_the_file(self, tmp_path):
        path = tmp_path / "typo.json"
        data = _demo_data()
        data["scenario"]["moed"] = "grid"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="typo.json"):
            load_scenario(path)

    @pytest.mark.parametrize("text, key", [
        (_GENERATOR_TOML.replace("num_jobs = 20", "num_job = 20"), "num_job"),
        (_GENERATOR_TOML.replace("num_classes = 5\n", ""), "num_classes"),
        (_DEMO_TOML.replace("epsilon = ", "epsilonn = "), "epsilonn"),
        (_DEMO_TOML.replace('"lpt-with-setups"', '"lpt-with-setup"'),
         "lpt-with-setup"),
        (_DEMO_TOML.replace('seed_kwarg = "seed"', 'seed_kwarg = "sed"'),
         "sed"),
    ], ids=["sweep-key", "missing-sweep-key", "params-key", "algorithm",
            "seed_kwarg"])
    def test_a_name_the_code_does_not_take_fails_at_load(self, tmp_path,
                                                          text, key):
        """Each of these used to load and then fail in ``compile`` or in
        every task of the batch."""
        path = tmp_path / "typo.toml"
        path.write_text(text)
        with pytest.raises(ValueError, match=rf"typo\.toml.*'{key}'"):
            load_scenario(path)


class TestTimeout:
    """``[scenario.budget] timeout_s`` must be a positive, finite number
    of seconds: ``nan`` would disable the limit, a negative one would
    turn every task into a timeout sentinel."""

    @pytest.mark.parametrize("literal", ["0", "0.0", "-5.0", "nan", "inf"])
    def test_bad_timeout_in_a_toml_file_names_file_and_field(self, tmp_path,
                                                            literal):
        path = tmp_path / "bad-timeout.toml"
        path.write_text(_DEMO_TOML.replace("timeout_s = 30.0",
                                           f"timeout_s = {literal}"))
        with pytest.raises(ValueError,
                           match=r"bad-timeout\.toml.*timeout_s"):
            load_scenario(path)


class TestReferencePolicy:
    """``exact_limit`` must be a non-negative integer: a negative one
    would silently turn every reference into the LP bound."""

    @pytest.mark.parametrize("value", [-5, True, 1.5])
    def test_bad_exact_limit_names_the_field(self, tmp_path, value):
        with pytest.raises(ValueError, match="exact_limit"):
            ReferencePolicy(exact_limit=value)
        data = _demo_data()
        data["scenario"]["reference"] = {"exact_limit": value}
        path = tmp_path / "bad-reference.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError,
                           match=r"bad-reference\.json.*exact_limit"):
            load_scenario(path)

    def test_time_limit_is_an_unknown_key(self):
        # The reference MILP runs at milp-optimal's own time limit.
        data = _demo_data()
        data["scenario"]["reference"] = {"exact_limit": 600,
                                         "time_limit": 60.0}
        with pytest.raises(ValueError, match="time_limit"):
            scenario_from_dict(data)


class TestValidation:
    def test_exactly_one_instance_source(self):
        with pytest.raises(ValueError, match="exactly one"):
            _demo_spec(suite=None)
        with pytest.raises(ValueError, match="exactly one"):
            _demo_spec(generator="uniform_instance",
                       sweep=({"num_jobs": 10},))

    def test_unknown_suite_and_generator_rejected(self):
        with pytest.raises(ValueError, match="unknown suite"):
            _demo_spec(suite="no_such_suite")
        with pytest.raises(ValueError, match="unknown generator"):
            _demo_spec(suite=None, generator="no_such_generator",
                       sweep=({"num_jobs": 10},))

    def test_portfolio_mode_rejects_grids_and_references(self):
        single = (AlgorithmSweep.make("lpt-with-setups"),)
        with pytest.raises(ValueError, match="single variant"):
            _demo_spec(mode="portfolio")
        with pytest.raises(ValueError, match="grid-mode"):
            _demo_spec(mode="portfolio", algorithms=single,
                       reference=ReferencePolicy())
        # seed_kwarg never reaches portfolio execution (it auto-seeds from
        # instance content) — accepting it would silently drop the
        # declared seeding, so it is rejected too.
        with pytest.raises(ValueError, match="seed_kwarg"):
            _demo_spec(mode="portfolio", algorithms=(
                AlgorithmSweep.make("randomized-rounding",
                                    seed_kwarg="seed"),))

    def test_unknown_algorithm_name_fails_at_compile(self):
        spec = _demo_spec(
            algorithms=(AlgorithmSweep.make("no-such-algorithm"),))
        with pytest.raises(KeyError):
            spec.compile("quick")

    def test_unknown_scale_rejected(self):
        with pytest.raises(KeyError, match="no scale"):
            _demo_spec().compile("galactic")


class TestCompilation:
    def test_two_compiles_have_identical_cache_key_lists(self):
        spec = _demo_spec()
        assert _keys(spec) and _keys(spec) == _keys(spec)

    def test_algorithm_major_order_and_grid_expansion(self):
        spec = _demo_spec()
        compiled = spec.compile("quick")
        points = len(compiled.points)
        assert points == 2  # quick preset caps the suite stream
        names = [t.algorithm for t in compiled.tasks]
        # ptas variants (2 epsilons x points), then rounding, then lpt.
        assert names == (["ptas-uniform"] * (2 * points)
                         + ["randomized-rounding"] * points
                         + ["lpt-with-setups"] * points)
        epsilons = [t.kwargs_dict().get("epsilon")
                    for t in compiled.tasks[:2 * points]]
        assert epsilons == [0.5] * points + [0.25] * points

    def test_seed_kwarg_injects_the_point_seed(self):
        compiled = _demo_spec().compile("quick")
        for task, info in zip(compiled.tasks, compiled.infos):
            if task.algorithm == "randomized-rounding":
                assert task.kwargs_dict()["seed"] == info.seed
                assert info.seed == compiled.points[info.point_index][1]

    def test_scale_presets_trim_points_and_replications(self):
        spec = _generator_spec()
        assert len(spec.points("quick")) == 3  # max_points caps 2x2 points
        full = ScenarioSpec(
            name=spec.name, generator=spec.generator, sweep=spec.sweep,
            replications=spec.replications, base_seed=spec.base_seed,
            algorithms=spec.algorithms,
            scales={"full": ScalePreset(replications=1)})
        assert len(full.points("full")) == 2  # one seed per sweep point


class TestShippedScenarios:
    def test_every_shipped_scenario_loads_and_compiles(self):
        files = sorted(SCENARIO_DIR.glob("*.toml"))
        assert len(files) >= 3, "the scenarios/ directory must ship specs"
        for path in files:
            spec = load_scenario(path)
            compiled = spec.compile("quick")
            assert len(compiled.tasks) > 0, path.name


#: Where a fuzzed value may replace part of a valid spec dict (``()`` is
#: the whole document; keys absent from the base spec are added).
_FIELDS = [
    (), ("scenario",), ("algorithms",), ("generator",),
    *[("scenario", key) for key in (
        "name", "title", "description", "mode", "suite", "replications",
        "base_seed", "columns", "notes", "scales", "budget", "reference")],
    ("scenario", "scales", "quick"), ("scenario", "scales", "quick",
                                      "max_points"),
    ("scenario", "budget", "timeout_s"), ("scenario", "reference"),
    ("scenario", "reference", "exact_limit"),
    ("scenario", "reference", "time_limit"),
    ("algorithms", 0), ("algorithms", 0, "name"), ("algorithms", 0, "params"),
    ("algorithms", 1, "seed_kwarg"), ("generator", "name"),
    ("generator", "sweep"), ("generator", "sweep", 0),
    ("generator", "replications"), ("generator", "base_seed"),
]

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6)


class TestMalformedFiles:
    @settings(max_examples=300, deadline=None)
    @given(where=st.sampled_from(_FIELDS), value=_JSON_VALUES)
    def test_a_malformed_field_fails_with_a_value_error_naming_the_file(
            self, tmp_path_factory, where, value):
        data = (_generator_data() if where[:1] == ("generator",)
                else _demo_data())
        if where:
            parent = data
            for key in where[:-1]:
                parent = (parent.setdefault(key, {})
                          if isinstance(key, str) else parent[key])
            parent[where[-1]] = value
        else:
            data = value
        path = tmp_path_factory.mktemp("fuzz") / "fuzzed-spec.json"
        path.write_text(json.dumps(data))
        try:
            load_scenario(path)
        except ValueError as exc:
            assert "fuzzed-spec.json" in str(exc)

    @pytest.mark.parametrize("text, match", [
        ("[scenario\nname = 'x'", "Expected ']'"),
        ('scenario = "demo"', "'scenario' in the spec top level must be a table"),
        ("algorithms = ['lpt-with-setups']\n[scenario]\nname = 'x'",
         "an \\[\\[algorithms\\]\\] entry must be a table, not str"),
    ])
    def test_malformed_toml_names_the_file(self, tmp_path, text, match):
        path = tmp_path / "broken.toml"
        path.write_text(text)
        with pytest.raises(ValueError, match=match) as info:
            load_scenario(path)
        assert "broken.toml" in str(info.value)
