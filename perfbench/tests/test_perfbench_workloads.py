"""The workload specs compile as declared and match BENCHMARK.json."""

import json
from pathlib import Path

import pytest

from run import (BATCH_METRICS, END_TO_END_UNITS, ROUND_METRICS,
                 fail_diverging_batches)
from tracing import ALGORITHMS, PER_LAYER_UNITS
from workloads import SCALE, SPEC_DIR, WORKLOADS, load_specs, warm_spec

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def _keys(specs):
    return [task.cache_key() for spec in specs
            for task in spec.compile(SCALE).tasks]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_compiles_to_declared_task_count(name):
    workload = WORKLOADS[name]
    specs = load_specs(workload, seed=0)
    assert sum(len(spec.compile(SCALE)) for spec in specs) == workload.tasks
    assert workload.tasks >= 100  # p90 keeps ten samples beyond it


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_two_compiles_give_identical_cache_keys(name):
    workload = WORKLOADS[name]
    first = _keys(load_specs(workload, seed=3))
    assert first == _keys(load_specs(workload, seed=3))
    assert len(set(first)) == len(first)


def test_seed_replaces_base_seed():
    workload = WORKLOADS["queue-small"]
    assert _keys(load_specs(workload, seed=1)) != _keys(
        load_specs(workload, seed=2))
    with pytest.raises(ValueError):
        load_specs(workload, seed=-1)


def test_sweep_extend_stores_two_thirds_in_set_up():
    workload = WORKLOADS["sweep-extend"]
    spec = load_specs(workload, seed=0)[0]
    warm = warm_spec(workload, spec)
    assert 3 * len(warm.compile(SCALE)) == 2 * workload.tasks
    assert set(_keys([warm])) < set(_keys([spec]))


def test_every_spec_file_belongs_to_a_workload():
    used = {name for workload in WORKLOADS.values() for name in workload.specs}
    assert used == {path.name for path in SPEC_DIR.glob("*.toml")}


def test_algorithm_metrics_cover_every_workload_algorithm():
    names = {sweep.name for workload in WORKLOADS.values()
             for spec in load_specs(workload, seed=0)
             for sweep in spec.algorithms}
    assert names == set(ALGORITHMS)


def test_benchmark_json_matches_the_harness():
    declared = json.loads(BENCHMARK_JSON.read_text())
    assert {w["name"] for w in declared["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} \
        == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} \
        == PER_LAYER_UNITS
    assert set(BATCH_METRICS) | set(ROUND_METRICS) | {"ok_frac"} \
        == set(END_TO_END_UNITS)


def test_batches_that_diverge_from_the_first_fail():
    batches = [{"makespan_digest": digest, "tasks": 4, "failed": 0,
                "problems": []} for digest in ("a", "a", "b")]
    fail_diverging_batches(batches)
    assert [batch["failed"] for batch in batches] == [0, 0, 4]
    assert batches[2]["problems"] == ["makespans differ from the first batch's"]
