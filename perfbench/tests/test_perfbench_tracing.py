"""Tiny traced runs: every layer reports where its workload says it works."""

import time
from dataclasses import replace

import pytest

from measure import check_batch, serve_batch, set_up
from tracing import PER_LAYER_UNITS, TARGETS, Tracer, _resolve
from workloads import WORKLOADS, load_specs

#: Counters each workload must drive above zero.
NON_ZERO = {
    "paper-cold": (
        "lp.solve_n", "lp.highs_n", "lp.build_s", "lp.compile_s",
        "lp.vars_total", "lp.rows_total", "dual.search_n", "dual.iterations",
        "rounding.round_n", "restricted.support_round_s",
        "algo.randomized-rounding.n", "algo.class-uniform-restrictions-2approx.n",
        "algo.ptas-uniform.n"),
    "queue-small": (
        "queue.enqueue_n", "queue.lease_n", "queue.complete_n", "queue.rows_n",
        "queue.rows_keys", "queue.reclaim_n", "queue.polls_per_task",
        "store.contains_n", "algo.lpt-with-setups.n",
        "algo.class-aware-greedy.n", "algo.lpt-class-oblivious.n"),
    "sweep-extend": (
        "cost_model.fit_n", "cost_model.predict_n", "cost_model.order_s",
        "store.prefetch_hits", "store.hit_ratio",
        "algo.lpt-class-oblivious.n"),
}
EVERYWHERE = (
    "api.compile_s", "runner.cache_key_n", "runner.self_s",
    "backend.compute_n", "backend.compute_s", "backend.self_s",
    "store.put_n", "store.prefetch_n", "store.prefetch_keys",
    "store.payload_bytes", "trace.wall_s", "trace.coverage", "trace.spans_n")

#: Layers that must stay idle outside their home workload.
ZERO_ELSEWHERE = {"queue.": "queue-small", "lp.": "paper-cold"}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One tiny traced batch per workload: (metrics, check result)."""
    out = {}
    for name, workload in WORKLOADS.items():
        specs = [replace(spec, replications=2)
                 for spec in load_specs(workload, seed=5)]
        store = tmp_path_factory.mktemp(name) / "store.sqlite"
        set_up(workload, specs, store)
        served = serve_batch(workload, specs, store, t0=time.monotonic(),
                             trace=True)
        metrics = served["tracer"].layer_metrics(
            served["wall_s"], len(served["delivered"]),
            served["payload_bytes"])
        out[name] = (metrics, check_batch(workload, specs,
                                          served["delivered"]))
    return out


def test_traced_runs_pass_their_output_checks(traced):
    for name, (_metrics, checked) in traced.items():
        assert checked["failed"] == 0, (name, checked["problems"])


def test_checks_catch_wrong_missing_and_repeated_results(tmp_path):
    workload = WORKLOADS["queue-small"]
    specs = [replace(spec, replications=1)
             for spec in load_specs(workload, seed=5)]
    served = serve_batch(workload, specs, tmp_path / "store.sqlite",
                         t0=time.monotonic())
    delivered = served["delivered"]
    assert check_batch(workload, specs, delivered)["failed"] == 0
    task_id, latency, result = delivered[0]
    wrong = (task_id, latency, replace(result, makespan=2 * result.makespan))
    checked = check_batch(workload, specs, [wrong] + delivered[1:])
    assert checked["problems"] == ["recomputed makespan differs"]
    checked = check_batch(workload, specs, delivered[1:] + delivered[1:2])
    assert checked["failed"] == 2
    assert checked["problems"] == ["never served", "served twice"]


def test_every_per_layer_metric_is_reported(traced):
    for metrics, _checked in traced.values():
        assert set(metrics) | {"trace.overhead_frac"} == set(PER_LAYER_UNITS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_expected_counters_are_non_zero(traced, name):
    metrics = traced[name][0]
    missing = [key for key in EVERYWHERE + NON_ZERO[name] if not metrics[key]]
    assert not missing


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_home_layers_are_zero_elsewhere(traced, name):
    metrics = traced[name][0]
    for prefix, home in ZERO_ELSEWHERE.items():
        if name != home:
            busy = [key for key in metrics
                    if key.startswith(prefix) and metrics[key]]
            assert not busy, (prefix, busy)


def test_paper_cold_is_lp_and_dual_search(traced):
    metrics = traced["paper-cold"][0]
    assert metrics["dual.search_s"] > 0.5 * metrics["backend.compute_s"]
    assert metrics["lp.solve_s"] <= metrics["dual.search_s"]
    assert metrics["trace.coverage"] > 0.9


def test_uninstall_restores_the_originals():
    originals = [(owner, attr, vars(owner)[attr])
                 for owner, attr in (_resolve(module, path)
                                     for module, path, _n, _note in TARGETS)]
    with Tracer():
        for owner, attr, raw in originals:
            assert vars(owner)[attr] is not raw, attr
    for owner, attr, raw in originals:
        assert vars(owner)[attr] is raw, attr


def test_wrappers_patch_the_name_the_caller_resolves():
    import scipy.optimize
    from repro.algorithms.unrelated import lp_relaxation, lp_rounding
    from repro.runtime.backends import base, queue

    with Tracer():
        assert lp_rounding.solve_ilp_um_relaxation is not \
            lp_relaxation.solve_ilp_um_relaxation
        assert queue.run_one is not base.run_one
        assert hasattr(scipy.optimize.linprog, "__wrapped__")
    assert queue.run_one is base.run_one


def test_generator_spans_count_only_running_stretches():
    def slow_items():
        for item in range(3):
            time.sleep(0.01)
            yield item

    tracer = Tracer()
    items = []
    for item in tracer._traced_iter("gen", slow_items()):
        time.sleep(0.02)  # consumer time, outside the span
        items.append(item)
    (span,) = tracer.spans
    assert items == [0, 1, 2]
    assert span.busy >= 0.03
    assert (span.end - span.start) - span.busy >= 0.06  # the consumer's sleeps


def test_a_failing_call_still_closes_its_span():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer._wrap("boom", boom, None)()
    (span,) = tracer.spans
    assert span.end >= span.start and not tracer._stack


def test_installing_twice_is_refused():
    with Tracer() as tracer:
        with pytest.raises(RuntimeError):
            tracer.install()
