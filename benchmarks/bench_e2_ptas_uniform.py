"""E2 — the PTAS for uniform machines (Section 2): ratio and runtime vs ε."""

import pytest

from benchmarks.conftest import run_and_print
from repro.algorithms.ptas import ptas_uniform
from repro.generators import uniform_instance


def test_e2_table(benchmark, scale):
    """The E2 result table: measured ratio decreases (weakly) as ε shrinks."""
    table = benchmark.pedantic(run_and_print, args=("E2", scale), rounds=1, iterations=1)
    ratios = table.column("mean_ratio")
    epsilons = table.column("epsilon")
    assert len(ratios) >= 2
    # Smallest epsilon should not be worse than the largest one.
    assert ratios[-1] <= ratios[0] + 1e-9
    assert epsilons[0] > epsilons[-1]
    for matches, instances in zip(table.column("ptas_eq_lpt"), table.column("instances")):
        assert 0 <= matches <= instances


@pytest.mark.benchmark(group="e2-ptas")
@pytest.mark.parametrize("epsilon", [0.5, 0.25, 0.1])
def test_e2_ptas_runtime(benchmark, epsilon):
    """Wall-clock of one full PTAS run (dual search included) per ε."""
    inst = uniform_instance(20, 4, 5, seed=2, integral=True, speed_spread=4.0)
    result = benchmark(lambda: ptas_uniform(inst, epsilon=epsilon))
    assert result.schedule.validate() == []
