"""Shared helpers for the benchmark harness.

Every ``bench_e*`` module and ``bench_f1_speed_groups`` regenerates one
experiment of the paper's registry (E1–E9, F1) in
:mod:`repro.analysis.experiments` through :func:`run_and_print`.  The
F2–F5 modules measure the serving stack (pool, store, queue,
supervisor) rather than the paper: each holds its own harness and hands
the table it builds to :func:`publish`.  Running

    pytest benchmarks/ --benchmark-only

reproduces the full empirical evaluation (README § Testing) at the
"quick" scale; pass ``--scale=full`` for the larger sweeps.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def pytest_addoption(parser):
    parser.addoption("--scale", action="store", default="quick",
                     choices=("quick", "full"),
                     help="experiment scale: quick (default) or full")


@pytest.fixture(scope="session")
def scale(request) -> str:
    """The experiment scale selected on the command line."""
    return request.config.getoption("--scale")


def publish(table, experiment_id: str, scale: str):
    """Print ``table``, write it to ``benchmarks/results/<ID>_<scale>.txt``
    (so the numbers can be regenerated and diffed), and return it."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    print()
    print(table.render())
    (RESULTS_DIR / f"{experiment_id.upper()}_{scale}.txt").write_text(table.render() + "\n")
    return table


def run_and_print(experiment_id: str, scale: str):
    """Run one registered experiment and :func:`publish` its table.

    The experiment's session is given a persistent result store under
    ``benchmarks/results/`` (gitignored), so re-running the harness reuses
    every algorithm result computed by earlier invocations — across
    processes, not just within one.
    """
    from repro.analysis import run_experiment

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    table = run_experiment(experiment_id, scale,
                           store_path=RESULTS_DIR / "result_store.sqlite")
    return publish(table, experiment_id, scale)
