"""F5 — supervised worker fleet: autoscale, crash-restart.

Runs one deterministic task grid through the in-process ``SerialBackend``
and again through a supervisor-managed fleet of **chaos workers**
(``python -m repro.testing.chaos --crash-after 5``, fleet capped at 2 —
CI runs on 1 CPU): every worker incarnation computes five tasks and
dies, so the grid only drains if the supervisor's crash-restart loop
actually works.

The acceptance properties of the supervisor layer are asserted here:

* the two modes produce **byte-identical** schedules — crash/restart
  churn must never change an answer;
* **exactly-once compute survived the chaos**: every cache key was
  computed once across all worker incarnations
  (``duplicate_computes == 0``);
* the supervisor log shows the full lifecycle: ≥1 spawn, ≥1
  crash-restart (chaos-injected), ≥1 idle retirement, and a drained
  exit.

On a 1-CPU container the workers interleave rather than parallelise;
correctness of the supervision protocol, not speedup, is the quantity
under test (F2 measures dispatch speedup, F4 the bare queue protocol).
"""

from benchmarks.conftest import run_and_print


def test_f5_table(benchmark, scale):
    """The F5 result table: supervised chaos fleet vs the serial reference."""
    table = benchmark.pedantic(run_and_print, args=("F5", scale), rounds=1,
                               iterations=1)
    rows = {row["mode"]: row for row in table.rows}
    assert set(rows) == {"serial", "supervised"}
    serial, supervised = rows["serial"], rows["supervised"]

    # Same grid on both sides.
    assert supervised["tasks"] == serial["tasks"] > 0

    # Acceptance: byte-identical results despite crash/restart churn.
    assert supervised["digest12"] == serial["digest12"], (
        "supervised-fleet results diverged from the serial reference")

    # Acceptance: exactly-once compute survived the injected crashes.
    assert supervised["duplicate_computes"] == 0, (
        f"{supervised['duplicate_computes']} cache key(s) computed twice")
    assert supervised["computed"] == supervised["tasks"]

    # Acceptance: the supervisor exercised its whole lifecycle.
    assert supervised["spawned"] >= 1
    assert supervised["crashed"] >= 1 and supervised["restarts"] >= 1, (
        "the chaos fleet never exercised the crash-restart path")
    assert supervised["retired"] >= 1, "no worker was ever retired idle"
