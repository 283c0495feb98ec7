"""Deterministic fault-injection harness for the distributed runtime.

The queue/worker/supervisor stack is crash-tolerant by design — leases
expire, attempts are capped, crashed workers are excluded from their own
casualties — but none of that is trustworthy until it has been exercised
against *actual* faults on a schedule the test controls.  This package is
that control plane:

* :class:`~repro.testing.clock.FakeClock` — a deterministic time
  source, injectable into
  :class:`~repro.store.task_queue.TaskQueue` (``clock=``) and
  :class:`~repro.runtime.supervisor.SupervisorPolicy` (``clock=``), so
  lease expiry and scaling decisions are tested by *advancing a number*,
  never by sleeping through wall-clock time;
* :mod:`repro.testing.chaos` — a drop-in replacement for the
  ``repro.runtime.worker`` CLI (``python -m repro.testing.chaos``): the
  worker's own drain loop over a queue whose
  :class:`~repro.testing.chaos.ChaosPlan` injects crashes (between
  tasks, mid-lease or inside the publish transaction) and stalls on a
  deterministic schedule, armed by CLI flags.  The supervisor's
  fault-recovery story (F5, the soak test) runs real fleets of these;
* :func:`result_digest` — the hash that F4, F5 and the soak test compare
  across backends: equal digests mean byte-identical answers.

Nothing in here is imported by the production modules — the harness
depends on the runtime, never the reverse.  :mod:`repro.testing.chaos`
is deliberately *not* imported here: ``python -m repro.testing.chaos``
must be able to runpy-execute the module without it already sitting in
``sys.modules`` (import it explicitly where needed).
"""

import hashlib

import numpy as np

from repro.testing.clock import FakeClock

__all__ = ["FakeClock", "result_digest"]


def result_digest(results) -> str:
    """SHA-256 over the canonical content of a result list.

    Hashes everything a scheduling answer *is* — algorithm name, makespan,
    guarantee, and the full job-to-machine assignment — and nothing that
    merely describes how it was produced (wall times, meta diagnostics),
    so two backends computing the same tasks must collide exactly.
    """
    h = hashlib.sha256()
    for result in results:
        h.update(result.name.encode())
        h.update(repr(result.makespan).encode())
        h.update(repr(result.guarantee).encode())
        arr = np.ascontiguousarray(result.schedule.assignment)
        h.update(str(arr.dtype).encode())
        h.update(arr.tobytes())
    return h.hexdigest()
