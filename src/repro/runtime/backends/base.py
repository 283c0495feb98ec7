"""The execution-backend protocol and shared worker-side helpers.

:class:`ExecutionBackend` is the seam between *orchestration* and
*execution*: :class:`~repro.runtime.runner.BatchRunner` owns everything
about a batch that is independent of where the work runs (cache and store
lookup, cost-model ordering, streaming merge, turning outcomes into
results, stats), and delegates the cold remainder to a backend whose
single job is

    ``submit(tasks) -> iterator of (local_index, status, payload, elapsed)``

yielding one raw :data:`Outcome` per submitted task, in whatever order
they finish.  Three implementations ship:

* :class:`~repro.runtime.backends.serial.SerialBackend` — in-process, zero
  pool overhead;
* :class:`~repro.runtime.backends.pool.PoolBackend` — chunked
  ``concurrent.futures`` process pool with per-task timeouts and
  worker-death recovery;
* :class:`~repro.runtime.backends.queue.QueueBackend` — a distributed
  SQLite work queue drained by any number of worker processes
  (``python -m repro.runtime.worker``) sharing one store file.

The module-level functions below are the *worker-side* execution core.
They must stay module-level and self-contained: the pool backend ships
them to child processes by pickled reference, and the queue worker imports
them in a separate process.
"""

from __future__ import annotations

import traceback
from typing import (TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

from repro.core.instance import Instance
from repro.runtime.registry import get_algorithm

if TYPE_CHECKING:
    from repro.runtime.runner import BatchRunner, BatchTask

__all__ = ["ExecutionBackend", "Outcome", "run_one", "run_chunk",
           "tasks_per_chunk"]

#: One task's raw outcome: ``(index into the submitted tasks, status,
#: payload, elapsed)``.  See :class:`ExecutionBackend`.
Outcome = Tuple[int, str, object, Optional[float]]


# ---------------------------------------------------------------------------
# worker-side execution (must stay module-level: shipped to pool workers)
# ---------------------------------------------------------------------------
def run_one(algorithm: str, instance: Instance,
            kwargs: Dict[str, object]) -> Tuple[str, object]:
    """Run one task, capturing any exception instead of raising.

    Returns ``("ok", result)`` or ``("error", (message, traceback_text))``
    — a failing task must never take a batch, a pool, or a queue worker
    down with it.
    """
    try:
        result = get_algorithm(algorithm).run(instance, **kwargs)
        return ("ok", result)
    except Exception as exc:  # capture, never kill the batch
        return ("error", (f"{type(exc).__name__}: {exc}", traceback.format_exc()))


def run_chunk(payload: List[Tuple[str, Instance, Dict[str, object]]]
              ) -> List[Tuple[str, object]]:
    """Run a chunk of tasks in one worker invocation (amortises pickling)."""
    return [run_one(algorithm, instance, kwargs)
            for algorithm, instance, kwargs in payload]


def tasks_per_chunk(num_tasks: int, max_workers: int) -> int:
    """Tasks per pool submission: ``ceil(len/4·workers)`` capped at 16 (big
    enough to amortise pickling, small enough to spread heavy tasks across
    workers)."""
    return min(16, max(1, -(-num_tasks // (4 * max_workers))))


class ExecutionBackend:
    """Base class / protocol for pluggable cold-task execution.

    A backend is constructed bound to its :class:`BatchRunner` and reads
    execution policy (worker count, timeout, mp context, store) from it.
    It never builds results, sentinels or stats: it yields raw outcomes,
    and the runner alone turns each into a result, so error and timeout
    accounting lives in one place whichever backend ran the work.

    Subclasses implement :meth:`submit`.  The contract:

    * every submitted task yields exactly one :data:`Outcome`
      ``(local_index, status, payload, elapsed)``, in completion (not
      submission) order;
    * ``status`` is ``"ok"`` (``payload`` is the
      :class:`~repro.algorithms.base.AlgorithmResult`), ``"error"``
      (``payload`` is ``(message, traceback text or None)``; the
      traceback is ``None`` only for a queue row an external worker
      failed, which stores the message alone) or ``"timeout"``
      (``payload`` is ``None``); failures are outcomes, never exceptions;
    * ``elapsed`` is the compute time this process measured, or ``None``
      when it did not time the task (a result another queue worker
      published, a pool task whose limit its deadline enforces); the runner
      applies its ``timeout`` to measured times after the fact;
    * closing the returned generator early (consumer ``break``) must
      promptly abandon outstanding work — no hanging on stuck tasks, no
      leaked worker processes, no unclaimed queue rows.
    """

    #: Registry name (``BatchRunner(backend="<name>")``).
    name: str = "abstract"

    #: Whether the backend itself writes successful results to the
    #: persistent store (the queue backend does: the store is its result
    #: transport).  The runner skips its own write-through when set, so a
    #: result is never persisted twice.
    persists_results: bool = False

    def __init__(self, runner: "BatchRunner") -> None:
        self.runner = runner

    def submit(self, tasks: Sequence["BatchTask"]) -> Iterator[Outcome]:
        """Execute ``tasks``, yielding one :data:`Outcome` per task."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
