"""In-process execution backend (no pool, no pickling)."""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.runtime.backends.base import ExecutionBackend, Outcome, run_one

if TYPE_CHECKING:
    from repro.runtime.runner import BatchTask

__all__ = ["SerialBackend"]


class SerialBackend(ExecutionBackend):
    """Run every task in the submitting process, one after another.

    The degenerate — and on a 1-CPU host, optimal — backend: zero fork and
    pickling overhead, outcomes yielded the moment each task finishes.
    Each outcome carries the task's measured compute time, because the
    runner's ``timeout`` is necessarily *post-hoc* here: a task cannot be
    interrupted in-process, so it runs to completion and the runner then
    replaces it by a timeout sentinel if it blew its budget.
    """

    name = "serial"

    def submit(self, tasks: Sequence["BatchTask"]) -> Iterator[Outcome]:
        for local_idx, task in enumerate(tasks):
            t0 = time.perf_counter()
            status, payload = run_one(task.algorithm, task.instance,
                                      task.kwargs_dict())
            yield local_idx, status, payload, time.perf_counter() - t0
