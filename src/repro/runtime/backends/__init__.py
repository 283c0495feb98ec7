"""Pluggable execution backends for :class:`repro.runtime.BatchRunner`.

The runner owns orchestration (cache/store lookup, cost ordering,
streaming merge, turning outcomes into results); a backend owns *where
cold tasks run*:

========  ==================================================================
name      execution
========  ==================================================================
serial    in-process, one task at a time (zero pool overhead)
pool      chunked ``concurrent.futures`` process pool, per-task timeouts
queue     distributed SQLite work queue shared with ``repro.runtime.worker``
          processes (requires a persistent store)
========  ==================================================================

Select one with ``BatchRunner(backend="pool")``, or through
``Session(backend=...)`` / the ``REPRO_BACKEND`` environment variable,
both resolved by :class:`repro.api.SessionConfig`.  ``backend=None``
picks the pool when the runner has more than one worker and in-process
execution otherwise.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Type

from repro.runtime.backends.base import ExecutionBackend
from repro.runtime.backends.pool import PoolBackend
from repro.runtime.backends.queue import QueueBackend
from repro.runtime.backends.serial import SerialBackend

if TYPE_CHECKING:
    from repro.runtime.runner import BatchRunner

__all__ = ["ExecutionBackend", "SerialBackend", "PoolBackend", "QueueBackend",
           "BACKENDS", "make_backend"]

#: Name -> class registry behind ``BatchRunner(backend="<name>")``.
BACKENDS: Dict[str, Type[ExecutionBackend]] = {
    SerialBackend.name: SerialBackend,
    PoolBackend.name: PoolBackend,
    QueueBackend.name: QueueBackend,
}


def make_backend(spec: Optional[str], runner: "BatchRunner",
                 options: Optional[dict] = None) -> ExecutionBackend:
    """Build the backend named ``spec``, bound to ``runner``, with
    ``options`` as constructor kwargs.

    ``None`` picks :class:`PoolBackend` when the runner has more than one
    worker and :class:`SerialBackend` otherwise.
    """
    if spec is None:
        spec = "pool" if runner.max_workers > 1 else "serial"
    try:
        cls = BACKENDS[spec]
    except KeyError:
        raise ValueError(f"unknown execution backend {spec!r}; "
                         f"known: {sorted(BACKENDS)}") from None
    return cls(runner, **(options or {}))
