"""Persistent result store and cost model for the batch runtime.

This package is the durability and prediction layer under
:mod:`repro.runtime`:

* :class:`ResultStore` — a content-addressed, on-disk cache of
  :class:`~repro.algorithms.base.AlgorithmResult` objects (single SQLite
  file, WAL mode) keyed by ``BatchTask.cache_key()``: bulk prefetch, reads
  that never write, payloads without the task's own instance, opt-in
  eviction and a self-healing open.  It owns the whole file's layout,
  the queue's table included, under one :data:`SCHEMA_VERSION`.  Plugged
  into ``BatchRunner(store=)`` it makes the content-hash cache survive
  process restarts.
* :class:`CostModel` — log-linear per-algorithm runtime predictors fitted
  from the wall times the store has recorded, used only to dispatch
  cold tasks in descending-cost order.
* :class:`TaskQueue` — a lease-based work queue in the ``task_queue``
  table of the *same* SQLite file, run on a store's connection (one it is
  handed, or one it opens by path), turning the store into a distributed
  work plane: ``python -m repro.runtime.worker`` processes lease tasks,
  publish results through the store, and ``compute_count`` proves
  exactly-once compute per key (see :mod:`repro.store.task_queue`).
* ``python -m repro.store stats|vacuum|export`` — offline inspection of a
  store file without touching any payload.

Quickstart
----------
>>> from repro.generators import uniform_instance
>>> from repro.runtime import BatchRunner
>>> instances = [uniform_instance(30, 3, 4, seed=s) for s in range(4)]
>>> import tempfile, pathlib
>>> path = pathlib.Path(tempfile.mkdtemp()) / "results.sqlite"
>>> cold = BatchRunner(store=path)             # computes, persists
>>> _ = cold.run(["lpt-with-setups"], instances)
>>> warm = BatchRunner(store=path)             # fresh runner, warm disk
>>> batch = warm.run(["lpt-with-setups"], instances)
>>> warm.stats["store_hits"]
4
"""

from repro.store.cost_model import DEFAULT_COST_FEATURES, CostModel
from repro.store.result_store import SCHEMA_VERSION, ResultStore, StoreRecord
from repro.store.task_queue import LeasedTask, QueueRow, TaskQueue

__all__ = [
    "ResultStore",
    "StoreRecord",
    "CostModel",
    "DEFAULT_COST_FEATURES",
    "SCHEMA_VERSION",
    "TaskQueue",
    "LeasedTask",
    "QueueRow",
]
