"""Algorithm registry and batch execution runtime.

This package turns the loose algorithm functions of
:mod:`repro.algorithms` into a servable scheduling system:

* :mod:`repro.runtime.registry` — every solver registers itself with
  :func:`register_algorithm`, declaring the machine environments it
  supports, any structural preconditions, and its proven approximation
  guarantee.  :func:`algorithms_for` answers "which algorithms can run on
  this instance?" without hard-coding algorithm lists anywhere.
* :mod:`repro.runtime.runner` — :class:`BatchRunner` executes
  ``(algorithm × instance)`` grids with per-task content-hash result
  caching, timeout/error capture into ``AlgorithmResult.meta``, and a
  :meth:`BatchRunner.portfolio` mode returning the best schedule per
  instance.  With ``store=`` it writes through to a persistent
  :class:`repro.store.ResultStore` (restart-surviving cache),
  :meth:`BatchRunner.run_iter` streams results as chunks complete (warm
  keys first, before any pool work), cold tasks dispatch in
  descending-cost order under a fitted
  :class:`repro.store.CostModel`, and ``portfolio(budget_s=...)`` skips
  solvers predicted to blow a latency budget.
* :mod:`repro.runtime.backends` — where cold tasks actually run is a
  pluggable :class:`ExecutionBackend` (``backend="serial" | "pool" |
  "queue"``): in-process, chunked process pool, or a distributed SQLite
  work queue drained by ``python -m repro.runtime.worker`` processes
  sharing one store file (leases with expiry, crash requeue with attempt
  caps, store-mediated exactly-once compute, per-task ``budget_s``
  stamped by the submitter and enforced by whichever worker leases the
  row).
* :mod:`repro.runtime.supervisor` — ``python -m repro.runtime.supervisor``
  autoscales the worker fleet: spawn one worker per outstanding task up
  to a cap, restart crashed workers behind an exponential backoff with a
  consecutive-crash cap, retire on idle, exit when the queue drains.  Submitters opt in with
  ``QueueBackend(autoscale=N)``, or ``Session(autoscale=N)`` /
  ``REPRO_AUTOSCALE=N`` on the queue backend.
* :mod:`repro.runtime.pool` — the keyed runner pool behind
  :meth:`repro.api.Session.runner`: one runner per ``(store, backend,
  runner kwargs)`` configuration, one shared ``ResultStore`` handle per
  store file.  Configuration is resolved by :class:`repro.api.SessionConfig`
  before it reaches the pool.

Quickstart
----------
>>> from repro.generators import uniform_instance
>>> from repro.runtime import BatchRunner, algorithms_for
>>> instances = [uniform_instance(40, 4, 5, seed=s) for s in range(8)]
>>> [spec.name for spec in algorithms_for(instances[0])]  # doctest: +ELLIPSIS
['class-aware-greedy', ...]
>>> runner = BatchRunner()                      # process pool, auto-sized
>>> batch = runner.run(["lpt-with-setups", "class-aware-greedy"], instances)
>>> best = runner.portfolio(instances)          # best schedule per instance
>>> len(best) == len(instances)
True
>>> for idx, result in runner.run_iter(batch.tasks):  # doctest: +SKIP
...     serve(result)                           # streams as chunks complete

All experiment sweeps (``repro.analysis.experiments``) and the benchmark
harness dispatch through this runtime, so a cache or scheduling
improvement here speeds up every consumer at once.
"""

from repro.runtime.backends import (
    BACKENDS,
    ExecutionBackend,
    PoolBackend,
    QueueBackend,
    SerialBackend,
)
from repro.runtime.pool import reset_runner_pool
from repro.runtime.registry import (
    AlgorithmSpec,
    algorithm_names,
    algorithms_for,
    all_algorithms,
    get_algorithm,
    register_algorithm,
    unregister_algorithm,
)
from repro.runtime.runner import (
    BatchResult,
    BatchRunner,
    BatchTask,
    instance_fingerprint,
    usable_cpus,
)


def __getattr__(name):
    # Lazy (PEP 562) so `python -m repro.runtime.supervisor` can runpy the
    # module without this package import having already executed it (the
    # double-execution RuntimeWarning), and plain `import repro.runtime`
    # stays free of subprocess machinery.
    if name in ("Supervisor", "SupervisorPolicy"):
        from repro.runtime import supervisor

        return getattr(supervisor, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AlgorithmSpec",
    "register_algorithm",
    "unregister_algorithm",
    "get_algorithm",
    "algorithm_names",
    "all_algorithms",
    "algorithms_for",
    "BatchTask",
    "BatchResult",
    "BatchRunner",
    "reset_runner_pool",
    "instance_fingerprint",
    "usable_cpus",
    "ExecutionBackend",
    "SerialBackend",
    "PoolBackend",
    "QueueBackend",
    "BACKENDS",
    "Supervisor",
    "SupervisorPolicy",
]
