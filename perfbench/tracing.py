"""Per-layer tracing for the benchmark's traced runs.

A :class:`Tracer` wraps public functions of every layer of the stack from
outside, for the duration of a ``with`` block, and records one span per
call: name, start, end, time busy, parent span and, when the call carries
one, the task's cache key.  Spans stay in memory; :meth:`Tracer.write`
dumps them when the run ends.  Untraced runs never construct a tracer, so
they run the stack unpatched.

Each wrapper replaces the name its caller resolves at call time, not the
defining module's: ``solve_ilp_um_relaxation`` is looked up in
``repro.algorithms.unrelated.lp_rounding``, ``run_one`` in each backend
module, ``linprog`` on ``scipy.optimize``, and methods on their class.
Generator functions (``Session.stream``, ``BatchRunner.run_iter``,
``submit``) get one span whose busy time sums the stretches the generator
actually ran, so the consumer's time between results is not counted.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Every algorithm the workloads run; each gets ``algo.<name>.n`` / ``.s``.
ALGORITHMS = (
    "randomized-rounding",
    "class-uniform-restrictions-2approx",
    "ptas-uniform",
    "lpt-with-setups",
    "class-aware-greedy",
    "lpt-class-oblivious",
)

_COUNT, _SECONDS, _RATIO, _BYTES = "count", "s", "ratio", "bytes"

#: The per-layer metrics of a traced run, with their units, grouped by layer.
PER_LAYER_UNITS: Dict[str, str] = {
    # repro.api
    "api.compile_s": _SECONDS,
    # repro.runtime.runner
    "runner.cache_key_n": _COUNT,
    "runner.cache_key_s": _SECONDS,
    "runner.self_s": _SECONDS,
    # repro.runtime.backends
    "backend.compute_n": _COUNT,
    "backend.compute_s": _SECONDS,
    **{f"algo.{name}.{suffix}": unit for name in ALGORITHMS
       for suffix, unit in (("n", _COUNT), ("s", _SECONDS))},
    "backend.self_s": _SECONDS,
    "stack_overhead_frac": _RATIO,
    # repro.store.result_store
    "store.put_n": _COUNT,
    "store.put_s": _SECONDS,
    "store.prefetch_n": _COUNT,
    "store.prefetch_s": _SECONDS,
    "store.prefetch_keys": _COUNT,
    "store.prefetch_hits": _COUNT,
    "store.hit_ratio": _RATIO,
    "store.contains_n": _COUNT,
    "store.contains_s": _SECONDS,
    "store.evict_s": _SECONDS,
    "store.payload_bytes": _BYTES,
    # repro.store.task_queue
    "queue.enqueue_n": _COUNT,
    "queue.enqueue_s": _SECONDS,
    "queue.lease_n": _COUNT,
    "queue.lease_s": _SECONDS,
    "queue.lease_empty": _COUNT,
    "queue.complete_n": _COUNT,
    "queue.complete_s": _SECONDS,
    "queue.rows_n": _COUNT,
    "queue.rows_s": _SECONDS,
    "queue.rows_keys": _COUNT,
    "queue.reclaim_n": _COUNT,
    "queue.reclaim_s": _SECONDS,
    "queue.polls_per_task": _RATIO,
    # repro.store.cost_model
    "cost_model.fit_n": _COUNT,
    "cost_model.fit_s": _SECONDS,
    "cost_model.predict_n": _COUNT,
    "cost_model.predict_s": _SECONDS,
    "cost_model.order_s": _SECONDS,
    # repro.lp and the functions that build the paper's LPs
    "lp.solve_n": _COUNT,
    "lp.solve_s": _SECONDS,
    "lp.highs_n": _COUNT,
    "lp.highs_s": _SECONDS,
    "lp.compile_s": _SECONDS,
    "lp.build_s": _SECONDS,
    "lp.vars_total": _COUNT,
    "lp.rows_total": _COUNT,
    # repro.core.dual and the rounding steps
    "dual.search_n": _COUNT,
    "dual.search_s": _SECONDS,
    "dual.iterations": _COUNT,
    "rounding.round_n": _COUNT,
    "rounding.round_s": _SECONDS,
    "restricted.support_round_s": _SECONDS,
    # the trace itself
    "trace.wall_s": _SECONDS,
    "trace.coverage": _RATIO,
    "trace.overhead_frac": _RATIO,
    "trace.spans_n": _COUNT,
}


class Span:
    """One traced call (or one traced generator, over all its stretches)."""

    __slots__ = ("index", "name", "parent", "start", "end", "busy", "key",
                 "algorithm", "_resumed")

    def __init__(self, index: int, name: str, parent: Optional[int]) -> None:
        self.index = index
        self.name = name
        self.parent = parent
        self.start = self.end = self._resumed = 0.0
        self.busy = 0.0
        self.key: Optional[str] = None
        self.algorithm: Optional[str] = None


# ---------------------------------------------------------------------------
# what gets wrapped
# ---------------------------------------------------------------------------
Note = Callable[["Tracer", Span, tuple, dict, Any], None]


def _arg(args: tuple, kwargs: dict, pos: int, name: str) -> Any:
    return args[pos] if len(args) > pos else kwargs.get(name)


def _note_result_key(tracer: "Tracer", span: Span, args, kwargs, result) -> None:
    span.key = result


def _note_key_arg(tracer: "Tracer", span: Span, args, kwargs, result) -> None:
    key = _arg(args, kwargs, 1, "key")
    if isinstance(key, str):
        span.key = key


def _note_algorithm(tracer: "Tracer", span: Span, args, kwargs, result) -> None:
    span.algorithm = _arg(args, kwargs, 0, "algorithm")


def _note_prefetch(tracer: "Tracer", span: Span, args, kwargs, result) -> None:
    tracer.counts["store.prefetch_keys"] += len(_arg(args, kwargs, 1, "tasks"))
    tracer.counts["store.prefetch_hits"] += len(result)


def _note_lease(tracer: "Tracer", span: Span, args, kwargs, result) -> None:
    if result is None:
        tracer.counts["queue.lease_empty"] += 1
    else:
        span.key = result.key


def _note_rows(tracer: "Tracer", span: Span, args, kwargs, result) -> None:
    keys = _arg(args, kwargs, 1, "keys")
    if keys is not None:
        tracer.counts["queue.rows_keys"] += len(keys)


def _note_model_size(tracer: "Tracer", span: Span, args, kwargs, result) -> None:
    model = args[0]
    tracer.counts["lp.vars_total"] += model.num_vars
    tracer.counts["lp.rows_total"] += model.num_constraints


def _note_iterations(tracer: "Tracer", span: Span, args, kwargs, result) -> None:
    tracer.counts["dual.iterations"] += result.iterations


_LP_ROUNDING = "repro.algorithms.unrelated.lp_rounding"
_CUR = "repro.algorithms.restricted.class_uniform_restrictions"
_CUP = "repro.algorithms.restricted.class_uniform_ptimes"

#: ``(module, attribute path in it, span name, note)`` for every wrapper.
TARGETS: Tuple[Tuple[str, str, str, Optional[Note]], ...] = (
    ("repro.api.session", "Session.stream", "api.stream", None),
    ("repro.api.spec", "ScenarioSpec.compile", "api.compile", None),
    ("repro.runtime.runner", "BatchTask.cache_key", "runner.cache_key",
     _note_result_key),
    ("repro.runtime.runner", "BatchRunner.run_iter", "runner.run_iter", None),
    ("repro.runtime.backends.serial", "SerialBackend.submit",
     "backend.submit", None),
    ("repro.runtime.backends.queue", "QueueBackend.submit",
     "backend.submit", None),
    ("repro.runtime.backends.serial", "run_one", "backend.compute",
     _note_algorithm),
    ("repro.runtime.backends.queue", "run_one", "backend.compute",
     _note_algorithm),
    ("repro.store.result_store", "ResultStore.put", "store.put", None),
    ("repro.store.result_store", "ResultStore.prefetch", "store.prefetch",
     _note_prefetch),
    ("repro.store.result_store", "ResultStore.contains", "store.contains",
     _note_key_arg),
    ("repro.store.result_store", "ResultStore.evict", "store.evict", None),
    ("repro.store.task_queue", "TaskQueue.enqueue", "queue.enqueue", None),
    ("repro.store.task_queue", "TaskQueue.lease", "queue.lease", _note_lease),
    ("repro.store.task_queue", "TaskQueue.complete", "queue.complete",
     _note_key_arg),
    ("repro.store.task_queue", "TaskQueue.rows", "queue.rows", _note_rows),
    ("repro.store.task_queue", "TaskQueue.reclaim_expired", "queue.reclaim",
     None),
    ("repro.store.cost_model", "CostModel.fit_from_store", "cost_model.fit",
     None),
    ("repro.store.cost_model", "CostModel.predict", "cost_model.predict",
     None),
    ("repro.store.cost_model", "CostModel.order_indices", "cost_model.order",
     None),
    ("repro.lp.model", "Model.solve", "lp.solve", _note_model_size),
    ("scipy.optimize", "linprog", "lp.highs", None),
    ("scipy.optimize", "milp", "lp.highs", None),
    (_LP_ROUNDING, "solve_ilp_um_relaxation", "lp.build", None),
    (_CUR, "solve_lp_relaxed_ra", "lp.build", None),
    (_CUP, "solve_lp_relaxed_ra", "lp.build", None),
    (_LP_ROUNDING, "dual_approximation_search", "dual.search",
     _note_iterations),
    (_CUR, "dual_approximation_search", "dual.search", _note_iterations),
    (_CUP, "dual_approximation_search", "dual.search", _note_iterations),
    ("repro.algorithms.ptas.driver", "dual_approximation_search",
     "dual.search", _note_iterations),
    (_LP_ROUNDING, "randomized_rounding_decision", "rounding.round", None),
    (_CUR, "round_support_graph", "restricted.support_round", None),
    (_CUP, "round_support_graph", "restricted.support_round", None),
)


def _resolve(module: str, path: str) -> Tuple[Any, str]:
    """The object holding the patched name, and the name itself."""
    owner: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


# ---------------------------------------------------------------------------
# the tracer
# ---------------------------------------------------------------------------
class Tracer:
    """Install the layer wrappers for a ``with`` block and record spans.

    >>> with Tracer() as tracer:            # doctest: +SKIP
    ...     run_the_batch()
    >>> tracer.layer_metrics(wall_s, tasks)  # doctest: +SKIP
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        """Replace every target with its traced wrapper."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for module, path, name, note in TARGETS:
                owner, attr = _resolve(module, path)
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    wrapped: Any = classmethod(self._wrap(name, raw.__func__,
                                                          note))
                else:
                    wrapped = self._wrap(name, raw, note)
                setattr(owner, attr, wrapped)
                self._patches.append((owner, attr, raw))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Put every original back (idempotent)."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    # -- span bookkeeping -------------------------------------------------
    def _begin(self, name: str) -> Span:
        span = Span(len(self.spans), name,
                    self._stack[-1] if self._stack else None)
        self.spans.append(span)
        self._stack.append(span.index)
        span.start = span._resumed = time.perf_counter()
        return span

    def _resume(self, span: Span) -> None:
        self._stack.append(span.index)
        span._resumed = time.perf_counter()

    def _pause(self, span: Span) -> None:
        now = time.perf_counter()
        span.busy += now - span._resumed
        span.end = now
        self._stack.pop()

    def _wrap(self, name: str, fn: Callable, note: Optional[Note]) -> Callable:
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args: Any, **kwargs: Any) -> Iterator[Any]:
                return self._traced_iter(name, fn(*args, **kwargs))
            return traced_gen

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._pause(span)
            if note is not None:
                note(self, span, args, kwargs, result)
            return result
        return traced

    def _traced_iter(self, name: str, gen: Iterator[Any]) -> Iterator[Any]:
        """Re-yield ``gen``, timing only the stretches it runs.

        A consumer that closes early makes the inner generator clean up
        outside the span; the benchmark always drains its batches.
        """
        span: Optional[Span] = None
        try:
            while True:
                if span is None:
                    span = self._begin(name)
                else:
                    self._resume(span)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._pause(span)
                yield item
        finally:
            gen.close()

    # -- results -----------------------------------------------------------
    def span_totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls ``n``, ``busy_s`` and ``self_s`` (busy time
        minus the busy time of the span's children)."""
        child_busy: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_busy[span.parent] += span.busy
        totals: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            total = totals.setdefault(span.name,
                                      {"n": 0, "busy_s": 0.0, "self_s": 0.0})
            total["n"] += 1
            total["busy_s"] += span.busy
            total["self_s"] += span.busy - child_busy[span.index]
        return totals

    def layer_metrics(self, wall_s: float, tasks: int,
                      payload_bytes: int) -> Dict[str, float]:
        """Every per-layer metric but ``trace.overhead_frac``, which needs
        the untraced runs.  ``wall_s`` is the traced batch wall time,
        ``payload_bytes`` what the batch added to the store's payloads."""
        totals = self.span_totals()
        n = Counter({name: t["n"] for name, t in totals.items()})
        busy = defaultdict(float, {name: t["busy_s"]
                                   for name, t in totals.items()})
        self_s = defaultdict(float, {name: t["self_s"]
                                     for name, t in totals.items()})
        algo_n: Counter = Counter()
        algo_s: Dict[str, float] = defaultdict(float)
        top_level = build_s = 0.0
        for span in self.spans:
            if span.parent is None:
                top_level += span.busy
            elif (span.name == "lp.solve"
                  and self.spans[span.parent].name == "lp.build"):
                build_s -= span.busy
            if span.name == "lp.build":
                build_s += span.busy
            if span.algorithm is not None:
                algo_n[span.algorithm] += 1
                algo_s[span.algorithm] += span.busy
        counts = self.counts
        keys = counts["store.prefetch_keys"]
        out: Dict[str, float] = {
            "api.compile_s": busy["api.compile"],
            "runner.cache_key_n": n["runner.cache_key"],
            "runner.cache_key_s": busy["runner.cache_key"],
            "runner.self_s": self_s["runner.run_iter"],
            "backend.compute_n": n["backend.compute"],
            "backend.compute_s": busy["backend.compute"],
            "backend.self_s": self_s["backend.submit"],
            "stack_overhead_frac": 1.0 - busy["backend.compute"] / wall_s,
            "store.prefetch_keys": keys,
            "store.prefetch_hits": counts["store.prefetch_hits"],
            "store.hit_ratio": (counts["store.prefetch_hits"] / keys
                                if keys else 0.0),
            "store.evict_s": busy["store.evict"],
            "store.payload_bytes": payload_bytes,
            "queue.lease_empty": counts["queue.lease_empty"],
            "queue.rows_keys": counts["queue.rows_keys"],
            "queue.polls_per_task": n["queue.reclaim"] / tasks,
            "cost_model.order_s": busy["cost_model.order"],
            "lp.compile_s": busy["lp.solve"] - busy["lp.highs"],
            "lp.build_s": build_s,
            "lp.vars_total": counts["lp.vars_total"],
            "lp.rows_total": counts["lp.rows_total"],
            "dual.iterations": counts["dual.iterations"],
            "restricted.support_round_s": busy["restricted.support_round"],
            "trace.wall_s": wall_s,
            "trace.coverage": top_level / wall_s,
            "trace.spans_n": len(self.spans),
        }
        for span_name in ("store.put", "store.prefetch", "store.contains",
                          "queue.enqueue", "queue.lease", "queue.complete",
                          "queue.rows", "queue.reclaim", "cost_model.fit",
                          "cost_model.predict", "lp.solve", "lp.highs",
                          "dual.search", "rounding.round"):
            out[f"{span_name}_n"] = n[span_name]
            out[f"{span_name}_s"] = busy[span_name]
        for name in ALGORITHMS:
            out[f"algo.{name}.n"] = algo_n[name]
            out[f"algo.{name}.s"] = algo_s[name]
        return out

    def write(self, path: Path, origin: float) -> None:
        """Dump every span as one JSON line, times relative to ``origin``."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps({
                    "id": span.index, "name": span.name,
                    "parent": span.parent,
                    "start": span.start - origin, "end": span.end - origin,
                    "busy": span.busy, "key": span.key,
                    "algorithm": span.algorithm}) + "\n")
