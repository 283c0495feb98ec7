"""One round of the benchmark: set up, stream the batch, check every result.

``run.py`` starts this script in a fresh process per round, so every round
pays the same set-up (interpreter start, imports, store open and, for
``sweep-extend``, storing the warm part of the sweep).  A round then
streams the batch ``Workload.batches`` times, each against a fresh copy
of the set-up store.  The round prints
one JSON object as the last line of its standard output::

    python3 perfbench/measure.py --workload queue-small --seed 3 \
        --work-dir .perfbench_tmp [--trace --spans-out spans.jsonl]

The batch is one closed loop: a single client submits the workload's specs
through ``Session(store_path=<fresh file>, backend=...).stream(spec)`` and
timestamps every result as it is yielded.  Outputs are checked after the
timed region: every schedule validates and reproduces its makespan, no
error or timeout sentinel is served, every task is served exactly once
and, where the workload asks for it and ``--no-reference`` is not given,
every makespan equals a direct ``run_one`` call on the same task.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sqlite3
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from workloads import SCALE, WORKLOADS, Workload, load_specs, warm_spec

#: Environment variables that would reconfigure the session behind the
#: benchmark's back; every run clears them.
SESSION_ENV = ("REPRO_RESULT_STORE", "REPRO_BACKEND", "REPRO_AUTOSCALE")

#: Identity of one compiled task: (spec index, algorithm, point, params).
TaskId = Tuple[int, str, int, str]


def _task_id(spec_index: int, info: Any) -> TaskId:
    return (spec_index, info.algorithm, info.point_index,
            repr(sorted(info.params.items())))


def _payload_bytes(store_path: Path) -> int:
    """Total result payload bytes in a store file (0 before it exists)."""
    if not store_path.exists():
        return 0
    conn = sqlite3.connect(str(store_path))
    try:
        return int(conn.execute(
            "SELECT COALESCE(SUM(payload_bytes), 0) FROM results").fetchone()[0])
    finally:
        conn.close()


def set_up(workload: Workload, specs: list, store_path: Path) -> None:
    """Store the part of the sweep that set-up owns; nothing when cold."""
    from repro.api import Session
    from repro.runtime.pool import reset_runner_pool

    if workload.warm_algorithms:
        # Store the sweep minus its last algorithm, then drop the pooled
        # runner (closing its store) so the timed batch starts with an
        # empty in-memory cache and must read the store.
        Session(store_path=str(store_path), backend=workload.backend,
                autoscale=0).run(warm_spec(workload, specs[0]), SCALE)
        reset_runner_pool()


def copy_store(source: Path, target: Path) -> None:
    """Copy a closed store file with SQLite's online backup."""
    src, dst = sqlite3.connect(str(source)), sqlite3.connect(str(target))
    try:
        src.backup(dst)
    finally:
        src.close()
        dst.close()


def serve_batch(workload: Workload, specs: list, store_path: Path, *,
                t0: float, trace: bool = False) -> Dict[str, Any]:
    """Stream the batch against the store at ``store_path`` and time it.

    ``t0`` is the ``time.monotonic()`` at which the round's process was
    started; ``setup_s`` runs from there to the first ``stream()`` call.
    Returns the delivered ``(task id, latency, result)`` triples with the
    timings, and the tracer when ``trace`` is set.
    """
    from repro.api import Session
    from repro.runtime.pool import reset_runner_pool

    # With no external workers, a drain that stops making progress is a
    # bug: fail the round instead of letting it poll until the timeout.
    options = {"stall_timeout_s": 60.0} if workload.backend == "queue" else {}
    session = Session(store_path=str(store_path), backend=workload.backend,
                      autoscale=0, backend_options=options)
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    delivered: List[Tuple[TaskId, float, Any]] = []
    try:
        bytes_before = _payload_bytes(store_path) if trace else 0
        setup_s = time.monotonic() - t0
        start = time.perf_counter()
        for spec_index, spec in enumerate(specs):
            for info, result in session.stream(spec, SCALE):
                delivered.append((_task_id(spec_index, info),
                                  time.perf_counter() - start, result))
        wall_s = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
        reset_runner_pool()
    return {"delivered": delivered, "setup_s": setup_s, "wall_s": wall_s,
            "start": start, "tracer": tracer,
            "payload_bytes": (_payload_bytes(store_path) - bytes_before
                              if trace else 0)}


def check_batch(workload: Workload, specs: list,
                delivered: List[Tuple[TaskId, float, Any]], *,
                reference: bool = True) -> Dict[str, Any]:
    """Check every served result; count the tasks that failed a check.

    A task fails when it is served as an error/timeout sentinel, its
    schedule does not validate, the schedule's recomputed makespan differs
    from the reported one, it is served twice, never served, or (on
    digest workloads, with ``reference`` set) its makespan differs from a
    direct ``run_one`` call.
    """
    from repro.core.bounds import lower_bound
    from repro.runtime.backends.base import run_one

    instances: Dict[TaskId, Any] = {}
    direct: Dict[TaskId, float] = {}
    for spec_index, spec in enumerate(specs):
        compiled = spec.compile(SCALE)
        for task, info in zip(compiled.tasks, compiled.infos):
            task_id = _task_id(spec_index, info)
            instances[task_id] = task.instance
            if workload.digest and reference:
                status, payload = run_one(task.algorithm, task.instance,
                                          task.kwargs_dict())
                direct[task_id] = (payload.makespan if status == "ok"
                                      else float("nan"))
    failed: Dict[TaskId, str] = {}
    seen = set()
    ratios = []
    for task_id, _latency, result in delivered:
        if task_id in seen or task_id not in instances:
            failed[task_id] = "served twice" if task_id in seen else "unknown task"
            continue
        seen.add(task_id)
        if result.meta.get("error") or result.meta.get("timeout"):
            failed[task_id] = f"sentinel: {result.meta.get('error') or 'timeout'}"
            continue
        problems = result.schedule.validate()
        if problems:
            failed[task_id] = f"invalid schedule: {problems[0]}"
        elif result.schedule.makespan() != result.makespan:
            failed[task_id] = "recomputed makespan differs"
        elif task_id in direct and direct[task_id] != result.makespan:
            failed[task_id] = "makespan differs from a direct run_one"
        ratios.append(result.makespan / lower_bound(instances[task_id]))
    for task_id in instances:
        if task_id not in seen:
            failed[task_id] = "never served"
    digest = hashlib.sha256("".join(
        f"{task_id}={result.makespan.hex()}\n"
        for task_id, _latency, result in sorted(
            delivered, key=lambda item: item[0])).encode()).hexdigest()
    return {"tasks": len(instances), "failed": len(failed),
            "problems": sorted({reason for reason in failed.values()}),
            "makespan_digest": digest,
            "makespan_ratio_mean": (statistics.fmean(ratios)
                                    if ratios else float("nan"))}


def run_round(workload_name: str, seed: int, work_dir: Path, *,
              t0: Optional[float] = None, trace: bool = False,
              spans_out: Optional[Path] = None,
              reference: bool = True) -> Dict[str, Any]:
    """Run one round in this process and return its measurements.

    The round sets up once, then streams the batch ``workload.batches``
    times (once when traced), each time against a fresh copy of the set-up
    store, and checks each batch's results.  ``reference=False`` skips the
    direct ``run_one`` calls of digest workloads; the caller then compares
    each batch's ``makespan_digest`` with a batch that made them.
    """
    t0 = time.monotonic() if t0 is None else t0
    workload = WORKLOADS[workload_name]
    saved = {var: os.environ.pop(var) for var in SESSION_ENV
             if var in os.environ}
    tmp = Path(tempfile.mkdtemp(prefix="round-", dir=work_dir))
    batches: List[Dict[str, Any]] = []
    try:
        specs = load_specs(workload, seed)
        template = tmp / "set-up.sqlite"
        set_up(workload, specs, template)
        for index in range(1 if trace else workload.batches):
            store = tmp / f"batch{index}.sqlite"
            if template.exists():
                copy_store(template, store)
            served = serve_batch(workload, specs, store, t0=t0, trace=trace)
            if index == 0:
                setup_s = served["setup_s"]
                peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF)
                               .ru_maxrss / 1024)
            delivered = served["delivered"]
            latencies = [latency for _id, latency, _result in delivered]
            checked = check_batch(workload, specs, delivered,
                                  reference=reference and index == 0)
            batches.append({
                "tasks": checked["tasks"], "served": len(delivered),
                "failed": checked["failed"], "problems": checked["problems"],
                "wall_s": served["wall_s"],
                "tasks_per_s": len(delivered) / served["wall_s"],
                "result_s_p50": statistics.median(latencies),
                "result_s_p90": statistics.quantiles(latencies, n=10)[8],
                "makespan_ratio_mean": checked["makespan_ratio_mean"],
                "makespan_digest": checked["makespan_digest"]})
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        os.environ.update(saved)
    out: Dict[str, Any] = {
        "workload": workload_name, "seed": seed, "traced": trace,
        "setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
        "makespan_ratio_mean": batches[0]["makespan_ratio_mean"],
        "batches": batches,
    }
    tracer = served["tracer"]
    if tracer is not None:
        out["layers"] = tracer.layer_metrics(served["wall_s"], len(delivered),
                                             served["payload_bytes"])
        out["spans"] = tracer.span_totals()
        if spans_out is not None:
            tracer.write(spans_out, origin=served["start"])
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work-dir", type=Path, required=True,
                        help="directory for the round's scratch store")
    parser.add_argument("--t0", type=float, default=None,
                        help="time.monotonic() when this process was started")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans-out", type=Path, default=None)
    parser.add_argument("--no-reference", action="store_true",
                        help="skip the direct run_one comparison")
    args = parser.parse_args(argv)
    out = run_round(args.workload, args.seed, args.work_dir, t0=args.t0,
                    trace=args.trace, spans_out=args.spans_out,
                    reference=not args.no_reference)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
