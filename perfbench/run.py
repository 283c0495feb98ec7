"""Benchmark entry point for the scheduling stack, one workload per call.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-cold --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all        # every workload in turn

A run repeats rounds of ``measure.py`` (one fresh process per round: set
up once, stream the batch one or more times, check every result) for
about ``--seconds``.  The first batch of the run also compares every
makespan with a direct ``run_one`` call (on the workloads that ask for
it); each later batch must reproduce its makespan digest, or all its
tasks count as failed.  A run does at least three rounds, and after those
starts a round only while a round of median length would still end in
time.  With ``--trace 0`` every round is untraced; the batch timings are
medians over every batch of the run and the other end-to-end metrics
medians over the rounds.  With ``--trace 1`` rounds alternate untraced and traced; the
per-layer metrics are medians over the traced rounds, and
``trace.overhead_frac`` compares their batch wall time with the untraced
rounds'.

The report goes to standard output, one line per metric with its unit and
sample counts; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(every round, the host and the git commit) is written under
``.perfbench_out/``, and traced rounds dump their spans there too.  Scratch
stores live under ``.perfbench_tmp/`` and are removed after each run.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import sqlite3
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from measure import SESSION_ENV
from tracing import PER_LAYER_UNITS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: End-to-end metrics of an untraced run, with their units.  ``ok_frac``
#: is ``1 - failed_frac`` (failed tasks over tasks attempted): a metric
#: that is 0 on every good run has no spread to bound.
END_TO_END_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "tasks_per_s": "1/s",
    "result_s_p50": "s",
    "result_s_p90": "s",
    "makespan_ratio_mean": "ratio",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}

#: End-to-end metrics measured once per batch and once per round.
BATCH_METRICS = ("tasks_per_s", "result_s_p50", "result_s_p90")
ROUND_METRICS = ("setup_s", "makespan_ratio_mean", "peak_rss_mb")

MIN_ROUNDS = 3
ROUND_TIMEOUT_S = 100.0


def git_sha(root: Path) -> Optional[str]:
    """The checked-out commit, read from ``.git`` inside ``root`` only."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_facts() -> Dict[str, Any]:
    def version(package: str) -> Optional[str]:
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {"usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "sqlite": sqlite3.sqlite_version, "git_sha": git_sha(ROOT)}


def spawn_round(workload: str, seed: int, work_dir: Path, *, trace: bool,
                spans_out: Path, reference: bool = True) -> Dict[str, Any]:
    """Run ``measure.py`` for one round in a fresh process; its result."""
    env = {key: value for key, value in os.environ.items()
           if key not in SESSION_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    env.update(TMPDIR=str(work_dir), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "measure.py"), "--workload", workload,
           "--seed", str(seed), "--work-dir", str(work_dir)]
    if trace:
        cmd += ["--trace", "--spans-out", str(spans_out)]
    if not reference:
        cmd.append("--no-reference")
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"round of {workload!r} exited rc={proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fail_diverging_batches(batches: List[Dict[str, Any]]) -> None:
    """Fail every task of a batch whose makespans differ from the first's.

    All the batches of a run serve the same seeded tasks, and only the
    first compares them with direct ``run_one`` calls.
    """
    for batch in batches[1:]:
        if batch["makespan_digest"] != batches[0]["makespan_digest"]:
            batch["failed"] = batch["tasks"]
            batch["problems"].append("makespans differ from the first batch's")


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> Dict[str, Any]:
    """Every round of one run, aggregated into the reported metrics."""
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=tmp_root))
    rounds: List[Dict[str, Any]] = []
    durations: List[float] = []
    start = time.monotonic()
    try:
        # Start another round while it is expected to end in time.
        while (len(rounds) < MIN_ROUNDS or time.monotonic() - start
               + statistics.median(durations) <= seconds):
            traced = trace and len(rounds) % 2 == 1
            spans_out = out_dir / (f"{workload}-seed{seed}-round"
                                   f"{len(rounds)}.spans.jsonl")
            began = time.monotonic()
            # Only the first round repeats every task with a direct
            # run_one call; later batches must reproduce its makespans.
            rounds.append(spawn_round(workload, seed, work_dir, trace=traced,
                                      spans_out=spans_out,
                                      reference=not rounds))
            durations.append(time.monotonic() - began)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another run's scratch is still there

    batches = [batch for r in rounds for batch in r["batches"]]
    fail_diverging_batches(batches)
    attempted = sum(batch["tasks"] for batch in batches)
    failed = sum(batch["failed"] for batch in batches)
    if trace:
        traced_rounds = [r for r in rounds if r["traced"]]
        metrics = {name: statistics.median(r["layers"][name]
                                           for r in traced_rounds)
                   for name in PER_LAYER_UNITS if name != "trace.overhead_frac"}
        # A traced round streams one batch, so it is compared with the
        # first batch of each untraced round.
        metrics["trace.overhead_frac"] = (
            statistics.median(r["batches"][0]["wall_s"] for r in traced_rounds)
            / statistics.median(r["batches"][0]["wall_s"] for r in rounds
                                if not r["traced"]) - 1.0)
        units = PER_LAYER_UNITS
    else:
        metrics = {name: statistics.median(
                       batch[name] for batch in batches)
                   for name in BATCH_METRICS}
        metrics.update({name: statistics.median(r[name] for r in rounds)
                        for name in ROUND_METRICS})
        metrics["ok_frac"] = 1.0 - failed / attempted
        units = END_TO_END_UNITS
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "host": host_facts(), "rounds": rounds,
        "result": {"correct": failed == 0, "attempted": attempted,
                   "failed": failed,
                   "metrics": {name: {"value": metrics[name],
                                      "unit": units[name]}
                               for name in units}},
    }
    (out_dir / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return record


def report(record: Dict[str, Any]) -> None:
    """Print the human-readable report of one run."""
    rounds = record["rounds"]
    untraced = [r for r in rounds if not r["traced"]]
    batches = [batch for r in rounds for batch in r["batches"]]
    result = record["result"]
    print(f"perfbench workload={record['workload']} seed={record['seed']} "
          f"trace={int(record['trace'])} rounds={len(rounds)} "
          f"({len(untraced)} untraced), batches={len(batches)}")
    print("host: " + json.dumps(record["host"], sort_keys=True))
    basis = (f"median of {len(rounds) - len(untraced)} traced rounds"
             if record["trace"] else f"median of {len(rounds)} rounds")
    for name, metric in result["metrics"].items():
        note = basis
        if name in BATCH_METRICS and not record["trace"]:
            note = f"median of {len(batches)} batches"
        if name.startswith("result_s_"):
            note += f", {batches[0]['served']} results each"
        elif name == "ok_frac":
            note = f"over all {result['attempted']} tasks"
        print(f"  {name:<42} {metric['value']:>14.6g} {metric['unit']:<6} "
              f"({note})")
    failed_frac = result["failed"] / result["attempted"]
    print(f"  failed_frac {failed_frac:g} "
          f"({result['failed']}/{result['attempted']} tasks)")
    for problem in sorted({p for batch in batches
                           for p in batch["problems"]}):
        print(f"  check failed: {problem}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the scheduling stack on one workload.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run from "
              f"the root of a checkout", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    correct = True
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        report(record)
        print(json.dumps(record["result"]), flush=True)
        correct = correct and record["result"]["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
