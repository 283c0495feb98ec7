"""The committed benchmark trajectory: ``BENCH_<workload>.json`` at the repo root.

For each workload this runs ``perfbench/run.py`` at fixed seeds, once
untraced (the end-to-end metrics) and once traced (the per-layer
metrics), and writes one file holding, for every metric, its value per
seed and the median and interquartile range over the seeds, together with
perfbench's host facts and git commit.  Every performance change re-runs
it on the same host and commits the files, so ``git log -p BENCH_*.json``
is the trajectory.

Usage, from the root of a checkout::

    python3 benchmarks/bench_trajectory.py

Each run takes about ``SECONDS``, so a call takes about
3 workloads x 3 seeds x 2 runs x 35 s.  The script defines no tests.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
WORKLOADS = ("paper-cold", "queue-small", "sweep-extend")
SEEDS = (0, 1, 2)
SECONDS = 35.0


def run_once(workload: str, seed: int, seconds: float, trace: int) -> Dict[str, Any]:
    """One ``perfbench/run.py`` run: its result line plus the host it recorded."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"perfbench {workload} seed {seed} trace {trace} printed nothing "
                           f"(rc={proc.returncode})")
    result = json.loads(lines[-1])
    record = ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}.json"
    result["host"] = json.loads(record.read_text())["host"]
    return result


def spread(values: Sequence[float]) -> Dict[str, Any]:
    """Median, quartiles and IQR of per-seed values (IQR 0 for one seed)."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "values": list(values)}


def tree_dirty() -> Optional[bool]:
    """Whether tracked files differ from the commit (``None`` without git)."""
    try:
        proc = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return bool(proc.stdout.strip())


def trajectory(workload: str, seeds: Sequence[int], seconds: float,
               dirty: Optional[bool]) -> Dict[str, Any]:
    """Every metric of ``workload`` over ``seeds``, in the committed file's layout."""
    runs: List[Dict[str, Any]] = [run_once(workload, seed, seconds, trace)
                                  for trace in (0, 1) for seed in seeds]
    hosts = {json.dumps(run["host"], sort_keys=True) for run in runs}
    if len(hosts) != 1:
        raise RuntimeError(f"runs of {workload} disagree on the host: {sorted(hosts)}")
    names = [name for run in runs for name in run["metrics"]]
    metrics = {}
    for name in dict.fromkeys(names):
        values = [run["metrics"][name]["value"] for run in runs if name in run["metrics"]]
        unit = next(run["metrics"][name]["unit"] for run in runs if name in run["metrics"])
        metrics[name] = {"unit": unit, **spread(values)}
    return {
        "workload": workload,
        "seeds": list(seeds),
        "seconds": seconds,
        "git_sha": runs[0]["host"]["git_sha"],
        "tree_dirty": dirty,
        "host": runs[0]["host"],
        "correct": all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics,
    }


def main() -> int:
    # Checked before the first file is written: the BENCH files are tracked.
    dirty = tree_dirty()
    correct = True
    for workload in WORKLOADS:
        data = trajectory(workload, SEEDS, SECONDS, dirty)
        path = ROOT / f"BENCH_{workload}.json"
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"{path}: correct={data['correct']} "
              + " ".join(f"{name}={data['metrics'][name]['median']:.4g}"
                         for name in ("tasks_per_s", "result_s_p90", "makespan_ratio_mean")))
        correct = correct and data["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
