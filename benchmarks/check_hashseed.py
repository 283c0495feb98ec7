"""Check that no perfbench workload's schedules depend on the hash seed.

Runs one round of every workload through ``perfbench/measure.py`` under
``PYTHONHASHSEED=0`` and again under ``PYTHONHASHSEED=1``, and exits 1
unless each workload serves every task and reports the same
``makespan_ratio_mean`` and the same set of ``makespan_digest`` values
under both seeds::

    python benchmarks/check_hashseed.py

It drives ``measure.py`` rather than ``perfbench/run.py`` because
``run.py`` starts each round with ``PYTHONHASHSEED=0`` whatever its own
environment says, so two ``run.py`` passes under different seeds compute
the same schedules by construction.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from workloads import WORKLOADS  # noqa: E402  (perfbench is not a package)

HASH_SEEDS = (0, 1)


def run_round(workload: str, hash_seed: int) -> Dict[str, object]:
    """One ``measure.py`` round of ``workload`` (benchmark seed 0) under
    ``PYTHONHASHSEED=hash_seed``: its ratio, digests and failed tasks."""
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=str(ROOT / "src"))
    with tempfile.TemporaryDirectory(prefix="hashseed-") as work_dir:
        proc = subprocess.run(
            [sys.executable, str(PERFBENCH / "measure.py"), "--workload",
             workload, "--seed", "0", "--work-dir", work_dir],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"makespan_ratio_mean": out["makespan_ratio_mean"],
            "makespan_digests": sorted({batch["makespan_digest"]
                                        for batch in out["batches"]}),
            "failed": sum(batch["failed"] for batch in out["batches"])}


def main() -> int:
    ok = True
    for workload in sorted(WORKLOADS):
        rounds = [run_round(workload, seed) for seed in HASH_SEEDS]
        for seed, result in zip(HASH_SEEDS, rounds):
            print(f"{workload} PYTHONHASHSEED={seed}: {json.dumps(result)}")
        if any(result["failed"] for result in rounds):
            print(f"{workload}: a round failed tasks")
            ok = False
        for key in ("makespan_ratio_mean", "makespan_digests"):
            if any(result[key] != rounds[0][key] for result in rounds):
                print(f"{workload}: {key} depends on PYTHONHASHSEED")
                ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
