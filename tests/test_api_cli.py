"""``python -m repro run``: the scenario CLI, in-process and end-to-end.

The acceptance contract: a ``scenarios/*.toml`` file executes via
``python -m repro run`` producing a non-empty ResultTable **with zero
code changes**.  Most tests drive ``main(argv)`` in-process (fast, no
fork); one tier-1 smoke runs the real module entry point in a
subprocess on the serial backend — the same invocation CI uses.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.api.cli import main
from repro.runtime import pool

REPO_ROOT = pathlib.Path(__file__).parent.parent
SMALLEST_SCENARIO = REPO_ROOT / "scenarios" / "uniform_baselines.toml"


@pytest.fixture(autouse=True)
def isolated_runner_pool(monkeypatch):
    monkeypatch.setattr(pool, "_RUNNERS", {})
    monkeypatch.setattr(pool, "_SHARED_STORES", {})
    for var in ("REPRO_RESULT_STORE", "REPRO_BACKEND", "REPRO_AUTOSCALE"):
        monkeypatch.delenv(var, raising=False)
    yield
    for store in pool._SHARED_STORES.values():
        store.close()


class TestRunCommand:
    def test_runs_a_shipped_scenario_and_prints_the_table(self, capsys):
        rc = main(["run", str(SMALLEST_SCENARIO), "--scale", "quick",
                   "--backend", "serial"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Uniform machines" in out
        assert "lpt-with-setups" in out  # non-empty table body

    def test_csv_export_round_trips(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out_path = tmp_path / "rows.csv"
        rc = main(["run", str(SMALLEST_SCENARIO), "--backend", "serial",
                   "--export", "csv", "--output", str(out_path)])
        assert rc == 0
        lines = out_path.read_text().splitlines()
        header = lines[0].split(",")
        assert header[0] == "algorithm"
        assert len(lines) == 1 + 6  # 3 algorithms x 2 quick points

    def test_json_export_parses_and_matches_the_table(self, tmp_path,
                                                      monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rc = main(["run", str(SMALLEST_SCENARIO), "--backend", "serial",
                   "--export", "json"])
        assert rc == 0
        default_output = tmp_path / "uniform_baselines.json"
        payload = json.loads(default_output.read_text())
        assert payload["columns"][0] == "algorithm"
        assert len(payload["rows"]) == 6

    def test_store_flag_persists_results(self, tmp_path, capsys):
        store = tmp_path / "cli_store.sqlite"
        rc = main(["run", str(SMALLEST_SCENARIO), "--backend", "serial",
                   "--store", str(store)])
        assert rc == 0
        assert store.exists()
        from repro.store import ResultStore

        with ResultStore(store) as handle:
            assert len(handle) == 6  # every grid result written through

    def test_markdown_flag(self, capsys):
        rc = main(["run", str(SMALLEST_SCENARIO), "--backend", "serial",
                   "--markdown"])
        assert rc == 0
        assert "| algorithm |" in capsys.readouterr().out

    def test_missing_spec_file_errors(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["run", str(tmp_path / "nope.toml")])

    def test_autoscale_without_queue_backend_is_an_error(self, capsys):
        """An explicitly requested worker fleet must not silently not
        exist: autoscaling only means something on the queue backend."""
        rc = main(["run", str(SMALLEST_SCENARIO), "--backend", "serial",
                   "--autoscale", "4"])
        assert rc == 2
        assert "--backend queue" in capsys.readouterr().err


class TestModuleEntryPoint:
    """The real ``python -m repro run`` invocation, as CI runs it."""

    def test_cli_smoke_on_the_serial_backend(self, tmp_path):
        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env["REPRO_BACKEND"] = "serial"
        env.pop("REPRO_RESULT_STORE", None)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "run", str(SMALLEST_SCENARIO),
             "--scale", "quick"],
            env=env, cwd=str(tmp_path), capture_output=True, text=True,
            timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert "lpt-with-setups" in proc.stdout
        assert "result(s)" in proc.stderr


class TestImports:
    def test_api_import_leaves_networkx_out(self):
        """networkx is a test-only dependency: no module of the package loads it."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.api; print('networkx' in sys.modules)"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
