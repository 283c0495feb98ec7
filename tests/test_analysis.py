"""Tests for the analysis harness: tables, ratio measurement, experiment registry."""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms import class_aware_list_schedule, lpt_uniform_with_setups
from repro.analysis import (
    EXPERIMENTS,
    ResultTable,
    compare_algorithms,
    reference_makespan,
    run_experiment,
)
from repro.generators import uniform_instance, unrelated_instance


class TestResultTable:
    def test_add_row_and_render(self):
        table = ResultTable("demo", columns=["a", "b"])
        table.add_row(a=1, b=2.5)
        table.add_row(a="x")
        text = table.render()
        assert "demo" in text
        assert "2.5" in text

    def test_unknown_column_rejected(self):
        table = ResultTable("demo", columns=["a"])
        with pytest.raises(KeyError):
            table.add_row(z=1)

    def test_column_accessor(self):
        table = ResultTable("demo", columns=["a", "b"])
        table.add_row(a=1, b=2)
        table.add_row(a=3)
        assert table.column("a") == [1, 3]
        assert table.column("b") == [2, None]

    def test_markdown_output(self):
        table = ResultTable("demo", columns=["a"])
        table.add_row(a=1)
        table.add_note("hello")
        md = table.to_markdown()
        assert "| a |" in md
        assert "hello" in md

    def test_float_formatting(self):
        table = ResultTable("demo", columns=["x"])
        table.add_row(x=0.123456)
        table.add_row(x=123456.0)
        table.add_row(x=float("nan"))
        text = table.render()
        assert "0.123" in text
        assert "nan" in text


class TestTableExport:
    """`to_csv` / `to_json` back the CLI's --export flag."""

    def _table(self) -> ResultTable:
        table = ResultTable("export demo", columns=["name", "x", "note"])
        table.add_row(name="alpha", x=1.5, note="ok")
        table.add_row(name="beta", x=np.float64(2.25))  # numpy scalar cell
        table.add_row(name="gamma", x=float("nan"), note="")
        table.add_note("a footnote")
        return table

    def test_json_round_trip_is_lossless(self):
        table = self._table()
        payload = json.loads(table.to_json())
        assert payload["title"] == table.title
        assert payload["columns"] == table.columns
        assert payload["notes"] == table.notes
        assert len(payload["rows"]) == len(table.rows)
        for original, restored in zip(table.rows, payload["rows"]):
            assert set(original) == set(restored)
            for key, value in original.items():
                if isinstance(value, float) and value != value:
                    assert restored[key] != restored[key]  # NaN survives
                else:
                    assert restored[key] == value  # numpy == python value
                    assert type(restored[key]) in (str, int, float)

    def test_csv_carries_raw_values(self):
        import csv
        import io

        table = self._table()
        parsed = list(csv.reader(io.StringIO(table.to_csv())))
        assert parsed[0] == ["name", "x", "note"]
        assert len(parsed) == 1 + len(table.rows)
        assert parsed[1] == ["alpha", "1.5", "ok"]
        assert parsed[2][1] == "2.25"  # full precision, no display rounding
        assert parsed[2][2] == ""      # missing cell -> empty string


class TestReferenceMakespan:
    def test_small_instance_uses_exact(self):
        inst = uniform_instance(10, 3, 3, seed=1, integral=True)
        ref = reference_makespan(inst)
        assert ref.kind == "optimal"
        assert ref.value > 0

    def test_large_instance_falls_back_to_lp(self):
        inst = unrelated_instance(60, 8, 10, seed=2)
        ref = reference_makespan(inst, exact_limit=10)
        assert ref.kind in ("lp", "combinatorial")

    def test_reference_is_lower_bound(self):
        inst = uniform_instance(12, 3, 3, seed=3, integral=True)
        ref = reference_makespan(inst)
        greedy = class_aware_list_schedule(inst)
        assert greedy.makespan >= ref.value - 1e-6


class TestCompareAlgorithms:
    def test_structure(self):
        inst = uniform_instance(12, 3, 3, seed=4, integral=True)
        out = compare_algorithms(inst, {
            "lpt": lpt_uniform_with_setups,
            "greedy": class_aware_list_schedule,
        })
        assert set(out) == {"_reference", "lpt", "greedy"}
        assert out["lpt"]["ratio"] >= 1.0 - 1e-9
        assert out["greedy"]["makespan"] > 0

    def test_ratios_relative_to_reference(self):
        inst = uniform_instance(12, 3, 3, seed=5, integral=True)
        out = compare_algorithms(inst, {"lpt": lpt_uniform_with_setups})
        ref = out["_reference"]["value"]
        assert out["lpt"]["ratio"] == pytest.approx(out["lpt"]["makespan"] / ref)


class TestExperimentRegistry:
    def test_all_design_doc_experiments_registered(self):
        assert set(EXPERIMENTS) == {"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9",
                                    "F1"}

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("E42")

    def test_analysis_imports_neither_the_supervisor_nor_the_queue(self):
        """The paper's experiments stand apart from the stack benchmarks (F2-F5)."""
        import repro.analysis

        banned = ("repro.runtime.supervisor", "repro.store.task_queue", "sqlite3")
        package = Path(repro.analysis.__file__).parent
        modules = sorted(package.glob("*.py"))
        assert modules
        for path in modules:
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module:
                    names = [node.module] + [f"{node.module}.{alias.name}"
                                             for alias in node.names]
                else:
                    continue
                for name in names:
                    assert not name.startswith(banned), f"{path.name} imports {name}"

    def test_f1_runs_and_reports_groups(self):
        table = run_experiment("F1")
        assert len(table.rows) >= 1
        assert "group" in table.columns

    def test_e8_runs_quick(self):
        table = run_experiment("e8")
        assert len(table.rows) >= 2
        # More precise searches take at least as many iterations.
        by_precision = {}
        for row in table.rows:
            by_precision.setdefault(row["precision"], []).append(row["iterations"])
        precisions = sorted(by_precision)
        assert np.mean(by_precision[precisions[0]]) >= np.mean(by_precision[precisions[-1]]) - 1e-9

    def test_e4_runs_quick_and_shows_gap(self):
        table = run_experiment("E4")
        assert len(table.rows) >= 1
        for row in table.rows:
            # The Yes-instance schedule must beat the No-instance lower bound scale.
            assert row["yes_makespan"] <= row["K"]
            assert row["sc_lp_value"] < 2.0 + 1e-6
