"""Tests for the LP/MILP modelling layer (repro.lp)."""

import numpy as np
import pytest

from repro.lp import LinExpr, Model, ObjectiveSense, SolutionStatus, Variable
from repro.lp.expression import as_expr


class TestExpressions:
    def test_variable_arithmetic(self):
        m = Model()
        x = m.add_var("x")
        y = m.add_var("y")
        expr = 2 * x + y - 3.0
        assert expr.coeffs == {0: 2.0, 1: 1.0}
        assert expr.constant == -3.0

    def test_expression_addition_merges_terms(self):
        m = Model()
        x = m.add_var("x")
        expr = x + x + x
        assert expr.coeffs == {0: 3.0}

    def test_cancellation_removes_term(self):
        m = Model()
        x = m.add_var("x")
        expr = x - x
        assert expr.coeffs == {}

    def test_negation_and_rsub(self):
        m = Model()
        x = m.add_var("x")
        expr = 5.0 - x
        assert expr.coeffs == {0: -1.0}
        assert expr.constant == 5.0
        assert (-x).coeffs == {0: -1.0}

    def test_scalar_multiplication(self):
        m = Model()
        x = m.add_var("x")
        y = m.add_var("y")
        expr = (x + 2 * y) * 3
        assert expr.coeffs == {0: 3.0, 1: 6.0}

    def test_value_evaluation(self):
        m = Model()
        x = m.add_var("x")
        y = m.add_var("y")
        expr = 2 * x + y + 1.0
        assert expr.value(np.array([3.0, 4.0])) == pytest.approx(11.0)

    def test_from_terms(self):
        m = Model()
        x = m.add_var("x")
        y = m.add_var("y")
        expr = LinExpr.from_terms([(x, 1.5), (y, -2.0)], constant=1.0)
        assert expr.coeffs == {0: 1.5, 1: -2.0}

    def test_as_expr_coercions(self):
        m = Model()
        x = m.add_var("x")
        assert as_expr(x).coeffs == {0: 1.0}
        assert as_expr(4.0).constant == 4.0
        with pytest.raises(TypeError):
            as_expr("nope")


class TestModelLP:
    def test_simple_minimisation(self):
        m = Model("toy")
        x = m.add_var("x", lower=0.0, upper=1.0)
        y = m.add_var("y", lower=0.0)
        m.add_constraint(x + 2.0 * y, ">=", 1.0)
        m.set_objective(x + y, sense=ObjectiveSense.MINIMIZE)
        sol = m.solve()
        assert sol.is_optimal
        assert sol.objective == pytest.approx(0.5, abs=1e-6)

    def test_maximisation(self):
        m = Model()
        x = m.add_var("x", lower=0.0, upper=2.0)
        y = m.add_var("y", lower=0.0, upper=3.0)
        m.add_constraint(x + y, "<=", 4.0)
        m.set_objective(2 * x + y, sense=ObjectiveSense.MAXIMIZE)
        sol = m.solve()
        assert sol.is_optimal
        assert sol.objective == pytest.approx(6.0, abs=1e-6)

    def test_equality_constraint(self):
        m = Model()
        x = m.add_var("x")
        y = m.add_var("y")
        m.add_constraint(x + y, "==", 2.0)
        m.set_objective(x, sense=ObjectiveSense.MINIMIZE)
        sol = m.solve()
        assert sol.is_optimal
        assert sol.value(x) == pytest.approx(0.0, abs=1e-6)
        assert sol.value(y) == pytest.approx(2.0, abs=1e-6)

    def test_infeasible(self):
        m = Model()
        x = m.add_var("x", lower=0.0, upper=1.0)
        m.add_constraint(x, ">=", 2.0)
        m.set_objective(x)
        sol = m.solve()
        assert sol.status is SolutionStatus.INFEASIBLE
        assert not sol.is_optimal

    def test_unbounded(self):
        m = Model()
        x = m.add_var("x", lower=0.0)
        m.set_objective(x, sense=ObjectiveSense.MAXIMIZE)
        sol = m.solve()
        assert sol.status in (SolutionStatus.UNBOUNDED, SolutionStatus.ERROR,
                              SolutionStatus.INFEASIBLE) or not sol.is_optimal

    def test_empty_model(self):
        m = Model()
        sol = m.solve()
        assert sol.is_optimal
        assert sol.objective == 0.0

    def test_vertex_solution_is_basic(self):
        # A degenerate transportation-style LP: the vertex solution should
        # have at most (#rows) non-zero variables.
        m = Model()
        xs = m.add_vars(6, "x", lower=0.0, upper=1.0)
        for group in (xs[0:3], xs[3:6]):
            m.add_constraint(sum(v for v in group), "==", 1.0)
        m.set_objective(sum((i + 1) * v for i, v in enumerate(xs)))
        sol = m.solve(vertex=True)
        assert sol.is_optimal
        support = np.sum(sol.values > 1e-9)
        assert support <= m.num_constraints

    def test_check_feasible_reports_violations(self):
        m = Model()
        x = m.add_var("x", lower=0.0, upper=1.0)
        m.add_constraint(x, ">=", 0.5, name="half")
        bad = np.array([0.0])
        assert "half" in m.check_feasible(bad)
        good = np.array([0.7])
        assert m.check_feasible(good) == []

    def test_variable_bound_validation(self):
        m = Model()
        with pytest.raises(ValueError):
            m.add_var("bad", lower=2.0, upper=1.0)

    def test_expression_value_via_solution(self):
        m = Model()
        x = m.add_var("x", lower=1.0, upper=1.0)
        m.set_objective(x)
        sol = m.solve()
        assert sol[x] == pytest.approx(1.0)
        assert sol[2 * x + 1] == pytest.approx(3.0)
        with pytest.raises(TypeError):
            sol.value("bogus")


class TestModelMIP:
    def test_integer_knapsack(self):
        m = Model()
        x = m.add_vars(3, "x", lower=0.0, upper=1.0, integral=True)
        weights = [3.0, 4.0, 5.0]
        values = [4.0, 5.0, 7.0]
        m.add_constraint(sum(w * v for w, v in zip(weights, x)), "<=", 7.0)
        m.set_objective(sum(c * v for c, v in zip(values, x)), sense=ObjectiveSense.MAXIMIZE)
        sol = m.solve(as_mip=True)
        assert sol.is_optimal
        assert sol.objective == pytest.approx(9.0)
        assert all(abs(sol.value(v) - round(sol.value(v))) < 1e-6 for v in x)

    def test_mip_vs_lp_relaxation_gap(self):
        m = Model()
        x = m.add_vars(2, "x", lower=0.0, upper=1.0, integral=True)
        m.add_constraint(x[0] + x[1], "<=", 1.5)
        m.set_objective(x[0] + x[1], sense=ObjectiveSense.MAXIMIZE)
        lp = m.solve()
        mip = m.solve(as_mip=True)
        assert lp.objective == pytest.approx(1.5)
        assert mip.objective == pytest.approx(1.0)

    def test_mip_infeasible(self):
        m = Model()
        x = m.add_var("x", lower=0.0, upper=1.0, integral=True)
        m.add_constraint(2 * x, "==", 1.0)
        m.set_objective(x)
        sol = m.solve(as_mip=True)
        assert sol.status is SolutionStatus.INFEASIBLE

    def test_stopped_mip_with_incumbent_is_incumbent(self, monkeypatch):
        """scipy status 4 ("other": the solve stopped, e.g. at a node
        limit) holding an ``x`` is a feasible incumbent, not infeasible."""
        from scipy import optimize

        m = Model()
        x = m.add_vars(2, "x", lower=0.0, upper=1.0, integral=True)
        m.add_constraint(x[0] + x[1], "<=", 1.5)
        m.set_objective(x[0] + x[1], sense=ObjectiveSense.MAXIMIZE)

        def stopped_milp(*args, **kwargs):
            return optimize.OptimizeResult(
                status=4, x=np.array([1.0, 0.0]), mip_gap=0.5,
                message="node limit reached")

        monkeypatch.setattr(optimize, "milp", stopped_milp)
        sol = m.solve(as_mip=True)
        assert sol.status is SolutionStatus.INCUMBENT
        assert sol.objective == pytest.approx(1.0)
        assert sol.meta["mip_gap"] == 0.5
