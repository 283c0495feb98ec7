"""Tests for the LP/MILP matrix layer (repro.lp)."""

import numpy as np
import pytest
from scipy import optimize, sparse

from repro.algorithms import milp_optimal
from repro.generators import uniform_instance
from repro.lp import Model, SolutionStatus, SolverError


def rows(*dense_rows):
    return sparse.csr_matrix(np.array(dense_rows, dtype=float))


class TestModelLP:
    def test_simple_minimisation(self):
        # min x + y  s.t.  x + 2y >= 1,  0 <= x <= 1,  y >= 0
        m = Model(c=[1.0, 1.0], a_ub=rows([-1.0, -2.0]), b_ub=[-1.0],
                  upper=[1.0, np.inf], name="toy")
        sol = m.solve()
        assert sol.is_optimal
        assert sol.objective == pytest.approx(0.5, abs=1e-6)

    def test_maximisation(self):
        # max 2x + y  s.t.  x + y <= 4,  x <= 2,  y <= 3, as min -(2x + y)
        m = Model(c=[-2.0, -1.0], a_ub=rows([1.0, 1.0]), b_ub=[4.0], upper=[2.0, 3.0])
        sol = m.solve()
        assert sol.is_optimal
        assert -sol.objective == pytest.approx(6.0, abs=1e-6)

    def test_equality_constraint(self):
        m = Model(c=[1.0, 0.0], a_eq=rows([1.0, 1.0]), b_eq=[2.0])
        sol = m.solve()
        assert sol.is_optimal
        assert sol.values[0] == pytest.approx(0.0, abs=1e-6)
        assert sol.values[1] == pytest.approx(2.0, abs=1e-6)

    def test_infeasible(self):
        m = Model(c=[1.0], a_ub=rows([-1.0]), b_ub=[-2.0], upper=[1.0])
        sol = m.solve()
        assert sol.status is SolutionStatus.INFEASIBLE
        assert not sol.is_optimal

    def test_unbounded(self):
        m = Model(c=[-1.0])
        sol = m.solve()
        assert sol.status in (SolutionStatus.UNBOUNDED, SolutionStatus.ERROR,
                              SolutionStatus.INFEASIBLE) or not sol.is_optimal

    def test_empty_model(self):
        sol = Model(c=np.zeros(0)).solve()
        assert sol.is_optimal
        assert sol.objective == 0.0

    def test_vertex_solution_is_basic(self):
        # A degenerate transportation-style LP: the vertex solution should
        # have at most (#rows) non-zero variables.
        m = Model(c=np.arange(1.0, 7.0),
                  a_eq=rows([1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1]), b_eq=[1.0, 1.0],
                  upper=np.ones(6))
        sol = m.solve(vertex=True)
        assert sol.is_optimal
        support = np.sum(sol.values > 1e-9)
        assert support <= m.num_constraints

    def test_variable_bound_validation(self):
        with pytest.raises(ValueError):
            Model(c=[0.0], lower=[2.0], upper=[1.0])

    def test_block_shape_validation(self):
        with pytest.raises(ValueError):
            Model(c=[1.0, 1.0], a_ub=rows([1.0, 1.0]), b_ub=[1.0, 2.0])

    def test_solution_values_follow_column_order(self):
        m = Model(c=[1.0, 2.0, 3.0], lower=[1.0, 0.5, 0.0], upper=[1.0, 0.5, 0.0])
        assert m.num_constraints == 0
        sol = m.solve()
        assert sol.values.tolist() == pytest.approx([1.0, 0.5, 0.0])
        assert sol.objective == pytest.approx(2.0)

    def test_rowless_blocks_are_dropped(self):
        m = Model(c=[1.0], a_ub=sparse.csr_matrix((0, 1)), b_ub=np.zeros(0))
        assert m.a_ub is None and m.num_constraints == 0


class TestModelMIP:
    def test_integer_knapsack(self):
        m = Model(c=[-4.0, -5.0, -7.0], a_ub=rows([3.0, 4.0, 5.0]), b_ub=[7.0],
                  upper=np.ones(3), integrality=np.ones(3, dtype=int))
        sol = m.solve(as_mip=True)
        assert sol.is_optimal
        assert -sol.objective == pytest.approx(9.0)
        assert np.all(np.abs(sol.values - np.round(sol.values)) < 1e-6)

    def test_mip_vs_lp_relaxation_gap(self):
        m = Model(c=[-1.0, -1.0], a_ub=rows([1.0, 1.0]), b_ub=[1.5],
                  upper=np.ones(2), integrality=np.ones(2, dtype=int))
        lp = m.solve()
        mip = m.solve(as_mip=True)
        assert -lp.objective == pytest.approx(1.5)
        assert -mip.objective == pytest.approx(1.0)

    def test_mip_infeasible(self):
        m = Model(c=[1.0], a_eq=rows([2.0]), b_eq=[1.0], upper=[1.0],
                  integrality=np.ones(1, dtype=int))
        sol = m.solve(as_mip=True)
        assert sol.status is SolutionStatus.INFEASIBLE

    @staticmethod
    def _two_binaries():
        return Model(c=[-1.0, -1.0], a_ub=rows([1.0, 1.0]), b_ub=[1.5],
                     upper=np.ones(2), integrality=np.ones(2, dtype=int))

    def test_stopped_mip_with_incumbent_is_incumbent(self, monkeypatch):
        """scipy status 4 ("other": the solve stopped, e.g. at a node
        limit) holding an ``x`` is a feasible incumbent, not infeasible."""
        def stopped_milp(*args, **kwargs):
            return optimize.OptimizeResult(
                status=4, x=np.array([1.0, 0.0]), mip_gap=0.5,
                message="node limit reached")

        monkeypatch.setattr(optimize, "milp", stopped_milp)
        sol = self._two_binaries().solve(as_mip=True)
        assert sol.status is SolutionStatus.INCUMBENT
        assert -sol.objective == pytest.approx(1.0)
        assert sol.meta["mip_gap"] == 0.5

    @pytest.mark.parametrize("status, limit", [(1, "time or iteration limit"),
                                               (4, "scipy status 4")])
    def test_stopped_mip_without_incumbent_raises(self, monkeypatch, status, limit):
        """A limit hit before any feasible point proves nothing: it must
        not be reported as INFEASIBLE."""
        def stopped_milp(*args, **kwargs):
            return optimize.OptimizeResult(status=status, x=None,
                                           message="stopped early")

        monkeypatch.setattr(optimize, "milp", stopped_milp)
        with pytest.raises(SolverError, match=limit):
            self._two_binaries().solve(as_mip=True, time_limit=1.0)

    def test_mip_solve_prints_nothing_to_stdout(self, capfd):
        """HiGHS's MIP solver writes debug lines straight to fd 1 on this
        instance (E2 quick's second point); the solve keeps them off
        stdout, returns the same optimum, and gives fd 1 back."""
        instance = uniform_instance(16, 4, 4, seed=20191415, integral=True,
                                    speed_spread=4.0,
                                    setup_regime="comparable")
        result = milp_optimal(instance)
        out, _ = capfd.readouterr()
        assert out == ""
        assert result.makespan == 113.0
        print("fd 1 restored")
        assert capfd.readouterr().out == "fd 1 restored\n"
