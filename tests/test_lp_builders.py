"""The five LP builders against plain-loop transcriptions of the paper's LPs.

Each builder computes its matrices from numpy masks.  Here every program is
written out again one variable and one constraint at a time, in the column
and row order the builders document, and the two must agree entry by
entry and solve to the same objective.  Instances have ineligible
(``inf``) pairs and zero coefficients; guesses range over values that
filter columns.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Dict, List, Optional

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize

from repro.algorithms.exact import build_ilp_um
from repro.algorithms.restricted.lp_relaxed_ra import solve_lp_relaxed_ra
from repro.algorithms.unrelated.lp_relaxation import solve_ilp_um_relaxation
from repro.core.bounds import lp_lower_bound
from repro.core.instance import Instance
from repro.lp.model import Model
from repro.setcover.instance import SetCoverInstance
from repro.setcover.lp import _build_cover_model, lp_cover_value

INF = float("inf")
SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def instances(draw) -> Instance:
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, 3))
    # About one pair in eight is ineligible (inf).
    times = st.integers(0, 23).map(lambda v: INF if v > 20 else float(v))
    p = np.array(draw(st.lists(times, min_size=m * n, max_size=m * n))).reshape(m, n)
    for j in range(n):  # every job needs an eligible machine
        if not np.isfinite(p[:, j]).any():
            p[draw(st.integers(0, m - 1)), j] = float(draw(st.integers(1, 20)))
    setups = st.integers(0, 11).map(lambda v: INF if v > 10 else float(v))
    s = np.array(draw(st.lists(setups, min_size=m * k, max_size=m * k))).reshape(m, k)
    classes = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    return Instance.unrelated(p, s, classes, name="hyp")


guesses = st.floats(0.0, 45.0, allow_nan=False)


@contextlib.contextmanager
def captured_models():
    """Record every :class:`Model` that is solved inside the block."""
    models: List[Model] = []
    real_solve = Model.solve

    def solve(self, **kwargs):
        models.append(self)
        return real_solve(self, **kwargs)

    Model.solve = solve
    try:
        yield models
    finally:
        Model.solve = real_solve


# ---------------------------------------------------------------------------
# plain-loop transcriptions
# ---------------------------------------------------------------------------
class Program:
    """A program written term by term: named columns, dense rows."""

    def __init__(self) -> None:
        self.cols: Dict[tuple, int] = {}
        self.upper: List[float] = []
        self.integral: List[int] = []
        self.ub: List[tuple] = []
        self.eq: List[tuple] = []
        self.objective: Dict[tuple, float] = {}

    def var(self, key: tuple, upper: float = 1.0, integral: bool = False) -> None:
        self.cols[key] = len(self.cols)
        self.upper.append(upper)
        self.integral.append(int(integral))

    def row(self, terms) -> np.ndarray:
        dense = np.zeros(len(self.cols))
        for key, coeff in terms:
            dense[self.cols[key]] += coeff
        return dense

    def arrays(self) -> Dict[str, np.ndarray]:
        n = len(self.cols)

        def stack(rows):
            return (np.array([r for r, _ in rows]).reshape(len(rows), n),
                    np.array([b for _, b in rows], dtype=float))

        a_ub, b_ub = stack(self.ub)
        a_eq, b_eq = stack(self.eq)
        return {"c": self.row(self.objective.items()), "a_ub": a_ub, "b_ub": b_ub,
                "a_eq": a_eq, "b_eq": b_eq, "lower": np.zeros(n),
                "upper": np.array(self.upper, dtype=float),
                "integrality": np.array(self.integral, dtype=int)}

    def linprog_objective(self) -> Optional[float]:
        """Optimum of the transcription, ``None`` when infeasible."""
        a = self.arrays()
        if not self.cols:
            return 0.0
        res = optimize.linprog(
            a["c"], A_ub=a["a_ub"] if self.ub else None, b_ub=a["b_ub"] if self.ub else None,
            A_eq=a["a_eq"] if self.eq else None, b_eq=a["b_eq"] if self.eq else None,
            bounds=list(zip(a["lower"], a["upper"])), method="highs")
        return float(res.fun) if res.status == 0 else None


def ilp_um_loops(inst: Instance, keep_y: Callable[[int, int], bool],
                 keep_x: Callable[[int, int], bool], *, setups_first: bool = True,
                 t_upper: float = INF, integral: bool = False) -> Program:
    """ILP-UM: min T s.t. (1) loads ≤ T, (2) every job assigned, (4) x ≤ y."""
    prog = Program()
    prog.var(("T",), upper=t_upper)
    for i in range(inst.num_machines):
        ys = [("y", i, k) for k in range(inst.num_classes) if keep_y(i, k)]
        xs = [("x", i, j) for j in range(inst.num_jobs) if keep_x(i, j)]
        for key in (ys + xs if setups_first else xs + ys):
            prog.var(key, integral=integral)
    prog.objective[("T",)] = 1.0
    for i in range(inst.num_machines):  # (1)
        terms = [(("x", i, j), inst.processing[i, j]) for j in range(inst.num_jobs)
                 if ("x", i, j) in prog.cols]
        terms += [(("y", i, k), inst.setups[i, k]) for k in range(inst.num_classes)
                  if ("y", i, k) in prog.cols]
        if terms:
            prog.ub.append((prog.row(terms + [(("T",), -1.0)]), 0.0))
    for j in range(inst.num_jobs):  # (2)
        prog.eq.append((prog.row([(("x", i, j), 1.0) for i in range(inst.num_machines)
                                  if ("x", i, j) in prog.cols]), 1.0))
    for key in list(prog.cols):  # (4), or x = 0 without a setup column
        if key[0] != "x":
            continue
        setup = ("y", key[1], inst.job_class(key[2]))
        if setup in prog.cols:
            prog.ub.append((prog.row([(key, 1.0), (setup, -1.0)]), 0.0))
        else:
            prog.eq.append((prog.row([(key, 1.0)]), 0.0))
    return prog


def relaxed_ra_loops(inst: Instance, guess: float, variant: str,
                     tolerance: float = 1e-9) -> Program:
    """LP-RelaxedRA (11)–(14), or (16) in place of (14) for ``ptimes``."""
    prog = Program()
    classes = sorted({inst.job_class(j) for j in range(inst.num_jobs)})
    workload, per_job = {}, {}
    for i in range(inst.num_machines):
        for k in classes:
            members = [j for j in range(inst.num_jobs) if inst.job_class(j) == k]
            workload[i, k] = sum(inst.processing[i, j] for j in members)
            per_job[i, k] = inst.processing[i, members[0]]
    for k in classes:
        for i in range(inst.num_machines):
            s = inst.setups[i, k]
            if not (np.isfinite(s) and np.isfinite(workload[i, k])):
                continue
            limit = s if variant == "restrictions" else s + per_job[i, k]
            if limit <= guess + tolerance:  # (14) / (16)
                prog.var(("x", i, k))
                prog.objective[("x", i, k)] = s
    for k in classes:  # (12)
        prog.eq.append((prog.row([(("x", i, k), 1.0) for i in range(inst.num_machines)
                                  if ("x", i, k) in prog.cols]), 1.0))
    for i in range(inst.num_machines):  # (11)
        terms = []
        for k in classes:
            if ("x", i, k) in prog.cols:
                s, w = inst.setups[i, k], workload[i, k]
                with np.errstate(over="ignore"):
                    alpha = max(1.0, w / (guess - s)) if guess - s > 0 else 1.0
                terms.append((("x", i, k), w + (alpha * s if s > 0 else 0.0)))
        if terms:
            prog.ub.append((prog.row(terms), float(guess)))
    return prog


def setcover_loops(instance: SetCoverInstance, integral: bool) -> Program:
    """min Σ x_S s.t. every element covered at least once (as ``-Σ ≤ -1``)."""
    prog = Program()
    for s in range(instance.num_subsets):
        prog.var(("x", s), integral=integral)
        prog.objective[("x", s)] = 1.0
    for e in range(instance.universe_size):
        prog.ub.append((prog.row([(("x", s), -1.0) for s, subset in
                                  enumerate(instance.subsets) if e in subset]), -1.0))
    return prog


def assert_same_arrays(model: Model, prog: Program, *, integral: bool = False) -> None:
    want = prog.arrays()
    n = model.num_vars
    assert n == len(prog.cols)
    got_ub = np.zeros((0, n)) if model.a_ub is None else model.a_ub.toarray()
    got_eq = np.zeros((0, n)) if model.a_eq is None else model.a_eq.toarray()
    np.testing.assert_array_equal(model.c, want["c"])
    np.testing.assert_array_equal(got_ub, want["a_ub"])
    np.testing.assert_array_equal(np.zeros(0) if model.b_ub is None else model.b_ub,
                                  want["b_ub"])
    np.testing.assert_array_equal(got_eq, want["a_eq"])
    np.testing.assert_array_equal(np.zeros(0) if model.b_eq is None else model.b_eq,
                                  want["b_eq"])
    np.testing.assert_array_equal(model.lower, want["lower"])
    np.testing.assert_array_equal(model.upper, want["upper"])
    if integral:
        np.testing.assert_array_equal(model.integrality, want["integrality"])
    else:
        assert model.integrality is None


def assert_same_objective(got: Optional[float], prog: Program) -> None:
    want = prog.linprog_objective()
    if want is None:
        assert got is None
    else:
        assert got == pytest.approx(want, rel=1e-9, abs=1e-7)


# ---------------------------------------------------------------------------
# the five builders
# ---------------------------------------------------------------------------
@SETTINGS
@given(inst=instances(), guess=guesses)
def test_ilp_um_relaxation_matches_loops(inst, guess):
    tol = 1e-6
    prog = ilp_um_loops(
        inst,
        keep_y=lambda i, k: np.isfinite(inst.setups[i, k]) and inst.setups[i, k] <= guess + tol,
        keep_x=lambda i, j: (np.isfinite(inst.processing[i, j])
                             and inst.processing[i, j] <= guess + tol
                             and np.isfinite(inst.setups[i, inst.job_class(j)])
                             and inst.setups[i, inst.job_class(j)] <= guess + tol))
    with captured_models() as models:
        relax = solve_ilp_um_relaxation(inst, guess, tolerance=tol)
    if any(not row.any() for row, _ in prog.eq):  # a job lost every machine
        assert models == [] and not relax.feasible
        return
    (model,) = models
    assert_same_arrays(model, prog)
    got = relax.fractional_makespan
    assert_same_objective(got if np.isfinite(got) else None, prog)


@SETTINGS
@given(inst=instances(), guess=st.one_of(st.none(), guesses), integral=st.booleans())
def test_build_ilp_um_matches_loops(inst, guess, integral):
    bound = INF if guess is None else guess + 1e-9

    def keep_y(i, k):
        return np.isfinite(inst.setups[i, k]) and inst.setups[i, k] <= bound

    prog = ilp_um_loops(
        inst, keep_y,
        keep_x=lambda i, j: (np.isfinite(inst.processing[i, j])
                             and inst.processing[i, j] <= bound
                             and keep_y(i, inst.job_class(j))),
        t_upper=INF if guess is None else guess, integral=integral)
    if any(not row.any() for row, _ in prog.eq):
        with pytest.raises(ValueError, match="no machine"):
            build_ilp_um(inst, integral=integral, makespan_guess=guess)
        return
    model, x_col, y_col = build_ilp_um(inst, integral=integral, makespan_guess=guess)
    assert_same_arrays(model, prog, integral=integral)
    for key, col in prog.cols.items():
        if key[0] == "x":
            assert x_col[key[1], key[2]] == col
        elif key[0] == "y":
            assert y_col[key[1], key[2]] == col
    assert (x_col >= 0).sum() + (y_col >= 0).sum() == len(prog.cols) - 1
    sol = model.solve()
    assert_same_objective(sol.objective if sol.is_optimal else None, prog)


@SETTINGS
@given(inst=instances())
def test_lp_lower_bound_matches_loops(inst):
    prog = ilp_um_loops(inst, keep_y=lambda i, k: np.isfinite(inst.setups[i, k]),
                        keep_x=lambda i, j: np.isfinite(inst.processing[i, j]),
                        setups_first=False)
    with captured_models() as models:
        try:
            got = lp_lower_bound(inst)
        except RuntimeError:  # e.g. a job whose only machines lack its setup
            got = None
    (model,) = models
    assert_same_arrays(model, prog)
    assert_same_objective(got, prog)


@SETTINGS
@given(inst=instances(), guess=guesses, variant=st.sampled_from(["restrictions", "ptimes"]))
# A subnormal guess overflows α = p̄ / T to inf on a zero setup.
@example(inst=Instance.unrelated(np.array([[2.0]]), np.array([[0.0]]), [0], name="hyp"),
         guess=1.1125369292536007e-308, variant="restrictions")
def test_lp_relaxed_ra_matches_loops(inst, guess, variant):
    prog = relaxed_ra_loops(inst, guess, variant)
    with captured_models() as models:
        result = solve_lp_relaxed_ra(inst, guess, variant=variant)
    if any(not row.any() for row, _ in prog.eq):  # a class lost every machine
        assert models == [] and not result.feasible
        return
    (model,) = models
    assert_same_arrays(model, prog)
    got = None
    if result.feasible:
        got = sum(inst.setups[i, k] * result.x[i, k] for (_, i, k) in prog.cols)
    assert_same_objective(got, prog)


@SETTINGS
@given(universe=st.integers(1, 6), data=st.data(), integral=st.booleans())
def test_setcover_model_matches_loops(universe, data, integral):
    subsets = data.draw(st.lists(st.sets(st.integers(0, universe - 1)), min_size=1, max_size=6))
    subsets.append(set(range(universe)))  # keep the universe coverable
    instance = SetCoverInstance.from_lists(universe, subsets)
    prog = setcover_loops(instance, integral)
    assert_same_arrays(_build_cover_model(instance, integral=integral), prog,
                       integral=integral)
    assert_same_objective(lp_cover_value(instance), prog)
