"""ILP-UM (Section 3) in matrix form, over the columns eligibility masks allow.

Three programs share constraints (1), (2) and (4) of ILP-UM and differ only
in which ``x_ij`` / ``y_ik`` columns exist and how ``T`` is bounded: the
MILP of :func:`repro.algorithms.exact.build_ilp_um`, the per-guess
relaxation that the randomized rounding solves, and the LP lower bound of
:func:`repro.core.bounds.lp_lower_bound`.  :func:`ilp_um_model` builds all
three straight from the masks.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from scipy import sparse

from repro.core.instance import Instance
from repro.lp.model import Model

__all__ = ["ilp_um_model"]


def ilp_um_model(instance: Instance, x_mask: np.ndarray, y_mask: np.ndarray, *,
                 name: str, setups_first: bool = True,
                 t_upper: Optional[float] = None,
                 integral: bool = False) -> Tuple[Model, np.ndarray, np.ndarray]:
    """``min T`` subject to ILP-UM's (1), (2), (4) over the masked columns.

    Columns: ``T`` first (bounds ``[0, t_upper]``), then machine by machine
    the ``y_ik`` of ``y_mask`` and the ``x_ij`` of ``x_mask`` — setups
    before jobs unless ``setups_first`` is false — each in ``[0, 1]`` and
    integral when ``integral`` is set.

    ``a_ub`` rows: the load rows (1) ``Σ_j p_ij x_ij + Σ_k s_ik y_ik - T ≤ 0``
    of the machines with any column, then one coupling row (4)
    ``x_ij - y_ik ≤ 0`` per ``x`` column whose ``y_ik`` exists, in column
    order.  ``a_eq`` rows: the assignment row (2) ``Σ_i x_ij = 1`` of every
    job (empty, hence infeasible, for a job without columns), then
    ``x_ij = 0`` per ``x`` column whose ``y_ik`` does not exist.

    Returns ``(model, x_col, y_col)``: the column of each ``(i, j)`` /
    ``(i, k)`` pair, ``-1`` where masked out.
    """
    inst = instance
    n, num_classes = inst.num_jobs, inst.num_classes
    if setups_first:
        grid = np.hstack([y_mask, x_mask])
        coeff = np.hstack([inst.setups, inst.processing])
    else:
        grid = np.hstack([x_mask, y_mask])
        coeff = np.hstack([inst.processing, inst.setups])
    cols = np.full(grid.shape, -1)
    cols[grid] = np.arange(1, np.count_nonzero(grid) + 1)
    if setups_first:
        y_col, x_col = cols[:, :num_classes], cols[:, num_classes:]
    else:
        x_col, y_col = cols[:, :n], cols[:, n:]
    num_vars = 1 + np.count_nonzero(grid)

    # (1) one load row per machine that has a column.
    loaded = grid.any(axis=1)
    n_load = int(np.count_nonzero(loaded))
    load_row = np.cumsum(loaded) - 1
    gi, gc = np.nonzero(grid)
    # (4) coupling, or x_ij = 0 where the setup column is missing.
    xi, xj = np.nonzero(x_mask)
    xc = x_col[xi, xj]
    yc = y_col[xi, inst.job_classes[xj]]
    coupled = yc >= 0
    n_couple = int(np.count_nonzero(coupled))
    couple_row = n_load + np.arange(n_couple)
    a_ub = sparse.csr_matrix((
        np.concatenate([coeff[gi, gc], -np.ones(n_load),
                        np.ones(n_couple), -np.ones(n_couple)]),
        (np.concatenate([load_row[gi], np.arange(n_load), couple_row, couple_row]),
         np.concatenate([cols[gi, gc], np.zeros(n_load, dtype=int),
                         xc[coupled], yc[coupled]]))),
        shape=(n_load + n_couple, num_vars))

    # (2) assignment, then the forced zeros.
    forbidden = xc[~coupled]
    a_eq = sparse.csr_matrix((
        np.ones(xc.size + forbidden.size),
        (np.concatenate([xj, n + np.arange(forbidden.size)]),
         np.concatenate([xc, forbidden]))),
        shape=(n + forbidden.size, num_vars))
    b_eq = np.concatenate([np.ones(n), np.zeros(forbidden.size)])

    c = np.zeros(num_vars)
    c[0] = 1.0
    upper = np.ones(num_vars)
    upper[0] = np.inf if t_upper is None else t_upper
    integrality = None
    if integral:
        integrality = np.ones(num_vars, dtype=int)
        integrality[0] = 0
    model = Model(c=c, a_ub=a_ub, b_ub=np.zeros(n_load + n_couple), a_eq=a_eq,
                  b_eq=b_eq, upper=upper, integrality=integrality, name=name)
    return model, x_col, y_col
