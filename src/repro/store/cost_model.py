"""Per-algorithm runtime prediction fitted from recorded wall times.

Solver runtimes in this codebase grow predictably in the instance
parameters (near-linear for LPT/greedy, polynomial for the PTAS decision
and the LP, exponential-tailed for the MILP), so a log-linear model

    log t  ≈  β₀ + Σ_f β_f · log(1 + feature_f)

fitted per ``(algorithm, environment)`` group from the wall times the
:class:`~repro.store.result_store.ResultStore` has accumulated is enough to
order work: :meth:`CostModel.order_indices` sorts cold tasks by descending
predicted cost before dispatch, so the heavy MILP/PTAS tasks start first
and the cheap tail fills the pool's idle slots.  Ordering is the model's
only job: a prediction never decides which tasks run, how long they may
take, or what a result records, so results do not depend on what the
store happened to hold.

Which features feed the model is declared per algorithm at registration
time (``register_algorithm(..., cost_features=...)``); the default is
``("num_jobs", "num_machines")``.  The fit is ordinary least squares
(:func:`numpy.linalg.lstsq`) on the log-transformed samples; groups with
too few samples fall back to the mean log-runtime, and algorithms with no
recorded runs predict ``None`` (unknown, never zero).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.store.result_store import StoreRecord

if TYPE_CHECKING:
    from repro.core.instance import Instance
    from repro.runtime.runner import BatchTask
    from repro.store.result_store import ResultStore

__all__ = ["CostModel", "DEFAULT_COST_FEATURES"]

#: Features every algorithm gets unless its registration says otherwise.
DEFAULT_COST_FEATURES: Tuple[str, ...] = ("num_jobs", "num_machines")

#: StoreRecord attribute backing each declarable feature name.
_RECORD_FEATURES: Dict[str, str] = {
    "num_jobs": "num_jobs",
    "num_machines": "num_machines",
    "num_classes": "num_classes",
}

#: Wall times below this are clock noise; clamping keeps log() finite and
#: stops near-zero samples from dominating the least-squares fit.
_MIN_SECONDS = 1e-6


@dataclass(frozen=True)
class _GroupFit:
    """OLS coefficients for one (algorithm, environment) sample group."""

    features: Tuple[str, ...]
    coeffs: np.ndarray  # (1 + len(features),): intercept first
    samples: int

    def predict_log(self, values: Sequence[float]) -> float:
        x = np.concatenate(([1.0], np.log1p(np.asarray(values, dtype=float))))
        return float(x @ self.coeffs)


def _features_for(algorithm: str) -> Tuple[str, ...]:
    """The declared cost features of ``algorithm`` (default when unknown).

    Unregistered names (ad-hoc test algorithms, rows from an older code
    version) fall back to the defaults instead of failing the fit.
    """
    from repro.runtime.registry import get_algorithm  # lazy: avoids cycle at import

    try:
        features = get_algorithm(algorithm).cost_features
    except KeyError:
        return DEFAULT_COST_FEATURES
    return tuple(f for f in features if f in _RECORD_FEATURES) or DEFAULT_COST_FEATURES


def _fit_group(records: List[StoreRecord], features: Tuple[str, ...]) -> Optional[_GroupFit]:
    """Least-squares fit of one sample group; ``None`` with no samples."""
    if not records:
        return None
    y = np.log([max(r.wall_seconds, _MIN_SECONDS) for r in records])
    if len(records) < len(features) + 2:
        # Too few points to identify slopes: intercept-only (mean log time).
        coeffs = np.zeros(1 + len(features))
        coeffs[0] = float(y.mean())
        return _GroupFit(features=features, coeffs=coeffs, samples=len(records))
    x = np.ones((len(records), 1 + len(features)))
    for col, feature in enumerate(features, start=1):
        attr = _RECORD_FEATURES[feature]
        x[:, col] = np.log1p([getattr(r, attr) for r in records])
    coeffs, *_ = np.linalg.lstsq(x, y, rcond=None)
    return _GroupFit(features=features, coeffs=coeffs, samples=len(records))


class CostModel:
    """Predicts per-task wall time from a store's recorded runs.

    Build one with :meth:`fit` (explicit records) or :meth:`fit_from_store`.
    The model is immutable after fitting; refit to absorb new samples.
    """

    def __init__(self, group_fits: Dict[Tuple[str, str], _GroupFit],
                 pooled_fits: Dict[str, _GroupFit]) -> None:
        self._group_fits = group_fits
        self._pooled_fits = pooled_fits

    # ------------------------------------------------------------------
    # fitting
    # ------------------------------------------------------------------
    @classmethod
    def fit(cls, records: Iterable[StoreRecord]) -> "CostModel":
        """Fit from explicit records: one OLS per (algorithm, environment).

        The environment tag enters the model as full interaction — each
        environment gets its own coefficients — with a pooled per-algorithm
        fit as the fallback for environments never recorded.
        """
        by_group: Dict[Tuple[str, str], List[StoreRecord]] = {}
        by_algorithm: Dict[str, List[StoreRecord]] = {}
        for record in records:
            by_group.setdefault((record.algorithm, record.environment),
                                []).append(record)
            by_algorithm.setdefault(record.algorithm, []).append(record)
        group_fits: Dict[Tuple[str, str], _GroupFit] = {}
        pooled_fits: Dict[str, _GroupFit] = {}
        for (algorithm, environment), group in by_group.items():
            fit = _fit_group(group, _features_for(algorithm))
            if fit is not None:
                group_fits[(algorithm, environment)] = fit
        for algorithm, group in by_algorithm.items():
            fit = _fit_group(group, _features_for(algorithm))
            if fit is not None:
                pooled_fits[algorithm] = fit
        return cls(group_fits, pooled_fits)

    @classmethod
    def fit_from_store(cls, store: "ResultStore") -> "CostModel":
        """Fit from every record currently in ``store``."""
        return cls.fit(store.records())

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------
    def known_algorithms(self) -> List[str]:
        """Algorithms with at least one fitted sample, sorted."""
        return sorted(self._pooled_fits)

    def predict(self, algorithm: str, instance: "Instance") -> Optional[float]:
        """Predicted wall seconds for running ``algorithm`` on ``instance``.

        ``None`` when the store never recorded this algorithm — unknown
        cost must stay distinguishable from cheap cost.
        """
        fit = self._group_fits.get((algorithm, instance.environment.value))
        if fit is None:
            fit = self._pooled_fits.get(algorithm)
        if fit is None:
            return None
        values = [getattr(instance, _RECORD_FEATURES[f]) for f in fit.features]
        return float(np.exp(fit.predict_log(values)))

    def order_indices(self, tasks: Sequence["BatchTask"]) -> List[int]:
        """Task indices sorted by descending predicted cost (deterministic).

        Longest-predicted-first ordering is the classic LPT defence against
        pool idle time: a heavy MILP/PTAS task submitted last would leave
        every other worker idle while it runs alone.  Tasks with *unknown*
        cost sort first (a surprise giant starting late is the worst case;
        an early cheap task merely reorders the queue), keeping their
        original relative order.  This is the single ordering policy —
        ``BatchRunner`` dispatches through it.
        """
        def key(item: Tuple[int, "BatchTask"]) -> Tuple[float, int]:
            index, task = item
            cost = self.predict(task.algorithm, task.instance)
            return (-cost if cost is not None else float("-inf"), index)

        return [index for index, _ in sorted(enumerate(tasks), key=key)]
