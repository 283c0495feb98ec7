"""Problem instances for scheduling with setup times (Section 1.1 of the paper).

An :class:`Instance` stores, for ``n`` jobs partitioned into ``K`` classes
and ``m`` machines:

* the processing-time matrix ``p[i, j]`` (``inf`` marks an ineligible
  machine in the restricted-assignment environment);
* the setup-time matrix ``s[i, k]`` (``inf`` likewise);
* the class ``kappa[j]`` of every job.

The four machine environments of the paper are represented by the
:class:`MachineEnvironment` enum; structured environments (identical,
uniformly related, restricted assignment) additionally keep the underlying
job sizes ``p_j``, setup sizes ``s_k``, speeds ``v_i`` and eligibility sets
so that algorithms that exploit the structure (the PTAS of Section 2, the
special cases of Section 3.3) can access it directly.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.utils.validation import check_index

__all__ = ["MachineEnvironment", "Instance"]

#: The array fields of :meth:`Instance.to_dict`, with their dimensions.
_DICT_ARRAY_NDIM = {"processing": 2, "setups": 2, "job_classes": 1,
                    "speeds": 1, "job_sizes": 1, "setup_sizes": 1}
#: Every field of :meth:`Instance.to_dict`; the first four are required.
_DICT_FIELDS = ("environment", "processing", "setups", "job_classes",
                "speeds", "job_sizes", "setup_sizes", "name", "meta")


def _field_array(field: str, value: object, ndim: int) -> np.ndarray:
    """``value`` as an ``ndim``-dimensional float array; a ``ValueError``
    naming ``field`` when it is ragged or holds anything but numbers."""
    try:
        a = np.asarray(value)
    except (ValueError, TypeError):  # ragged nesting
        a = None
    if a is None or a.ndim != ndim or a.dtype.kind not in "iuf":
        raise ValueError(f"instance field {field!r} must be a {ndim}-D array "
                         f"of numbers")
    return a.astype(float)


class MachineEnvironment(enum.Enum):
    """The machine environment of an instance (Section 1.1)."""

    IDENTICAL = "identical"
    UNIFORM = "uniform"
    RESTRICTED = "restricted"
    UNRELATED = "unrelated"


@dataclass(frozen=True, eq=False)
class Instance:
    """An instance of scheduling with setup times.

    Use the factory classmethods (:meth:`unrelated`, :meth:`uniform`,
    :meth:`identical`, :meth:`restricted`) rather than the constructor; they
    validate shapes and fill in the derived matrices.  Two instances are
    equal when every field is, arrays by value (see :meth:`__eq__`).

    Attributes
    ----------
    environment:
        Machine environment of the instance.
    processing:
        ``(m, n)`` array; ``processing[i, j]`` is the processing time of job
        ``j`` on machine ``i`` (``inf`` if ineligible).
    setups:
        ``(m, K)`` array; ``setups[i, k]`` is the setup time machine ``i``
        pays if it processes at least one job of class ``k``.
    job_classes:
        ``(n,)`` integer array mapping each job to its class in ``[0, K)``.
    speeds:
        ``(m,)`` machine speeds; only meaningful for identical/uniform
        environments (all ones for identical).
    job_sizes:
        ``(n,)`` machine-independent job sizes ``p_j``; ``None`` for the
        unrelated environment.
    setup_sizes:
        ``(K,)`` machine-independent setup sizes ``s_k``; ``None`` for the
        unrelated environment.
    name:
        Optional human-readable label used in experiment reports.
    """

    environment: MachineEnvironment
    processing: np.ndarray
    setups: np.ndarray
    job_classes: np.ndarray
    speeds: Optional[np.ndarray] = None
    job_sizes: Optional[np.ndarray] = None
    setup_sizes: Optional[np.ndarray] = None
    name: str = "instance"
    meta: Dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # factories
    # ------------------------------------------------------------------
    @staticmethod
    def unrelated(
        processing: np.ndarray,
        setups: np.ndarray,
        job_classes: Sequence[int],
        *,
        name: str = "unrelated",
        meta: Optional[Dict[str, object]] = None,
    ) -> "Instance":
        """Build an unrelated-machines instance from explicit matrices."""
        p = np.asarray(processing, dtype=float)
        s = np.asarray(setups, dtype=float)
        kappa = np.asarray(job_classes, dtype=int)
        if p.ndim != 2:
            raise ValueError("processing must be a 2-D (m, n) array")
        if s.ndim != 2 or s.shape[0] != p.shape[0]:
            raise ValueError("setups must be a 2-D (m, K) array with the same m as processing")
        if kappa.ndim != 1 or kappa.shape[0] != p.shape[1]:
            raise ValueError("job_classes must be a 1-D array of length n")
        inst = Instance(
            environment=MachineEnvironment.UNRELATED,
            processing=p,
            setups=s,
            job_classes=kappa,
            name=name,
            meta=dict(meta or {}),
        )
        inst.validate()
        return inst

    @staticmethod
    def uniform(
        job_sizes: Sequence[float],
        setup_sizes: Sequence[float],
        job_classes: Sequence[int],
        speeds: Sequence[float],
        *,
        name: str = "uniform",
        meta: Optional[Dict[str, object]] = None,
    ) -> "Instance":
        """Build a uniformly-related-machines instance.

        ``p[i, j] = p_j / v_i`` and ``s[i, k] = s_k / v_i``.
        """
        p_j = np.asarray(job_sizes, dtype=float)
        s_k = np.asarray(setup_sizes, dtype=float)
        kappa = np.asarray(job_classes, dtype=int)
        v = np.asarray(speeds, dtype=float)
        if np.any(v <= 0):
            raise ValueError("machine speeds must be positive")
        processing = p_j[np.newaxis, :] / v[:, np.newaxis]
        setups = s_k[np.newaxis, :] / v[:, np.newaxis]
        inst = Instance(
            environment=MachineEnvironment.UNIFORM,
            processing=processing,
            setups=setups,
            job_classes=kappa,
            speeds=v,
            job_sizes=p_j,
            setup_sizes=s_k,
            name=name,
            meta=dict(meta or {}),
        )
        inst.validate()
        return inst

    @staticmethod
    def identical(
        job_sizes: Sequence[float],
        setup_sizes: Sequence[float],
        job_classes: Sequence[int],
        num_machines: int,
        *,
        name: str = "identical",
        meta: Optional[Dict[str, object]] = None,
    ) -> "Instance":
        """Build an identical-machines instance (all speeds 1)."""
        if num_machines <= 0:
            raise ValueError("num_machines must be positive")
        speeds = np.ones(int(num_machines))
        inst = Instance.uniform(job_sizes, setup_sizes, job_classes, speeds,
                                name=name, meta=meta)
        object.__setattr__(inst, "environment", MachineEnvironment.IDENTICAL)
        return inst

    @staticmethod
    def restricted(
        job_sizes: Sequence[float],
        setup_sizes: Sequence[float],
        job_classes: Sequence[int],
        eligible: np.ndarray,
        *,
        name: str = "restricted",
        meta: Optional[Dict[str, object]] = None,
    ) -> "Instance":
        """Build a restricted-assignment instance.

        Parameters
        ----------
        eligible:
            ``(m, n)`` boolean array; ``eligible[i, j]`` says machine ``i``
            may process job ``j``.  The per-class setup eligibility is
            derived: machine ``i`` can set up class ``k`` iff it is eligible
            for at least one job of ``k``.
        """
        p_j = np.asarray(job_sizes, dtype=float)
        s_k = np.asarray(setup_sizes, dtype=float)
        kappa = np.asarray(job_classes, dtype=int)
        elig = np.asarray(eligible, dtype=bool)
        if elig.ndim != 2 or elig.shape[1] != p_j.shape[0]:
            raise ValueError("eligible must be a 2-D (m, n) boolean array")
        m = elig.shape[0]
        num_classes = int(s_k.shape[0])
        processing = np.where(elig, p_j[np.newaxis, :], np.inf)
        setups = np.full((m, num_classes), np.inf)
        for k in range(num_classes):
            members = np.flatnonzero(kappa == k)
            if members.size:
                can = elig[:, members].any(axis=1)
            else:
                can = np.ones(m, dtype=bool)
            setups[can, k] = s_k[k]
        inst = Instance(
            environment=MachineEnvironment.RESTRICTED,
            processing=processing,
            setups=setups,
            job_classes=kappa,
            speeds=np.ones(m),
            job_sizes=p_j,
            setup_sizes=s_k,
            name=name,
            meta=dict(meta or {}),
        )
        inst.validate()
        return inst

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_jobs(self) -> int:
        """Number of jobs ``n``."""
        return int(self.processing.shape[1])

    @property
    def num_machines(self) -> int:
        """Number of machines ``m``."""
        return int(self.processing.shape[0])

    @property
    def num_classes(self) -> int:
        """Number of setup classes ``K``."""
        return int(self.setups.shape[1])

    # Short aliases matching the paper's notation.
    n = num_jobs
    m = num_machines
    K = num_classes

    def processing_time(self, machine: int, job: int) -> float:
        """``p_{ij}``: processing time of ``job`` on ``machine``."""
        return float(self.processing[machine, job])

    def setup_time(self, machine: int, klass: int) -> float:
        """``s_{ik}``: setup time of class ``klass`` on ``machine``."""
        return float(self.setups[machine, klass])

    def job_class(self, job: int) -> int:
        """``k_j``: the class of ``job``."""
        return int(self.job_classes[job])

    def jobs_of_class(self, klass: int) -> np.ndarray:
        """Indices of the jobs belonging to class ``klass`` (a read-only array).

        Memoised per class on first use, which is sound because the instance
        is frozen: the dual-approximation algorithms ask for the same
        classes on every guess.  Like every ``_``-prefixed memo, it is not
        part of the instance's state (see :meth:`__getstate__`), its
        equality or its fingerprint.
        """
        k = check_index("class", klass, self.num_classes)
        index = self.__dict__.get("_class_index")
        if index is None:
            index = {}
            object.__setattr__(self, "_class_index", index)
        members = index.get(k)
        if members is None:
            members = np.flatnonzero(self.job_classes == k)
            members.flags.writeable = False
            index[k] = members
        return members

    def classes_present(self) -> np.ndarray:
        """Classes that actually contain at least one job."""
        return np.unique(self.job_classes)

    def is_eligible(self, machine: int, job: int) -> bool:
        """Whether ``job`` may be processed on ``machine`` (finite time)."""
        return bool(np.isfinite(self.processing[machine, job]))

    def eligible_machines(self, job: int) -> np.ndarray:
        """``M_j``: machines on which ``job`` may run."""
        return np.flatnonzero(np.isfinite(self.processing[:, job]))

    # ------------------------------------------------------------------
    # structure predicates (used to pick applicable algorithms)
    # ------------------------------------------------------------------
    def is_uniform_like(self) -> bool:
        """True for identical or uniformly related environments."""
        return self.environment in (MachineEnvironment.IDENTICAL, MachineEnvironment.UNIFORM)

    def has_class_uniform_restrictions(self) -> bool:
        """Whether all jobs of each class share the same eligible-machine set.

        This is the structural condition of Section 3.3.1 (restricted
        assignment with class-uniform restrictions).  Unrestricted
        environments trivially satisfy it.
        """
        finite = np.isfinite(self.processing)
        for k in range(self.num_classes):
            members = self.jobs_of_class(k)
            if members.size <= 1:
                continue
            first = finite[:, members[0]]
            if not np.all(finite[:, members] == first[:, np.newaxis]):
                return False
        return True

    def has_class_uniform_processing_times(self) -> bool:
        """Whether, on every machine, all jobs of a class share one processing time.

        This is the structural condition of Section 3.3.2.  ``inf`` entries
        (ineligibility) must also agree within a class.
        """
        for k in range(self.num_classes):
            members = self.jobs_of_class(k)
            if members.size <= 1:
                continue
            block = self.processing[:, members]
            first = block[:, [0]]
            same = (block == first) | (np.isinf(block) & np.isinf(first))
            if not np.all(same):
                return False
        return True

    # ------------------------------------------------------------------
    # validation / serialisation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise ``ValueError`` if the instance is malformed."""
        if self.processing.ndim != 2 or self.setups.ndim != 2:
            raise ValueError("processing and setups must be 2-D arrays")
        m, n = self.processing.shape
        if self.setups.shape[0] != m:
            raise ValueError("processing and setups disagree on the number of machines")
        if self.job_classes.shape != (n,):
            raise ValueError(
                f"job_classes must have shape (n,) = ({n},), one entry per "
                f"column of processing; got {self.job_classes.shape}")
        if n and (self.job_classes.min() < 0 or self.job_classes.max() >= self.num_classes):
            raise ValueError(
                f"job_classes entries must lie in [0, K), where K = "
                f"{self.num_classes} is the number of columns of setups")
        # `>= 0` is False for NaN and -inf and True for +inf (ineligible).
        if not (self.processing >= 0).all():
            raise ValueError("processing times must be non-negative")
        if not (self.setups >= 0).all():
            raise ValueError("setup times must be non-negative (setups)")
        eligible = np.isfinite(self.processing).any(axis=0)
        if not eligible.all():
            raise ValueError(f"job {int(np.argmin(eligible))} has no eligible "
                             f"machine (its processing column is all inf)")
        if self.speeds is not None and self.speeds.shape != (m,):
            raise ValueError(f"speeds must have shape (m,) = ({m},), one "
                             f"entry per row of processing")
        if self.job_sizes is not None and self.job_sizes.shape != (n,):
            raise ValueError(f"job_sizes must have shape (n,) = ({n},), one "
                             f"entry per column of processing")
        if self.setup_sizes is not None and self.setup_sizes.shape != (self.num_classes,):
            raise ValueError(
                f"setup_sizes must have shape (K,) = ({self.num_classes},), "
                f"one entry per column of setups")

    def to_dict(self) -> Dict[str, object]:
        """Serialise the instance to plain Python containers (JSON-friendly)."""
        def arr(a):
            return None if a is None else np.asarray(a).tolist()

        return {
            "environment": self.environment.value,
            "processing": arr(self.processing),
            "setups": arr(self.setups),
            "job_classes": arr(self.job_classes),
            "speeds": arr(self.speeds),
            "job_sizes": arr(self.job_sizes),
            "setup_sizes": arr(self.setup_sizes),
            "name": self.name,
            "meta": dict(self.meta),
        }

    @staticmethod
    def from_dict(payload: Dict[str, object]) -> "Instance":
        """Inverse of :meth:`to_dict`.

        Malformed input fails with a ``ValueError`` that names the field:
        a non-dict payload, an unknown or missing key, a value of the
        wrong type or shape, or a class label that is not an integer.
        """
        if not isinstance(payload, dict):
            raise ValueError(f"an instance payload must be a dict, "
                             f"not {type(payload).__name__}")
        unknown = set(payload) - set(_DICT_FIELDS)
        if unknown:
            raise ValueError(f"unknown instance field(s) {sorted(unknown, key=str)}; "
                             f"allowed: {list(_DICT_FIELDS)}")
        for key in _DICT_FIELDS[:4]:
            if payload.get(key) is None:
                raise ValueError(f"instance field {key!r} is required")
        environments = [env.value for env in MachineEnvironment]
        if payload["environment"] not in environments:
            raise ValueError(f"instance field 'environment' must be one of "
                             f"{environments}, not {payload['environment']!r}")
        name = payload.get("name")
        if name is not None and not isinstance(name, str):
            raise ValueError(f"instance field 'name' must be a string, "
                             f"not {type(name).__name__}")
        meta = payload.get("meta")
        if meta is not None and not isinstance(meta, dict):
            raise ValueError(f"instance field 'meta' must be a dict, "
                             f"not {type(meta).__name__}")
        arrays = {key: None if payload.get(key) is None
                  else _field_array(key, payload[key], ndim)
                  for key, ndim in _DICT_ARRAY_NDIM.items()}
        classes = arrays["job_classes"]
        # Also rules out NaN, inf and labels too large to cast to int.
        if not ((classes == np.floor(classes)) & (abs(classes) < 2.0**62)).all():
            raise ValueError("instance field 'job_classes' must hold integer "
                             "class labels")
        arrays["job_classes"] = classes.astype(int)
        inst = Instance(
            environment=MachineEnvironment(payload["environment"]),
            name="instance" if name is None else name,
            meta=dict(meta or {}),
            **arrays,
        )
        inst.validate()
        return inst

    def to_json(self) -> str:
        """Serialise the instance to a JSON string."""
        return json.dumps(self.to_dict())

    @staticmethod
    def from_json(text: str) -> "Instance":
        """Parse an instance from :meth:`to_json` output."""
        return Instance.from_dict(json.loads(text))

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def without_setups(self) -> "Instance":
        """A copy of the instance with every setup time set to zero.

        Used by baselines and tests: with zero setups the problem collapses
        to classical makespan minimisation.
        """
        zero_setups = np.where(np.isfinite(self.setups), 0.0, np.inf)
        inst = Instance(
            environment=self.environment,
            processing=self.processing.copy(),
            setups=zero_setups,
            job_classes=self.job_classes.copy(),
            speeds=None if self.speeds is None else self.speeds.copy(),
            job_sizes=None if self.job_sizes is None else self.job_sizes.copy(),
            setup_sizes=None if self.setup_sizes is None else np.zeros_like(self.setup_sizes),
            name=f"{self.name}-nosetup",
            meta=dict(self.meta),
        )
        return inst

    def __getstate__(self) -> Dict[str, object]:
        """The fields only: ``_``-prefixed memos are never pickled."""
        return {key: value for key, value in self.__dict__.items()
                if not key.startswith("_")}

    def __eq__(self, other: object) -> bool:
        """Field-by-field equality, arrays by value; memos are ignored."""
        if not isinstance(other, Instance):
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray)
                   else a == b for a, b in pairs)

    def __hash__(self) -> int:
        """Agrees with :meth:`__eq__`: the environment and array shapes."""
        return hash((self.environment, self.processing.shape, self.setups.shape))

    def __repr__(self) -> str:
        return (f"Instance({self.name!r}, env={self.environment.value}, "
                f"n={self.num_jobs}, m={self.num_machines}, K={self.num_classes})")
