"""The keyed runner pool behind :meth:`repro.api.Session.runner`.

One :class:`BatchRunner` per configuration: the pool keys each runner on
its store file, its backend name and its constructor kwargs, so two
callers share a runner (its cache, stats and cost model) only when they
would have built the same one.  Runners on the same store file share a
single :class:`~repro.store.ResultStore` handle (one SQLite connection,
one put counter feeding cost-model auto-refits).

The pool reads no environment: :class:`repro.api.SessionConfig` resolves
kwargs, ``REPRO_*`` variables and defaults before anything reaches it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Hashable, Optional, Tuple, Union

from repro.runtime.runner import BatchRunner
from repro.store import ResultStore

__all__ = ["get_runner", "reset_runner_pool"]

_RUNNERS: Dict[Tuple[Optional[str], Optional[str], Hashable], BatchRunner] = {}
_SHARED_STORES: Dict[str, ResultStore] = {}


def _canonical(value: object) -> Hashable:
    """A hashable form of a kwargs value that ignores dict order."""
    if isinstance(value, dict):
        return tuple(sorted((key, _canonical(item))
                            for key, item in value.items()))
    return value  # type: ignore[return-value]


def get_runner(store_path: Union[None, str, Path] = None,
               backend: Optional[str] = None,
               **runner_kwargs: object) -> BatchRunner:
    """The pooled runner for one ``(store file, backend, kwargs)`` key.

    The first call with a key builds the runner; every later call with
    an equal key returns it.  Any difference — another store file,
    another backend, another keyword argument — is another key, so a
    caller is never handed a runner configured for someone else.  Every
    runner on one store file gets the same ``ResultStore`` handle, so
    their put counters (and hence cost-model refits) see each other's
    writes.
    """
    norm = str(Path(store_path)) if store_path else None
    key = (norm, backend, _canonical(runner_kwargs))
    runner = _RUNNERS.get(key)
    if runner is None:
        store = None
        if norm is not None:
            store = _SHARED_STORES.get(norm)
            if store is None:
                store = _SHARED_STORES[norm] = ResultStore(norm)
        runner = BatchRunner(store=store, backend=backend, **runner_kwargs)
        _RUNNERS[key] = runner
    return runner


def reset_runner_pool(*, close_stores: bool = True) -> None:
    """Drop every pooled runner (and close shared store handles).

    A test/embedding hook: production code never needs it — the pool is
    the point.  Runners handed out earlier keep working; they just stop
    being the ones future ``get_runner`` calls return.
    """
    if close_stores:
        for store in _SHARED_STORES.values():
            store.close()
    _RUNNERS.clear()
    _SHARED_STORES.clear()
