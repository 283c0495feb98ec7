"""Persistent, content-addressed store for :class:`AlgorithmResult` objects.

:class:`ResultStore` is the durability layer under
:class:`repro.runtime.BatchRunner`: successful task results are written
through to a single SQLite file (WAL mode) keyed by
:meth:`repro.runtime.BatchTask.cache_key`, so a grid re-run in a *fresh
process* — or on another process sharing the file — streams its results
straight from disk instead of recomputing minutes of MILP/PTAS work.
The runner groups its writes (:meth:`ResultStore.put_many`, one
transaction per group of fresh results whose compute time reaches
0.1 s, and one for the rest when its stream ends): a crash loses at most
the held group, under 0.1 s of compute, and since the store is a cache
those results are only recomputed.

Alongside the pickled result, each row records run metadata (algorithm
name, machine-environment tag, instance dimensions, wall time, payload
size, timestamps).  The metadata serves three purposes:

* inspection — ``python -m repro.store stats`` aggregates it without
  unpickling a single payload;
* eviction — LRU-style eviction by total payload size (``max_bytes``)
  and age (``max_age_s``) keeps long-running services bounded;
* cost modelling — :class:`repro.store.cost_model.CostModel` fits
  per-algorithm runtime predictors from the recorded wall times.

The store is self-healing: a corrupted file or an old on-disk schema is
rebuilt empty rather than crashing the runner (losing a cache is cheap;
refusing to serve is not).  A file that is merely *busy* — another
connection holds the write lock, or is setting up the WAL index — is not
damaged and is never rebuilt: that error reaches the caller, and the rows
stay.  Rows are also stamped with the package
version that produced them and rows from *another* version are purged on
open: a task's cache key hashes the inputs, not the code, so without the
purge a persisted store would keep serving results computed by old
algorithm implementations after an upgrade.  Consequently: **bump
``repro._version`` in any change that alters algorithm outputs.**
"""

from __future__ import annotations

import json
import os
import pickle
import sqlite3
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (TYPE_CHECKING, Callable, Dict, Iterable, Iterator, List,
                    Optional, Sequence, Tuple, TypeVar, Union)

from repro._version import __version__ as _REPRO_VERSION

if TYPE_CHECKING:  # imported lazily at runtime to keep the package cheap
    from repro.algorithms.base import AlgorithmResult
    from repro.runtime.runner import BatchTask

__all__ = ["ResultStore", "StoreRecord", "SCHEMA_VERSION"]

#: Bump when the row layout or the pickle payload contract changes; stores
#: written under another version are rebuilt empty on open.
SCHEMA_VERSION = 2

#: SQLite caps host parameters per statement (999 on older builds); bulk
#: SELECTs are chunked below this.
_MAX_SQL_PARAMS = 500

#: How long a statement waits for another connection's write lock, and
#: how long :func:`open_retrying` keeps retrying a contended open.
BUSY_TIMEOUT_S = 30.0

#: SQLite primary result codes that mean another connection is in the
#: way — never that the file is damaged.
_SQLITE_BUSY, _SQLITE_LOCKED, _SQLITE_PROTOCOL = 5, 6, 15

_T = TypeVar("_T")


def connect(path: Union[str, Path]) -> sqlite3.Connection:
    """A WAL-mode connection to the store file (the store's and the queue's).

    Open through :func:`open_retrying`: switching a fresh file to WAL
    fails at once — SQLite's busy handler could deadlock there — while
    another connection is opening the same file.
    """
    conn = sqlite3.connect(str(path), timeout=BUSY_TIMEOUT_S)
    try:
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
    except BaseException:
        conn.close()
        raise
    return conn


def _error_code(exc: sqlite3.Error) -> Optional[int]:
    """The primary SQLite result code of ``exc``; ``None`` for errors the
    sqlite3 module raises itself, which carry no code."""
    code = getattr(exc, "sqlite_errorcode", None)
    return None if code is None else code & 0xFF


def is_contention(exc: sqlite3.Error) -> bool:
    """Whether ``exc`` is a lock, busy or locking-protocol error: the file
    is in use, not corrupt."""
    return _error_code(exc) in (_SQLITE_BUSY, _SQLITE_LOCKED, _SQLITE_PROTOCOL)


def open_retrying(open_fn: Callable[[], _T], path: Path) -> _T:
    """Call ``open_fn`` on the file at ``path``, retrying it after
    contention for up to :data:`BUSY_TIMEOUT_S`.

    Connections opening one fresh file at the same moment race on its
    journal mode and WAL index: SQLite then fails a statement with
    "database is locked" or "locking protocol" at once, without waiting.
    The file is fine and a later try succeeds.  Once the deadline has
    passed — a statement that waited out the busy timeout on a held
    write lock has used it up — the error reaches the caller.  Any other
    SQLite error means ``path`` cannot be used at all (a directory,
    non-SQLite bytes, a damaged database) and is raised as a
    ``ValueError`` naming it.  ``open_fn`` must close its connection
    before it raises.
    """
    deadline = time.monotonic() + BUSY_TIMEOUT_S
    while True:
        try:
            return open_fn()
        except sqlite3.Error as exc:
            if not is_contention(exc):
                raise ValueError(
                    f"cannot open {path} as a store file: {exc}") from exc
            if time.monotonic() >= deadline:
                raise
        time.sleep(0.005)


_SCHEMA = """
CREATE TABLE IF NOT EXISTS store_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS results (
    key           TEXT PRIMARY KEY,
    repro_version TEXT NOT NULL,
    algorithm     TEXT NOT NULL,
    environment   TEXT NOT NULL,
    num_jobs      INTEGER NOT NULL,
    num_machines  INTEGER NOT NULL,
    num_classes   INTEGER NOT NULL,
    wall_seconds  REAL NOT NULL,
    payload       BLOB NOT NULL,
    payload_bytes INTEGER NOT NULL,
    created_at    REAL NOT NULL,
    last_access   REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_results_algorithm ON results (algorithm);
CREATE INDEX IF NOT EXISTS idx_results_last_access ON results (last_access);
"""
_VERSION_SQL = "SELECT value FROM store_meta WHERE key = 'schema_version'"
_PUT_SQL = ("INSERT OR REPLACE INTO results (key, repro_version, algorithm,"
            " environment, num_jobs, num_machines, num_classes, wall_seconds,"
            " payload, payload_bytes, created_at, last_access)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)")


@dataclass(frozen=True)
class StoreRecord:
    """Run metadata of one stored result (payload excluded)."""

    key: str
    algorithm: str
    environment: str
    num_jobs: int
    num_machines: int
    num_classes: int
    wall_seconds: float
    payload_bytes: int
    created_at: float
    last_access: float


class ResultStore:
    """Content-addressed, on-disk result store (single SQLite file, WAL).

    Parameters
    ----------
    path:
        The SQLite file; parent directories are created.  The conventional
        suffix is ``.sqlite`` (ignored by git under ``benchmarks/results/``).
    max_bytes:
        Soft cap on the total pickled-payload size.  When an insert pushes
        the store over the cap, least-recently-*accessed* rows are evicted
        until it fits again.  ``None`` disables size eviction.
    max_age_s:
        Rows *created* more than this many seconds ago are dropped on every
        eviction sweep.  ``None`` disables age eviction.

    The store can be used as a context manager; :meth:`close` is otherwise
    the caller's responsibility.  One ``ResultStore`` instance must not be
    shared across processes — open the same *file* from each process
    instead (WAL mode serialises the writers).
    """

    def __init__(self, path: Union[str, Path], *,
                 max_bytes: Optional[int] = None,
                 max_age_s: Optional[float] = None) -> None:
        self.path = Path(path)
        self.max_bytes = max_bytes
        self.max_age_s = max_age_s
        self.stats_counters: Dict[str, int] = {
            "gets": 0, "hits": 0, "puts": 0, "evictions": 0, "rebuilds": 0,
            "version_purged": 0}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = open_retrying(self._open_or_rebuild, self.path)

    # ------------------------------------------------------------------
    # connection lifecycle
    # ------------------------------------------------------------------
    def _open_or_rebuild(self) -> sqlite3.Connection:
        """Open the store, rebuilding it empty when unreadable or outdated.

        A store is a cache: any corruption (truncated file, non-SQLite
        bytes, missing tables or columns) or a schema-version mismatch
        makes the file disposable, never an error for the caller.  A
        busy file is not disposable: lock and locking-protocol errors
        propagate (:func:`open_retrying` retries them) and the file is
        left alone — unlinking it would drop every row of a store that
        another process is merely writing to.
        """
        conn: Optional[sqlite3.Connection] = None
        try:
            conn = connect(self.path)
            conn.executescript(_SCHEMA)
            row = conn.execute(_VERSION_SQL).fetchone()
            if row is None:
                # OR IGNORE: a concurrent opener of the same fresh file may
                # stamp it first, which is no reason to rebuild.
                with conn:
                    conn.execute(
                        "INSERT OR IGNORE INTO store_meta (key, value)"
                        " VALUES ('schema_version', ?)", (str(SCHEMA_VERSION),))
                row = conn.execute(_VERSION_SQL).fetchone()
            if int(row[0]) == SCHEMA_VERSION:
                # The purge doubles as a column-level sanity probe: a file
                # whose meta claims the right version but whose table lost
                # (or never had) the expected columns raises here and falls
                # through to the rebuild.
                self._purge_other_versions(conn)
                return conn
            conn.close()
        except (sqlite3.Error, ValueError) as exc:
            # Close before unlinking: a still-open handle would leak (and on
            # Windows block the unlink, making the rebuild re-open the same
            # corrupt file and fail the constructor).
            if conn is not None:
                try:
                    conn.close()
                except sqlite3.Error:
                    pass
            if isinstance(exc, sqlite3.Error) and is_contention(exc):
                raise
        # Unreadable or wrong version: start over.
        self.stats_counters["rebuilds"] += 1
        self._remove_files()
        conn = connect(self.path)
        conn.executescript(_SCHEMA)
        conn.execute(
            "INSERT INTO store_meta (key, value) VALUES ('schema_version', ?)",
            (str(SCHEMA_VERSION),))
        conn.commit()
        return conn

    def _purge_other_versions(self, conn: sqlite3.Connection) -> None:
        """Drop rows written by a different package version.

        Cache keys hash the task *inputs*, not the code: results persisted
        by an older ``repro`` would otherwise keep serving after the
        algorithms changed.  (Changes that alter outputs must bump
        ``repro._version``.)
        """
        with conn:
            cur = conn.execute(
                "DELETE FROM results WHERE repro_version != ?", (_REPRO_VERSION,))
        self.stats_counters["version_purged"] += cur.rowcount

    def _remove_files(self) -> None:
        for suffix in ("", "-wal", "-shm"):
            try:
                os.unlink(f"{self.path}{suffix}")
            except OSError:
                pass

    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None  # type: ignore[assignment]

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # core API
    # ------------------------------------------------------------------
    def put(self, task: "BatchTask", result: "AlgorithmResult", *,
            payload: Optional[bytes] = None) -> None:
        """Persist ``result`` under ``task.cache_key()`` and evict if needed.

        Failure sentinels (``meta["error"]`` / ``meta["timeout"]``) are the
        caller's responsibility to filter; the store persists whatever it is
        given.  ``payload`` is ``result`` already pickled, for a caller
        that pickles before it takes the write lock.

        Called inside a write transaction the caller holds open on this
        store's connection — :meth:`TaskQueue.complete` publishing a
        result, or :meth:`put_many` — ``put`` only INSERTs: the row commits or rolls back with
        the caller's transaction, and the caller runs :meth:`evict` after
        its COMMIT.
        """
        key = task.cache_key()
        if payload is None:
            payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        now = time.time()
        inst = task.instance
        row = (key, _REPRO_VERSION, task.algorithm, inst.environment.value,
               inst.num_jobs, inst.num_machines, inst.num_classes,
               float(result.runtime_seconds), payload, len(payload), now, now)
        if self._conn.in_transaction:
            # No `with self._conn` here: leaving it would commit the
            # caller's transaction half-way.
            self._conn.execute(_PUT_SQL, row)
            self.stats_counters["puts"] += 1
            return
        with self._conn:
            self._conn.execute(_PUT_SQL, row)
        self.stats_counters["puts"] += 1
        self.evict(now=now)

    def put_many(self, items: Iterable[Tuple["BatchTask", "AlgorithmResult"]]
                 ) -> None:
        """Persist ``(task, result)`` pairs in one write transaction.

        Each pair goes through :meth:`put`'s in-transaction branch, so
        rows are built in one place; everything is pickled before the
        write lock is taken, and :meth:`evict` runs once, after the
        COMMIT.  Inside a transaction the caller already holds on this
        connection, the pairs join it, as :meth:`put` does, and the
        caller evicts.
        """
        rows = [(task, result,
                 pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))
                for task, result in items]
        if self._conn.in_transaction:
            for task, result, payload in rows:
                self.put(task, result, payload=payload)
            return
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            for task, result, payload in rows:
                self.put(task, result, payload=payload)
            self._conn.execute("COMMIT")
        except BaseException:
            if self._conn.in_transaction:
                self._conn.execute("ROLLBACK")
            raise
        self.evict()

    def get(self, task_or_key: Union["BatchTask", str]) -> Optional["AlgorithmResult"]:
        """Fetch one result, or ``None`` on a miss (or unreadable payload)."""
        key = self._as_key(task_or_key)
        self.stats_counters["gets"] += 1
        try:
            row = self._conn.execute(
                "SELECT payload FROM results WHERE key = ?", (key,)).fetchone()
        except sqlite3.Error:
            return None
        if row is None:
            return None
        result = self._unpickle(key, row[0])
        if result is not None:
            self.stats_counters["hits"] += 1
            self._touch([key])
        return result

    def contains(self, task_or_key: Union["BatchTask", str]) -> bool:
        """Whether a result is stored under this key (payload not validated)."""
        key = self._as_key(task_or_key)
        row = self._conn.execute(
            "SELECT 1 FROM results WHERE key = ?", (key,)).fetchone()
        return row is not None

    def prefetch(self, tasks: Sequence["BatchTask"]
                 ) -> Dict[str, "AlgorithmResult"]:
        """Bulk-fetch every stored result for ``tasks`` in one pass.

        Returns ``{cache_key: result}`` for the warm subset.  One chunked
        SELECT replaces ``len(tasks)`` point lookups, which matters when a
        sweep re-submits a multi-thousand-task grid.
        """
        keys = [task.cache_key() for task in tasks]
        out: Dict[str, "AlgorithmResult"] = {}
        for lo in range(0, len(keys), _MAX_SQL_PARAMS):
            chunk = keys[lo:lo + _MAX_SQL_PARAMS]
            placeholders = ",".join("?" * len(chunk))
            try:
                rows = self._conn.execute(
                    f"SELECT key, payload FROM results WHERE key IN ({placeholders})",
                    chunk).fetchall()
            except sqlite3.Error:
                continue
            for key, payload in rows:
                result = self._unpickle(key, payload)
                if result is not None:
                    out[key] = result
        self.stats_counters["gets"] += len(keys)
        self.stats_counters["hits"] += len(out)
        if out:
            self._touch(list(out))
        return out

    def _unpickle(self, key: str, payload: bytes) -> Optional["AlgorithmResult"]:
        """Decode a payload; drop the row (stale pickle) when it fails."""
        try:
            return pickle.loads(payload)
        except Exception:
            with self._conn:
                self._conn.execute("DELETE FROM results WHERE key = ?", (key,))
            return None

    def _touch(self, keys: List[str]) -> None:
        now = time.time()
        with self._conn:
            for lo in range(0, len(keys), _MAX_SQL_PARAMS):
                chunk = keys[lo:lo + _MAX_SQL_PARAMS]
                placeholders = ",".join("?" * len(chunk))
                self._conn.execute(
                    f"UPDATE results SET last_access = ? WHERE key IN ({placeholders})",
                    [now, *chunk])

    def _as_key(self, task_or_key: Union["BatchTask", str]) -> str:
        if isinstance(task_or_key, str):
            return task_or_key
        return task_or_key.cache_key()

    # ------------------------------------------------------------------
    # eviction / maintenance
    # ------------------------------------------------------------------
    def evict(self, *, now: Optional[float] = None) -> int:
        """Apply the age and size policies; return the number of rows dropped.

        Age first (expired rows should not count against the size budget),
        then least-recently-accessed rows until ``max_bytes`` is respected.
        Without either policy it returns at once, without a transaction.
        """
        if self.max_age_s is None and self.max_bytes is None:
            return 0
        now = time.time() if now is None else now
        dropped = 0
        with self._conn:
            if self.max_age_s is not None:
                cur = self._conn.execute(
                    "DELETE FROM results WHERE created_at < ?",
                    (now - self.max_age_s,))
                dropped += cur.rowcount
            if self.max_bytes is not None:
                total = self._total_bytes()
                if total > self.max_bytes:
                    for key, size in self._conn.execute(
                            "SELECT key, payload_bytes FROM results"
                            " ORDER BY last_access ASC, key ASC").fetchall():
                        self._conn.execute("DELETE FROM results WHERE key = ?",
                                           (key,))
                        dropped += 1
                        total -= size
                        if total <= self.max_bytes:
                            break
        self.stats_counters["evictions"] += dropped
        return dropped

    def _total_bytes(self) -> int:
        row = self._conn.execute(
            "SELECT COALESCE(SUM(payload_bytes), 0) FROM results").fetchone()
        return int(row[0])

    def vacuum(self) -> None:
        """Run an eviction sweep, then reclaim file space via ``VACUUM``."""
        self.evict()
        self._conn.execute("VACUUM")

    def clear(self) -> None:
        """Drop every stored result (schema and file kept)."""
        with self._conn:
            self._conn.execute("DELETE FROM results")

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        row = self._conn.execute("SELECT COUNT(*) FROM results").fetchone()
        return int(row[0])

    def records(self, algorithm: Optional[str] = None) -> Iterator[StoreRecord]:
        """Iterate run metadata (no payloads), optionally for one algorithm.

        This is the cost model's training-set query: deterministic order
        (key ASC) so repeated fits see identical data.
        """
        sql = ("SELECT key, algorithm, environment, num_jobs, num_machines,"
               " num_classes, wall_seconds, payload_bytes, created_at,"
               " last_access FROM results")
        params: tuple = ()
        if algorithm is not None:
            sql += " WHERE algorithm = ?"
            params = (algorithm,)
        sql += " ORDER BY key ASC"
        for row in self._conn.execute(sql, params):
            yield StoreRecord(*row)

    def stats(self) -> Dict[str, object]:
        """Aggregate store statistics (cheap: metadata only)."""
        per_algorithm: Dict[str, Dict[str, float]] = {}
        for (algorithm, count, total_bytes, total_wall) in self._conn.execute(
                "SELECT algorithm, COUNT(*), SUM(payload_bytes), SUM(wall_seconds)"
                " FROM results GROUP BY algorithm ORDER BY algorithm"):
            per_algorithm[algorithm] = {
                "entries": int(count),
                "payload_bytes": int(total_bytes),
                "recorded_wall_seconds": float(total_wall),
            }
        return {
            "path": str(self.path),
            "schema_version": SCHEMA_VERSION,
            "repro_version": _REPRO_VERSION,
            "entries": len(self),
            "total_payload_bytes": self._total_bytes(),
            "max_bytes": self.max_bytes,
            "max_age_s": self.max_age_s,
            "per_algorithm": per_algorithm,
            "session": dict(self.stats_counters),
        }

    def export(self, records: Optional[Iterable[StoreRecord]] = None) -> str:
        """Render run metadata as JSON lines (one record per line)."""
        lines = []
        for record in (self.records() if records is None else records):
            lines.append(json.dumps({
                "key": record.key,
                "algorithm": record.algorithm,
                "environment": record.environment,
                "n": record.num_jobs,
                "m": record.num_machines,
                "K": record.num_classes,
                "wall_seconds": record.wall_seconds,
                "payload_bytes": record.payload_bytes,
                "created_at": record.created_at,
                "last_access": record.last_access,
            }, sort_keys=True))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ResultStore({str(self.path)!r}, entries={len(self)}, "
                f"bytes={self._total_bytes()})")
