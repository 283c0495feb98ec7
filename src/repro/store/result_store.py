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
those results are only recomputed.  Reads never write: a warm hit is one
SELECT and the unpickling of a payload that leaves out the task's own
instance (:func:`encode`; the reader holds the task, :func:`decode`) and
holds the schedule's assignment as raw ``int`` bytes
(:meth:`repro.core.schedule.Schedule.__reduce__`).

Alongside the payload, each row records run metadata (algorithm name,
machine-environment tag, instance dimensions, wall time, payload size,
write time).  The metadata serves three purposes:

* inspection — ``python -m repro.store stats`` aggregates it without
  unpickling a single payload;
* eviction — by total payload size (``max_bytes``, oldest-written rows
  first) and age (``max_age_s``); both are off unless set;
* cost modelling — :class:`repro.store.cost_model.CostModel` fits
  per-algorithm runtime predictors from the recorded wall times.

The store owns the layout of the whole file, including the
:class:`~repro.store.task_queue.TaskQueue` table, under one stamp
(:data:`SCHEMA_VERSION`).  It is self-healing: a corrupted file or an
old on-disk schema is rebuilt empty, queue rows and all, rather than
crashing the runner (losing a cache is cheap; refusing to serve is
not).  A file that is merely *busy* — another
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

import contextlib
import io
import json
import os
import pickle
import sqlite3
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (TYPE_CHECKING, Callable, Dict, Iterable, Iterator,
                    Optional, Sequence, Tuple, TypeVar, Union)

from repro._version import __version__ as _REPRO_VERSION

if TYPE_CHECKING:  # imported lazily at runtime to keep the package cheap
    from repro.algorithms.base import AlgorithmResult
    from repro.runtime.runner import BatchTask

__all__ = ["ResultStore", "StoreRecord", "SCHEMA_VERSION", "encode", "decode"]

#: Bump when the layout of either table (``results``, ``task_queue``) or
#: the pickle payload contract changes; files written under another
#: version are rebuilt empty on open.  Version 4 moved the task queue in;
#: version 5 pickles a schedule's assignment as raw ``int`` bytes.
SCHEMA_VERSION = 5

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

#: The persistent id that stands in a payload for the task's own instance.
_TASK_INSTANCE = "task.instance"


def encode(task: "BatchTask", result: "AlgorithmResult") -> bytes:
    """Pickle ``result`` with ``task.instance`` (matched by identity) as a
    token; any other instance object in it is pickled whole."""
    buffer, instance = io.BytesIO(), task.instance
    pickler = pickle.Pickler(buffer, pickle.HIGHEST_PROTOCOL)
    pickler.persistent_id = lambda obj: _TASK_INSTANCE if obj is instance else None
    pickler.dump(result)
    return buffer.getvalue()


def decode(task: "BatchTask", payload: bytes) -> "AlgorithmResult":
    """Unpickle an :func:`encode` payload with ``task.instance`` put back
    (an unknown token raises ``KeyError``)."""
    unpickler = pickle.Unpickler(io.BytesIO(payload))
    unpickler.persistent_load = {_TASK_INSTANCE: task.instance}.__getitem__
    return unpickler.load()


def connect(path: Union[str, Path]) -> sqlite3.Connection:
    """A WAL-mode connection to the store file.

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


@contextlib.contextmanager
def write_transaction(conn: sqlite3.Connection) -> Iterator[None]:
    """One ``BEGIN IMMEDIATE … COMMIT`` on ``conn``; rolled back if the
    body raises.

    Not ``with conn``: Python's sqlite3 autocommits DDL outside an
    explicit transaction, and the write lock is taken up front so a
    read-then-write body cannot lose a race to another writer.  A failed
    COMMIT may already have ended the transaction, so ROLLBACK only runs
    while one is open — otherwise its own error would hide the cause.
    """
    conn.execute("BEGIN IMMEDIATE")
    try:
        yield
        conn.execute("COMMIT")
    except BaseException:
        if conn.in_transaction:
            conn.execute("ROLLBACK")
        raise


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


#: The layout of the whole store file, ``results`` and ``task_queue``
#: alike, stamped :data:`SCHEMA_VERSION`.  Individual statements, so the
#: build runs inside its ``BEGIN IMMEDIATE`` (``executescript`` would
#: COMMIT first).  ``change_seq`` is the queue's change counter
#: (:mod:`repro.store.task_queue`).
_SCHEMA = (
    """CREATE TABLE store_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
)""",
    """CREATE TABLE results (
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
    created_at    REAL NOT NULL
)""",
    "CREATE INDEX idx_results_algorithm ON results (algorithm)",
    """CREATE TABLE task_queue (
    key             TEXT PRIMARY KEY,
    task_payload    BLOB NOT NULL,
    status          TEXT NOT NULL DEFAULT 'queued',
    owner           TEXT,
    lease_expires_at REAL,
    attempts        INTEGER NOT NULL DEFAULT 0,
    compute_count   INTEGER NOT NULL DEFAULT 0,
    excluded_worker TEXT,
    error           TEXT,
    enqueued_at     REAL NOT NULL,
    updated_at      REAL NOT NULL,
    seq             INTEGER NOT NULL DEFAULT 0
)""",
    "CREATE INDEX idx_task_queue_status ON task_queue (status, enqueued_at)",
    "CREATE INDEX idx_task_queue_seq ON task_queue (seq)",
    "INSERT INTO store_meta (key, value)"
    f" VALUES ('schema_version', '{SCHEMA_VERSION}'), ('change_seq', '0')",
)
_PUT_SQL = ("INSERT OR REPLACE INTO results (key, repro_version, algorithm,"
            " environment, num_jobs, num_machines, num_classes, wall_seconds,"
            " payload, payload_bytes, created_at)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)")


def _read_stamp(conn: sqlite3.Connection) -> Optional[str]:
    """The file's ``schema_version`` stamp; ``None`` for a file without
    one (fresh, or from before the stamp)."""
    if conn.execute("SELECT 1 FROM sqlite_master"
                    " WHERE type = 'table' AND name = 'store_meta'"
                    ).fetchone() is None:
        return None
    row = conn.execute("SELECT value FROM store_meta"
                       " WHERE key = 'schema_version'").fetchone()
    return None if row is None else str(row[0])


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


class ResultStore:
    """Content-addressed, on-disk result store (single SQLite file, WAL).

    Parameters
    ----------
    path:
        The SQLite file; parent directories are created.  The conventional
        suffix is ``.sqlite`` (ignored by git under ``benchmarks/results/``).
    max_bytes:
        Soft cap on the total payload size.  When an insert pushes the
        store over the cap, the oldest-*written* rows are evicted until it
        fits again.  ``None`` disables size eviction.
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
        """Open the store, building a fresh file and rebuilding a stale
        or unreadable one empty.

        A store is a cache: another schema version makes the file's rows
        disposable, never an error for the caller.  The stamp is read
        before anything is created, so an old layout's tables never meet
        the current DDL, and a stale file is rebuilt in place
        (:meth:`_build`).  Only an unreadable file (truncated, non-SQLite
        bytes, missing columns) is unlinked and started over.  A busy
        file is neither: lock and locking-protocol errors propagate
        (:func:`open_retrying` retries them) and the file is left alone —
        unlinking it would drop every row of a store that another process
        is merely writing to.
        """
        conn: Optional[sqlite3.Connection] = None
        try:
            conn = connect(self.path)
            if _read_stamp(conn) != str(SCHEMA_VERSION):
                self._build(conn)
            # The purge doubles as a column-level sanity probe: a file
            # whose stamp is current but whose table lost (or never had)
            # the expected columns raises here and is started over.
            self._purge_other_versions(conn)
            return conn
        except sqlite3.Error as exc:
            # Close before unlinking: a still-open handle would leak (and on
            # Windows block the unlink, making the rebuild re-open the same
            # corrupt file and fail the constructor).
            if conn is not None:
                try:
                    conn.close()
                except sqlite3.Error:
                    pass
            if is_contention(exc):
                raise
        # Unreadable: start over.
        self.stats_counters["rebuilds"] += 1
        self._remove_files()
        conn = connect(self.path)
        self._build(conn)
        return conn

    def _build(self, conn: sqlite3.Connection) -> None:
        """Create the schema in one ``BEGIN IMMEDIATE … COMMIT``, dropping
        whatever tables a stale file holds first.

        The stamp is read again under the write lock: a concurrent opener
        may have built the file, and written to it, since the first read.
        """
        stale = []
        with write_transaction(conn):
            if _read_stamp(conn) != str(SCHEMA_VERSION):
                stale = [name for (name,) in conn.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'table'"
                    " AND name NOT LIKE 'sqlite_%'").fetchall()]
                for name in stale:
                    conn.execute(f'DROP TABLE "{name}"')
                for statement in _SCHEMA:
                    conn.execute(statement)
        if stale:
            self.stats_counters["rebuilds"] += 1

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
        given.  ``payload`` is ``encode(task, result)``, for a caller that
        encodes before it takes the write lock.

        Called inside a write transaction the caller holds open on this
        store's connection — :meth:`TaskQueue.complete` publishing a
        result, or :meth:`put_many` — ``put`` only INSERTs: the row
        commits or rolls back with the caller's transaction, and the
        caller runs :meth:`evict` after its COMMIT.
        """
        payload = encode(task, result) if payload is None else payload
        now, inst = time.time(), task.instance
        row = (task.cache_key(), _REPRO_VERSION, task.algorithm,
               inst.environment.value, inst.num_jobs, inst.num_machines,
               inst.num_classes, float(result.runtime_seconds), payload,
               len(payload), now)
        joined = self._conn.in_transaction
        # Joined, leaving a `with self._conn` would commit the caller's
        # transaction half-way.
        with contextlib.nullcontext() if joined else self._conn:
            self._conn.execute(_PUT_SQL, row)
        self.stats_counters["puts"] += 1
        if not joined:
            self.evict(now=now)

    def put_many(self, items: Iterable[Tuple["BatchTask", "AlgorithmResult"]]
                 ) -> None:
        """Persist ``(task, result)`` pairs in one write transaction.

        Each pair goes through :meth:`put`'s in-transaction branch, so
        rows are built in one place; everything is encoded before the
        write lock is taken, and :meth:`evict` runs once, after the
        COMMIT.  Inside a transaction the caller already holds on this
        connection, the pairs join it, as :meth:`put` does, and the
        caller evicts.
        """
        rows = [(task, result, encode(task, result)) for task, result in items]
        if self._conn.in_transaction:
            for task, result, payload in rows:
                self.put(task, result, payload=payload)
            return
        with write_transaction(self._conn):
            for task, result, payload in rows:
                self.put(task, result, payload=payload)
        self.evict()

    def get(self, task: "BatchTask") -> Optional["AlgorithmResult"]:
        """Fetch one result, or ``None`` on a miss (or unreadable payload)."""
        return self.prefetch([task]).get(task.cache_key())

    def contains(self, task_or_key: Union["BatchTask", str]) -> bool:
        """Whether a result is stored under this key (payload not validated)."""
        key = (task_or_key if isinstance(task_or_key, str)
               else task_or_key.cache_key())
        row = self._conn.execute(
            "SELECT 1 FROM results WHERE key = ?", (key,)).fetchone()
        return row is not None

    def prefetch(self, tasks: Sequence["BatchTask"]
                 ) -> Dict[str, "AlgorithmResult"]:
        """Bulk-fetch every stored result for ``tasks`` in one pass.

        Returns ``{cache_key: result}`` for the warm subset, decoded with
        the first task of each key.  One chunked SELECT replaces
        ``len(tasks)`` point lookups.
        """
        by_key: Dict[str, "BatchTask"] = {}
        for task in tasks:
            by_key.setdefault(task.cache_key(), task)
        keys = list(by_key)
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
                try:
                    out[key] = decode(by_key[key], payload)
                except Exception:  # a stale pickle: drop the row
                    with self._conn:
                        self._conn.execute("DELETE FROM results WHERE key = ?", (key,))
        self.stats_counters["gets"] += len(tasks)
        self.stats_counters["hits"] += len(out)
        return out

    # ------------------------------------------------------------------
    # eviction / maintenance
    # ------------------------------------------------------------------
    def evict(self, *, now: Optional[float] = None) -> int:
        """Apply the age and size policies; return the number of rows dropped.

        Age first (expired rows should not count against the size budget),
        then the oldest-written rows until ``max_bytes`` is respected.
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
                            " ORDER BY created_at ASC, key ASC").fetchall():
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

    def records(self) -> Iterator[StoreRecord]:
        """Iterate run metadata (no payloads) in key order, so repeated
        cost-model fits see identical data."""
        for row in self._conn.execute(
                "SELECT key, algorithm, environment, num_jobs, num_machines,"
                " num_classes, wall_seconds, payload_bytes, created_at"
                " FROM results ORDER BY key ASC"):
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

    def export(self) -> str:
        """Render run metadata as JSON lines (one record per line)."""
        lines = []
        for record in self.records():
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
            }, sort_keys=True))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ResultStore({str(self.path)!r}, entries={len(self)}, "
                f"bytes={self._total_bytes()})")
