r"""Distributed work queue over the result-store SQLite file.

:class:`TaskQueue` adds a ``task_queue`` table to the same SQLite file a
:class:`~repro.store.result_store.ResultStore` lives in, turning the store
file into a complete *work plane*: any number of runner and worker
processes open the same path, lease tasks from the queue, and publish
results through the store.  WAL mode serialises the writers; every state
transition below is a single transaction, and so is a worker's publish:
the result row and the queue row's turn to ``done`` commit together.  The
queue is safe under concurrent workers on one host (the store file is
the coordination medium — no extra daemon).

Row lifecycle
-------------

::

                                        complete, one transaction with
                                        the result INSERT (publish)
    enqueue --> queued --lease--> leased ---------------------------> done
                  ^                 |  \
                  |   lease expired |   \-- fail (algorithm error) --> failed
                  +--- (requeue) ---+
                        attempts > max_attempts --> failed

* **Publish is atomic.**  A drain loop's queue is *bound* to its
  :class:`~repro.store.result_store.ResultStore` (``TaskQueue(store)``)
  and shares the store's connection, so :meth:`TaskQueue.complete` with
  ``publish`` runs the ``results`` INSERT, the ``done`` UPDATE and the
  change-counter advance in one ``BEGIN IMMEDIATE … COMMIT``.  A worker
  that dies before COMMIT leaves neither a result nor a ``done`` row:
  the row stays ``leased`` and its lease expires like any crash's.
* **Leases expire.**  A worker that crashes (OOM kill, segfault, power
  loss) never commits :meth:`complete`; its lease times out and
  :meth:`reclaim_expired` hands the task to the next worker.  The crashed
  worker's id is recorded in ``excluded_worker`` so the *same* worker does
  not immediately re-claim the task that just killed it — a second worker
  gets the chance first.
* **Attempts are capped.**  A task that keeps killing workers stops being
  requeued after ``max_attempts`` leases and surfaces as ``failed`` (the
  submitter turns that into an error-sentinel result).
* **Algorithm errors do not retry.**  A captured Python exception is
  deterministic; the worker marks the row ``failed`` immediately with the
  message, mirroring the serial backend's error-sentinel semantics.
* **Dedup is store-mediated.**  Rows are keyed by
  :meth:`~repro.runtime.runner.BatchTask.cache_key`; enqueueing an
  already-known key is a no-op, and a worker that leases a key whose
  result already sits in the store completes the row *without computing*
  (``compute_count`` stays put).  ``compute_count`` records how many times
  a key was actually computed across all workers — the dedup guarantee is
  ``compute_count == 1`` for every key, which the F4 benchmark asserts.
* **Budgets travel with the work.**  The submitter may stamp each row
  with a ``budget_s`` wall-clock budget (typically derived from the
  fitted cost model); whichever worker leases the row enforces it —
  post-hoc, since an in-process task cannot be interrupted — surfacing
  ``budget_s`` / ``over_budget`` in the result's ``meta`` and counting
  the overrun in its drain stats.  No per-worker ``--timeout`` flag has
  to be kept in sync across a fleet.

Change cursor
-------------

Every state transition — enqueue, lease, complete, fail, reclaim,
requeue — stamps the rows it touches with ``seq``, a change counter kept
in ``task_queue_meta`` and advanced *inside* the write transaction.
SQLite serialises writers, so stamps are commit-ordered: once a reader
has seen stamp ``s``, every change it has not seen yet carries a stamp
above ``s``.  :meth:`TaskQueue.changes_since` hands a poller exactly
those rows, so a submitter waiting on N keys reads what moved since its
last poll instead of re-probing all N.  The wall-clock ``updated_at``
cannot serve as that cursor: a worker stamps ``now`` *before* it commits,
so a row committed just after a poll can carry a time the poller has
already passed.  Rows deleted by :meth:`TaskQueue.cancel_queued` leave
no stamp behind; a poller that must notice them reconciles against
:meth:`TaskQueue.rows` now and then.  The counter lives in the meta
table rather than being ``MAX(seq) + 1`` for the same reason: a deleted
row must not hand its stamp to the next change.

Schema versioning
-----------------

The table layout is stamped into a ``task_queue_meta`` row
(:data:`QUEUE_SCHEMA_VERSION`).  Opening a file whose queue has another
version (or whose columns drifted) **rebuilds the queue empty**, as
:class:`~repro.store.ResultStore` does on its own schema mismatch.  The
``results`` table — real computed value — is never touched, so a batch
re-run after the rebuild is served from the store and computes nothing.
Queue rows are only coordination state; the workers they referred to
belong to the old layout.  The rebuild re-checks the stamp under the
write lock, so a second process opening the same old file concurrently
does not drop rows the first one has already enqueued.
"""

from __future__ import annotations

import pickle
import sqlite3
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import (TYPE_CHECKING, Callable, Dict, Iterator, List, Optional,
                    Sequence, Tuple, Union)

from repro.store.result_store import ResultStore, connect, open_retrying

if TYPE_CHECKING:  # imported lazily at runtime to keep the package cheap
    from repro.algorithms.base import AlgorithmResult
    from repro.runtime.runner import BatchTask

__all__ = ["TaskQueue", "LeasedTask", "QueueRow", "QUEUE_SCHEMA_VERSION"]

#: Bump when the ``task_queue`` layout changes; queues stamped with another
#: version are rebuilt empty on open.  Version 2 added the
#: per-task ``budget_s`` column; version 3 added a cost-model runtime
#: prediction column, which version 5 dropped again; version 4 added the
#: ``seq`` change stamp.
QUEUE_SCHEMA_VERSION = 5

#: SQLite caps host parameters per statement (999 on older builds); bulk
#: SELECTs are chunked below this (matches result_store._MAX_SQL_PARAMS).
_MAX_SQL_PARAMS = 500

#: Kept as individual statements so the rebuild can run them inside its
#: ``BEGIN IMMEDIATE`` (``executescript`` would issue an implicit COMMIT).
_SCHEMA_STATEMENTS = (
    """CREATE TABLE IF NOT EXISTS task_queue (
    key             TEXT PRIMARY KEY,
    task_payload    BLOB NOT NULL,
    status          TEXT NOT NULL DEFAULT 'queued',
    owner           TEXT,
    lease_expires_at REAL,
    attempts        INTEGER NOT NULL DEFAULT 0,
    compute_count   INTEGER NOT NULL DEFAULT 0,
    excluded_worker TEXT,
    error           TEXT,
    budget_s        REAL,
    enqueued_at     REAL NOT NULL,
    updated_at      REAL NOT NULL,
    seq             INTEGER NOT NULL DEFAULT 0
)""",
    """CREATE INDEX IF NOT EXISTS idx_task_queue_status
    ON task_queue (status, enqueued_at)""",
    """CREATE INDEX IF NOT EXISTS idx_task_queue_seq ON task_queue (seq)""",
    """CREATE TABLE IF NOT EXISTS task_queue_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
)""",
)

#: The column set the current schema version expects; any drift (missing
#: ``budget_s`` on a pre-v2 file, columns from some future layout) rebuilds
#: the queue.
_EXPECTED_COLUMNS = frozenset({
    "key", "task_payload", "status", "owner", "lease_expires_at", "attempts",
    "compute_count", "excluded_worker", "error", "budget_s", "enqueued_at",
    "updated_at", "seq"})

#: The :class:`QueueRow` fields, in order.
_ROW_COLUMNS = ("key, status, owner, attempts, compute_count,"
                " excluded_worker, error, budget_s")

#: The stamp of the transaction in progress: one past the last committed
#: change.  Every row a transaction touches gets the same stamp, and
#: :meth:`TaskQueue._advance_seq` moves the counter once, before COMMIT.
_NEXT_SEQ = ("(SELECT CAST(value AS INTEGER) + 1 FROM task_queue_meta"
             " WHERE key = 'change_seq')")

#: The two ``LIMIT 1`` probes behind :meth:`TaskQueue.lease`, each an
#: ordered walk of ``idx_task_queue_status`` (whose entries end in the
#: rowid, so ``enqueued_at, rowid`` needs no sort): the head of the
#: ``queued`` rows, and the oldest expired lease.
_LEASE_COLUMNS = "key, task_payload, attempts, budget_s, enqueued_at, rowid"
_LEASE_QUEUED_SQL = (
    f"SELECT {_LEASE_COLUMNS} FROM task_queue"
    " WHERE status = 'queued'"
    "   AND (excluded_worker IS NULL OR excluded_worker != :worker"
    "        OR updated_at <= :grace_before)"
    "   AND attempts < :max_attempts"
    " ORDER BY enqueued_at ASC, rowid ASC LIMIT 1")
_LEASE_EXPIRED_SQL = (
    f"SELECT {_LEASE_COLUMNS} FROM task_queue"
    " WHERE status = 'leased' AND lease_expires_at <= :now"
    "   AND owner != :worker"
    "   AND (excluded_worker IS NULL OR excluded_worker != :worker)"
    "   AND attempts < :max_attempts"
    " ORDER BY enqueued_at ASC, rowid ASC LIMIT 1")


@dataclass(frozen=True)
class LeasedTask:
    """One successfully leased unit of work.

    The task stays pickled until :attr:`task` is first read: a drain loop
    that already holds the task (a submitter leasing a key of its own
    batch) never pays for decoding it.
    """

    key: str
    task_payload: bytes = field(repr=False)
    attempts: int
    budget_s: Optional[float] = None

    @cached_property
    def task(self) -> "BatchTask":
        return pickle.loads(self.task_payload)


@dataclass(frozen=True)
class QueueRow:
    """Queue-state snapshot of one row (payload excluded)."""

    key: str
    status: str
    owner: Optional[str]
    attempts: int
    compute_count: int
    excluded_worker: Optional[str]
    error: Optional[str]
    budget_s: Optional[float] = None


class TaskQueue:
    """Lease-based task queue sharing the result store's SQLite file.

    Parameters
    ----------
    path:
        The store file (the same path a :class:`ResultStore` opens), or
        an open :class:`ResultStore`.  The ``task_queue`` table is created
        on first use.  Given a store, the queue is *bound*: it runs on
        the store's connection and never closes it, and only a bound
        queue can :meth:`complete` a row and publish its result in one
        transaction.  Drain loops use bound queues; the supervisor and
        inspection open the path.
    lease_s:
        How long a lease lasts before the task is considered abandoned and
        becomes reclaimable.  Must comfortably exceed the longest expected
        single-task runtime — an expired lease on a still-running worker
        means the task may be computed twice (harmless for correctness,
        results are content-addressed, but it breaks the
        exactly-once-compute economy).
    max_attempts:
        Leases a task may consume before it is declared ``failed``.
    clock:
        Time source for every ``now`` default (``time.time`` unless
        overridden).  Tests inject a
        :class:`~repro.testing.clock.FakeClock` here so lease expiry is
        driven by advancing a number, not by sleeping.

    One ``TaskQueue`` instance must not be shared across processes — open
    the same *file* from each process (exactly like ``ResultStore``).
    """

    def __init__(self, path: Union[str, Path, ResultStore], *,
                 lease_s: float = 60.0, max_attempts: int = 3,
                 clock: Optional[Callable[[], float]] = None) -> None:
        if lease_s <= 0:
            raise ValueError("lease_s must be > 0")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.lease_s = float(lease_s)
        self.max_attempts = int(max_attempts)
        self._clock: Callable[[], float] = clock if clock is not None else time.time
        #: The store this queue is bound to (``None``: opened by path).
        self.store: Optional[ResultStore] = None
        if isinstance(path, ResultStore):
            self.store, self.path, self._conn = path, path.path, path._conn
            open_retrying(self._ensure_schema, self.path)
        else:
            self.path = Path(path)
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._conn = open_retrying(self._open, self.path)

    def _open(self) -> sqlite3.Connection:
        self._conn = connect(self.path)
        try:
            self._ensure_schema()
        except BaseException:
            self._conn.close()
            raise
        return self._conn

    @contextmanager
    def _write(self) -> Iterator[None]:
        """One ``BEGIN IMMEDIATE … COMMIT``; rolled back if the body raises.

        Not ``with self._conn``: Python's sqlite3 autocommits DDL outside
        an explicit transaction, and the write lock is taken up front so
        a read-then-write body cannot lose a race to another writer.  A
        failed COMMIT may already have ended the transaction, so ROLLBACK
        only runs while one is open — otherwise its own error would hide
        the cause.
        """
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            yield
            self._conn.execute("COMMIT")
        except BaseException:
            if self._conn.in_transaction:
                self._conn.execute("ROLLBACK")
            raise

    # ------------------------------------------------------------------
    # schema lifecycle
    # ------------------------------------------------------------------
    def _ensure_schema(self) -> None:
        """Create the queue tables, rebuilding them empty on a mismatch.

        The store's ``results`` table shares this file and is *never*
        touched here: queue rows are disposable coordination state,
        computed results are not.
        """
        if self._schema_current():
            return
        with self._write():
            # Re-check under the write lock: a concurrent opener may have
            # rebuilt the queue, and enqueued into it, since the probe.
            if not self._schema_current():
                self._conn.execute("DROP TABLE IF EXISTS task_queue")
                for statement in _SCHEMA_STATEMENTS:
                    self._conn.execute(statement)
                self._stamp_version()

    def _schema_current(self) -> bool:
        columns = {row[1] for row in
                   self._conn.execute("PRAGMA table_info(task_queue)")}
        return (columns == _EXPECTED_COLUMNS
                and self._stored_version() == QUEUE_SCHEMA_VERSION)

    def _stored_version(self) -> Optional[int]:
        try:
            row = self._conn.execute(
                "SELECT value FROM task_queue_meta"
                " WHERE key = 'queue_schema_version'").fetchone()
            return int(row[0]) if row is not None else None
        except (sqlite3.Error, ValueError):
            return None  # pre-versioning file (or mangled meta): rebuild

    def _stamp_version(self) -> None:
        """Stamp the layout version and start the change counter."""
        self._conn.execute(
            "INSERT OR REPLACE INTO task_queue_meta (key, value)"
            " VALUES ('queue_schema_version', ?)", (str(QUEUE_SCHEMA_VERSION),))
        self._conn.execute(
            "INSERT OR IGNORE INTO task_queue_meta (key, value)"
            " VALUES ('change_seq', '0')")

    def _advance_seq(self) -> None:
        """Commit the stamp :data:`_NEXT_SEQ` handed out; call once per
        write transaction that changed rows, before it commits."""
        self._conn.execute(
            "UPDATE task_queue_meta SET value = CAST(value AS INTEGER) + 1"
            " WHERE key = 'change_seq'")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the underlying connection (idempotent).  A bound queue
        leaves its store's connection open: the store owns it."""
        if self._conn is not None and self.store is None:
            self._conn.close()
        self._conn = None  # type: ignore[assignment]

    def __enter__(self) -> "TaskQueue":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # producer side
    # ------------------------------------------------------------------
    def enqueue(self, tasks: Sequence["BatchTask"], *,
                budgets: Optional[Sequence[Optional[float]]] = None,
                now: Optional[float] = None) -> List[str]:
        """Add tasks to the queue, deduplicating by cache key.

        A key that is already queued, leased, or done is left untouched
        (someone is on it, or the result is already published — including
        its budget: the first submitter's policy stands); a key that
        previously *failed* is re-armed with a fresh attempt budget — an
        explicit re-submission is the caller's way of saying "try again".
        ``budgets`` optionally aligns a per-task wall-clock budget (in
        seconds, ``None`` for unbudgeted) with ``tasks``; the budget is
        stored on the row and enforced by whichever worker leases it.
        Omitting ``budgets`` entirely leaves a re-armed failed row's
        existing budget in place (the budget describes the task, not the
        attempt — same rule as :meth:`requeue`); passing ``budgets``
        overwrites it, ``None`` entries included.
        Returns the keys this call armed (became ``queued``); keys some
        other submitter already owns are *not* in the list, which is what
        lets a submitter later cancel only its own unclaimed work.
        """
        if budgets is not None and len(budgets) != len(tasks):
            raise ValueError("budgets must align 1:1 with tasks")
        now = self._clock() if now is None else now
        armed: List[str] = []
        with self._write():
            for pos, task in enumerate(tasks):
                key = task.cache_key()
                budget = budgets[pos] if budgets is not None else None
                budget = float(budget) if budget is not None else None
                payload = pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL)
                cur = self._conn.execute(
                    "INSERT OR IGNORE INTO task_queue"
                    " (key, task_payload, status, budget_s,"
                    "  enqueued_at, updated_at, seq)"
                    f" VALUES (?, ?, 'queued', ?, ?, ?, {_NEXT_SEQ})",
                    (key, payload, budget, now, now))
                if cur.rowcount:
                    armed.append(key)
                    continue
                cur = self._conn.execute(
                    "UPDATE task_queue SET status = 'queued', attempts = 0,"
                    " owner = NULL, lease_expires_at = NULL, error = NULL,"
                    " excluded_worker = NULL,"
                    " budget_s = CASE WHEN ? THEN ? ELSE budget_s END,"
                    f" updated_at = ?, seq = {_NEXT_SEQ}"
                    " WHERE key = ? AND status = 'failed'",
                    (1 if budgets is not None else 0, budget, now, key))
                if cur.rowcount:
                    armed.append(key)
            if armed:
                self._advance_seq()
        return armed

    def requeue(self, keys: Sequence[str], *,
                now: Optional[float] = None) -> int:
        """Re-arm finished rows (``done`` or ``failed``) to ``queued``.

        The escape hatch for a ``done`` row whose published result has
        since vanished from the result store (size/age eviction, or the
        version purge on a ``repro`` upgrade): without it the row would
        block re-submission forever — nothing claimable, nothing stored.
        Resets the attempt budget (the wall-clock ``budget_s`` is kept —
        it describes the task, not the attempt); in-flight
        (``queued``/``leased``) rows are left alone.
        """
        now = self._clock() if now is None else now
        changed = 0
        with self._write():
            for lo in range(0, len(keys), _MAX_SQL_PARAMS):
                chunk = list(keys[lo:lo + _MAX_SQL_PARAMS])
                placeholders = ",".join("?" * len(chunk))
                cur = self._conn.execute(
                    f"UPDATE task_queue SET status = 'queued', attempts = 0,"
                    f" owner = NULL, lease_expires_at = NULL, error = NULL,"
                    f" excluded_worker = NULL, updated_at = ?, seq = {_NEXT_SEQ}"
                    f" WHERE status IN ('done', 'failed')"
                    f" AND key IN ({placeholders})",
                    [now, *chunk])
                changed += cur.rowcount
            if changed:
                self._advance_seq()
        return changed

    def cancel_queued(self, keys: Sequence[str]) -> int:
        """Drop rows among ``keys`` that are still ``queued`` (unclaimed).

        The submitter's early-exit path: abandoning a batch must not leave
        unclaimed work behind for workers to burn cycles on.  Leased and
        finished rows are left alone.
        """
        dropped = 0
        with self._write():
            for lo in range(0, len(keys), _MAX_SQL_PARAMS):
                chunk = list(keys[lo:lo + _MAX_SQL_PARAMS])
                placeholders = ",".join("?" * len(chunk))
                cur = self._conn.execute(
                    f"DELETE FROM task_queue WHERE status = 'queued'"
                    f" AND key IN ({placeholders})", chunk)
                dropped += cur.rowcount
        return dropped

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------
    def lease(self, worker_id: str, *,
              now: Optional[float] = None) -> Optional[LeasedTask]:
        """Atomically claim one task, or ``None`` when nothing is claimable.

        Claimable rows are ``queued`` rows plus ``leased`` rows whose lease
        has expired (their worker is presumed dead), excluding rows whose
        ``excluded_worker`` is *this* worker — a task that just killed us
        should be someone else's second try — and rows whose expired lease
        this worker itself holds (re-leasing one's own abandoned task
        would dodge the exclusion that :meth:`reclaim_expired` records).
        The exclusion is a *grace period*, not a ban: once a requeued row
        has sat unclaimed for a full ``lease_s`` (no other worker wanted
        it), the excluded worker may take it after all — otherwise a
        single-worker fleet would starve its own casualty forever while
        attempt budget remains.  Oldest-enqueued first, insertion order as
        the deterministic tie-break: two ``LIMIT 1`` index probes (the
        ``queued`` head, the oldest expired lease), of which the older
        wins, so a lease costs the same on a ten-row and a ten-thousand-row
        table.  ``BEGIN IMMEDIATE`` takes the write lock up front so two
        workers can never claim the same row.  The probes first run as a
        plain read, and the lock is taken only once they find a row, so an
        idle drain loop polls without write-lock traffic.
        """
        now = self._clock() if now is None else now
        params = {"now": now, "worker": worker_id,
                  "grace_before": now - self.lease_s,
                  "max_attempts": self.max_attempts}
        if self._lease_candidate(params) is None:
            return None
        with self._write():
            chosen = self._lease_candidate(params)
            if chosen is None:  # another worker took it since the read
                return None
            key, payload, attempts, budget_s, _, _ = chosen
            self._conn.execute(
                "UPDATE task_queue SET status = 'leased', owner = ?,"
                " lease_expires_at = ?, attempts = ?, updated_at = ?,"
                f" seq = {_NEXT_SEQ}"
                " WHERE key = ?",
                (worker_id, now + self.lease_s, attempts + 1, now, key))
            self._advance_seq()
        return LeasedTask(key=key, task_payload=payload,
                          attempts=attempts + 1, budget_s=budget_s)

    def _lease_candidate(self, params: Dict[str, object]) -> Optional[tuple]:
        """The older of the two lease probes' rows, or ``None``."""
        candidates = [row for row in (
            self._conn.execute(sql, params).fetchone()
            for sql in (_LEASE_QUEUED_SQL, _LEASE_EXPIRED_SQL))
            if row is not None]
        return (min(candidates, key=lambda row: (row[4], row[5]))
                if candidates else None)

    def complete(self, key: str, worker_id: str, *, computed: bool,
                 publish: Optional[Tuple["BatchTask", "AlgorithmResult"]] = None,
                 now: Optional[float] = None) -> None:
        """Mark a key ``done``.  ``computed=False`` records a dedup hit
        (the result was already in the store; nothing was computed).

        ``publish=(task, result)`` stores the result in the same write
        transaction: the ``results`` INSERT (:meth:`ResultStore.put`),
        the ``done`` UPDATE and the change-counter advance commit
        together or not at all, and the store's eviction sweep runs after
        the COMMIT.  Only a queue bound to its store can do that; an
        unbound queue raises ``ValueError`` before it touches the file —
        its own connection would wait forever on the write lock the
        store's connection holds.

        Deliberately not owner-checked: results are content-addressed, so
        a worker finishing after its lease expired (and after a second
        worker re-leased the row) still reports a correct outcome —
        last-writer-wins on identical content is harmless.
        """
        if publish is not None and self.store is None:
            raise ValueError(
                "publishing a result needs a queue bound to its store: "
                "open it as TaskQueue(store), not TaskQueue(path)")
        now = self._clock() if now is None else now
        if publish is not None:
            task, result = publish
            payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        with self._write():
            if publish is not None:
                self.store.put(task, result, payload=payload)
            cur = self._conn.execute(
                "UPDATE task_queue SET status = 'done', owner = ?,"
                " lease_expires_at = NULL, error = NULL,"
                " compute_count = compute_count + ?, updated_at = ?,"
                f" seq = {_NEXT_SEQ}"
                " WHERE key = ?",
                (worker_id, 1 if computed else 0, now, key))
            if cur.rowcount:
                self._advance_seq()
        if publish is not None:
            self.store.evict()

    def fail(self, key: str, worker_id: str, error: str, *,
             now: Optional[float] = None) -> None:
        """Mark a key ``failed`` with an error message (no retry).

        For *deterministic* failures — a captured algorithm exception will
        raise again on any worker, so retrying burns the attempt budget for
        nothing.  Crash-shaped failures go through lease expiry and
        :meth:`reclaim_expired` instead, which does retry.
        """
        now = self._clock() if now is None else now
        with self._write():
            cur = self._conn.execute(
                "UPDATE task_queue SET status = 'failed', owner = ?,"
                " lease_expires_at = NULL, error = ?, updated_at = ?,"
                f" seq = {_NEXT_SEQ}"
                " WHERE key = ?",
                (worker_id, error, now, key))
            if cur.rowcount:
                self._advance_seq()

    def reclaim_expired(self, *, now: Optional[float] = None) -> int:
        """Requeue expired leases; fail rows that exhausted their attempts.

        The presumed-dead worker is recorded as ``excluded_worker`` so it
        does not immediately re-claim the task it died on.  Returns the
        number of rows whose state changed.  A read decides first whether
        any lease has expired: on an idle poll none has, and no write
        lock is taken.
        """
        now = self._clock() if now is None else now
        if self._conn.execute(
                "SELECT 1 FROM task_queue WHERE status = 'leased'"
                " AND lease_expires_at <= ? LIMIT 1", (now,)).fetchone() is None:
            return 0
        changed = 0
        with self._write():
            cur = self._conn.execute(
                "UPDATE task_queue SET status = 'failed', excluded_worker = owner,"
                " owner = NULL, lease_expires_at = NULL, updated_at = ?,"
                f" seq = {_NEXT_SEQ},"
                " error = 'lease expired ' || attempts || ' time(s);"
                " worker presumed crashed (attempt cap reached)'"
                " WHERE status = 'leased' AND lease_expires_at <= ?"
                "   AND attempts >= ?",
                (now, now, self.max_attempts))
            changed += cur.rowcount
            cur = self._conn.execute(
                "UPDATE task_queue SET status = 'queued', excluded_worker = owner,"
                " owner = NULL, lease_expires_at = NULL, updated_at = ?,"
                f" seq = {_NEXT_SEQ}"
                " WHERE status = 'leased' AND lease_expires_at <= ?",
                (now, now))
            changed += cur.rowcount
            if changed:
                self._advance_seq()
        return changed

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def rows(self, keys: Optional[Sequence[str]] = None) -> List[QueueRow]:
        """Queue-state snapshots, for ``keys`` or the whole table."""
        sql = f"SELECT {_ROW_COLUMNS} FROM task_queue"
        out: List[QueueRow] = []
        if keys is None:
            for row in self._conn.execute(sql + " ORDER BY key ASC"):
                out.append(QueueRow(*row))
            return out
        for lo in range(0, len(keys), _MAX_SQL_PARAMS):
            chunk = list(keys[lo:lo + _MAX_SQL_PARAMS])
            placeholders = ",".join("?" * len(chunk))
            for row in self._conn.execute(
                    f"{sql} WHERE key IN ({placeholders}) ORDER BY key ASC",
                    chunk):
                out.append(QueueRow(*row))
        return out

    def last_seq(self) -> int:
        """The stamp of the latest committed change: a cursor from which
        :meth:`changes_since` reports every later change."""
        (value,) = self._conn.execute(
            "SELECT value FROM task_queue_meta WHERE key = 'change_seq'"
        ).fetchone()
        return int(value)

    def changes_since(self, cursor: int) -> Tuple[List[QueueRow], int]:
        """``(rows changed after cursor, the cursor to pass next)``.

        Each row appears once, in its latest state.  Rows removed by
        :meth:`cancel_queued` are not reported (see the module notes).
        """
        out: List[QueueRow] = []
        for *row, seq in self._conn.execute(
                f"SELECT {_ROW_COLUMNS}, seq FROM task_queue"
                " WHERE seq > ? ORDER BY seq ASC",
                (int(cursor),)):
            out.append(QueueRow(*row))
            cursor = seq
        return out, cursor

    def counts(self) -> Dict[str, int]:
        """Row counts per status (absent statuses map to 0)."""
        counts = {"queued": 0, "leased": 0, "done": 0, "failed": 0}
        for status, count in self._conn.execute(
                "SELECT status, COUNT(*) FROM task_queue GROUP BY status"):
            counts[status] = int(count)
        return counts

    def outstanding(self) -> int:
        """Rows still in flight (``queued`` or ``leased``)."""
        row = self._conn.execute(
            "SELECT COUNT(*) FROM task_queue"
            " WHERE status IN ('queued', 'leased')").fetchone()
        return int(row[0])

    def compute_counts(self, keys: Sequence[str]) -> Dict[str, int]:
        """``{key: times actually computed}`` for ``keys`` present in the
        table.  The distributed-dedup invariant is that every value is 1."""
        return {row.key: row.compute_count for row in self.rows(keys)}

    def __len__(self) -> int:
        row = self._conn.execute("SELECT COUNT(*) FROM task_queue").fetchone()
        return int(row[0])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TaskQueue({str(self.path)!r}, {self.counts()})"
