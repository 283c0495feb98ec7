r"""Distributed work queue over the result-store SQLite file.

:class:`TaskQueue` adds a ``task_queue`` table to the same SQLite file a
:class:`~repro.store.result_store.ResultStore` lives in, turning the store
file into a complete *work plane*: any number of runner and worker
processes open the same path, lease tasks from the queue, and publish
results through the store.  WAL mode serialises the writers; every state
transition below is a single transaction, so the queue is safe under
concurrent workers on one host (the store file is the coordination
medium — no extra daemon).

Row lifecycle
-------------

::

    enqueue --> queued --lease--> leased --complete--> done
                  ^                 |  \
                  |   lease expired |   \-- fail (algorithm error) --> failed
                  +--- (requeue) ---+
                        attempts > max_attempts --> failed

* **Leases expire.**  A worker that crashes (OOM kill, segfault, power
  loss) never calls :meth:`complete`; its lease times out and
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
(:data:`QUEUE_SCHEMA_VERSION`).  Opening a file whose queue predates the
current layout (or whose columns drifted) triggers a **self-healing
migration**: the ``results`` table — real computed value — is never
touched; queue rows are salvaged where possible, with finished ``done``
rows preserved (their ``compute_count`` history included) and all
in-flight rows re-armed as fresh ``queued`` work.  Queue rows are cheap
coordination state, so when even salvage fails the queue rebuilds empty
rather than refusing to open.  Version 4 (the ``seq`` change stamp) came
through this same salvage: salvaged rows share one stamp, so a cursor of
0 reports them all.
"""

from __future__ import annotations

import pickle
import sqlite3
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional, Sequence,
                    Tuple, Union)

if TYPE_CHECKING:  # imported lazily at runtime to keep the package cheap
    from repro.runtime.runner import BatchTask

__all__ = ["TaskQueue", "LeasedTask", "QueueRow", "QUEUE_SCHEMA_VERSION"]

#: Bump when the ``task_queue`` layout changes; older queues are migrated
#: (rows salvaged, in-flight work re-armed) on open.  Version 2 added the
#: per-task ``budget_s`` column; version 3 added ``predicted_s`` (the raw
#: cost-model runtime prediction, feeding cost-weighted supervisor
#: scaling); version 4 added the ``seq`` change stamp.
QUEUE_SCHEMA_VERSION = 4

#: SQLite caps host parameters per statement (999 on older builds); bulk
#: SELECTs are chunked below this (matches result_store._MAX_SQL_PARAMS).
_MAX_SQL_PARAMS = 500

#: Kept as individual statements so the migration can replay them inside
#: one explicit transaction (``executescript`` would issue an implicit
#: COMMIT and make a mid-migration crash lose the salvaged rows).
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
    predicted_s     REAL,
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

_SCHEMA = ";\n".join(_SCHEMA_STATEMENTS) + ";"

#: The column set the current schema version expects; any drift (missing
#: ``budget_s`` on a pre-v2 file, columns from some future layout) routes
#: the open through the migration path.
_EXPECTED_COLUMNS = frozenset({
    "key", "task_payload", "status", "owner", "lease_expires_at", "attempts",
    "compute_count", "excluded_worker", "error", "budget_s", "predicted_s",
    "enqueued_at", "updated_at", "seq"})

#: The :class:`QueueRow` fields, in order.
_ROW_COLUMNS = ("key, status, owner, attempts, compute_count,"
                " excluded_worker, error, budget_s, predicted_s")

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
    """One successfully leased unit of work."""

    key: str
    task: "BatchTask"
    attempts: int
    budget_s: Optional[float] = None


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
    predicted_s: Optional[float] = None


class TaskQueue:
    """Lease-based task queue sharing the result store's SQLite file.

    Parameters
    ----------
    path:
        The store file (the same path a :class:`ResultStore` opens); the
        ``task_queue`` table is created on first use.
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

    def __init__(self, path: Union[str, Path], *, lease_s: float = 60.0,
                 max_attempts: int = 3,
                 clock: Optional[Callable[[], float]] = None) -> None:
        if lease_s <= 0:
            raise ValueError("lease_s must be > 0")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.path = Path(path)
        self.lease_s = float(lease_s)
        self.max_attempts = int(max_attempts)
        self._clock: Callable[[], float] = clock if clock is not None else time.time
        #: Whether opening this file migrated (rebuilt) an outdated queue.
        self.migrated = False
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(str(self.path), timeout=30.0)
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._ensure_schema()

    # ------------------------------------------------------------------
    # schema lifecycle
    # ------------------------------------------------------------------
    def _ensure_schema(self) -> None:
        """Create the queue tables, migrating an outdated layout in place.

        The store's ``results`` table shares this file and is *never*
        touched here: queue rows are disposable coordination state,
        computed results are not.
        """
        columns = {row[1] for row in
                   self._conn.execute("PRAGMA table_info(task_queue)")}
        if not columns:
            self._conn.executescript(_SCHEMA)
            self._stamp_version()
            self._conn.commit()
            return
        if columns == _EXPECTED_COLUMNS and self._stored_version() == QUEUE_SCHEMA_VERSION:
            return
        self._migrate(columns)

    def _stored_version(self) -> Optional[int]:
        try:
            row = self._conn.execute(
                "SELECT value FROM task_queue_meta"
                " WHERE key = 'queue_schema_version'").fetchone()
            return int(row[0]) if row is not None else None
        except (sqlite3.Error, ValueError):
            return None  # pre-versioning file (or mangled meta): migrate

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

    def _migrate(self, columns: set) -> None:
        """Rebuild an outdated ``task_queue``, salvaging what rows allow.

        Finished work is preserved: ``done`` rows keep their status and
        ``compute_count`` history (their results live in the store, which
        this migration never touches).  Everything else — queued, leased,
        failed — is re-armed as fresh ``queued`` work with a full attempt
        budget: the old file's in-flight bookkeeping (owners, leases,
        exclusions) referred to workers that no longer exist.  A file too
        mangled to salvage rebuilds the queue empty; refusing to open
        would turn stale coordination state into an outage.
        """
        now = self._clock()
        salvage_cols = [c for c in ("key", "task_payload", "status",
                                    "compute_count", "enqueued_at")
                        if c in columns]
        rows: List[dict] = []
        if {"key", "task_payload", "status"} <= columns:
            try:
                for raw in self._conn.execute(
                        f"SELECT {', '.join(salvage_cols)} FROM task_queue"
                        f" ORDER BY rowid ASC"):
                    rows.append(dict(zip(salvage_cols, raw)))
            except sqlite3.Error:
                rows = []
        def _rebuild(salvaged: List[dict]) -> None:
            # One explicit transaction end to end: drop, recreate, salvage,
            # stamp.  A crash anywhere rolls the file back to the old
            # layout, which the next open simply migrates again — rows are
            # never half-lost.  (Python's sqlite3 autocommits DDL outside
            # an explicit transaction, so BEGIN IMMEDIATE, not `with`.)
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                self._conn.execute("DROP TABLE IF EXISTS task_queue")
                for statement in _SCHEMA_STATEMENTS:
                    self._conn.execute(statement)
                self._stamp_version()
                for row in salvaged:
                    done = row["status"] == "done"
                    self._conn.execute(
                        "INSERT OR IGNORE INTO task_queue"
                        " (key, task_payload, status, compute_count,"
                        "  enqueued_at, updated_at, seq)"
                        f" VALUES (?, ?, ?, ?, ?, ?, {_NEXT_SEQ})",
                        (row["key"], row["task_payload"],
                         "done" if done else "queued",
                         int(row.get("compute_count") or 0),
                         float(row.get("enqueued_at") or now), now))
                self._advance_seq()
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise

        try:
            _rebuild(rows)
        except sqlite3.Error:
            # Salvage itself failed mid-write: last resort, empty queue.
            _rebuild([])
        self.migrated = True

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        if self._conn is not None:
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
                predictions: Optional[Sequence[Optional[float]]] = None,
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
        overwrites it, ``None`` entries included.  ``predictions``
        aligns the cost model's *raw* predicted runtime with ``tasks``
        (seconds, ``None`` for unknown) — pure scaling advice for the
        supervisor (:meth:`queued_work_seconds`), never enforced — and
        follows the same overwrite rule.
        Returns the keys this call armed (became ``queued``); keys some
        other submitter already owns are *not* in the list, which is what
        lets a submitter later cancel only its own unclaimed work.
        """
        if budgets is not None and len(budgets) != len(tasks):
            raise ValueError("budgets must align 1:1 with tasks")
        if predictions is not None and len(predictions) != len(tasks):
            raise ValueError("predictions must align 1:1 with tasks")
        now = self._clock() if now is None else now
        armed: List[str] = []
        with self._conn:
            for pos, task in enumerate(tasks):
                key = task.cache_key()
                budget = budgets[pos] if budgets is not None else None
                budget = float(budget) if budget is not None else None
                predicted = predictions[pos] if predictions is not None else None
                predicted = float(predicted) if predicted is not None else None
                payload = pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL)
                cur = self._conn.execute(
                    "INSERT OR IGNORE INTO task_queue"
                    " (key, task_payload, status, budget_s, predicted_s,"
                    "  enqueued_at, updated_at, seq)"
                    f" VALUES (?, ?, 'queued', ?, ?, ?, ?, {_NEXT_SEQ})",
                    (key, payload, budget, predicted, now, now))
                if cur.rowcount:
                    armed.append(key)
                    continue
                cur = self._conn.execute(
                    "UPDATE task_queue SET status = 'queued', attempts = 0,"
                    " owner = NULL, lease_expires_at = NULL, error = NULL,"
                    " excluded_worker = NULL,"
                    " budget_s = CASE WHEN ? THEN ? ELSE budget_s END,"
                    " predicted_s = CASE WHEN ? THEN ? ELSE predicted_s END,"
                    f" updated_at = ?, seq = {_NEXT_SEQ}"
                    " WHERE key = ? AND status = 'failed'",
                    (1 if budgets is not None else 0, budget,
                     1 if predictions is not None else 0, predicted, now, key))
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
        with self._conn:
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
        with self._conn:
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
        workers can never claim the same row.
        """
        now = self._clock() if now is None else now
        params = {"now": now, "worker": worker_id,
                  "grace_before": now - self.lease_s,
                  "max_attempts": self.max_attempts}
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            candidates = [row for row in (
                self._conn.execute(sql, params).fetchone()
                for sql in (_LEASE_QUEUED_SQL, _LEASE_EXPIRED_SQL))
                if row is not None]
            if not candidates:
                self._conn.execute("COMMIT")
                return None
            key, payload, attempts, budget_s, _, _ = min(
                candidates, key=lambda row: (row[4], row[5]))
            self._conn.execute(
                "UPDATE task_queue SET status = 'leased', owner = ?,"
                " lease_expires_at = ?, attempts = ?, updated_at = ?,"
                f" seq = {_NEXT_SEQ}"
                " WHERE key = ?",
                (worker_id, now + self.lease_s, attempts + 1, now, key))
            self._advance_seq()
            self._conn.execute("COMMIT")
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        return LeasedTask(key=key, task=pickle.loads(payload),
                          attempts=attempts + 1, budget_s=budget_s)

    def complete(self, key: str, worker_id: str, *, computed: bool,
                 now: Optional[float] = None) -> None:
        """Mark a key ``done``.  ``computed=False`` records a dedup hit
        (the result was already in the store; nothing was computed).

        Deliberately not owner-checked: results are content-addressed, so
        a worker finishing after its lease expired (and after a second
        worker re-leased the row) still reports a correct outcome —
        last-writer-wins on identical content is harmless.
        """
        now = self._clock() if now is None else now
        with self._conn:
            cur = self._conn.execute(
                "UPDATE task_queue SET status = 'done', owner = ?,"
                " lease_expires_at = NULL, error = NULL,"
                " compute_count = compute_count + ?, updated_at = ?,"
                f" seq = {_NEXT_SEQ}"
                " WHERE key = ?",
                (worker_id, 1 if computed else 0, now, key))
            if cur.rowcount:
                self._advance_seq()

    def fail(self, key: str, worker_id: str, error: str, *,
             now: Optional[float] = None) -> None:
        """Mark a key ``failed`` with an error message (no retry).

        For *deterministic* failures — a captured algorithm exception will
        raise again on any worker, so retrying burns the attempt budget for
        nothing.  Crash-shaped failures go through lease expiry and
        :meth:`reclaim_expired` instead, which does retry.
        """
        now = self._clock() if now is None else now
        with self._conn:
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
        number of rows whose state changed.
        """
        now = self._clock() if now is None else now
        changed = 0
        with self._conn:
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

    def queued_work_seconds(self, *, default_s: float = 0.0) -> Tuple[int, float]:
        """``(queued rows, estimated seconds of queued work)``.

        Sums the cost-model ``predicted_s`` stamped on ``queued`` rows;
        rows without a prediction count as ``default_s`` each.  This is
        the supervisor's cost-weighted scaling signal: spawn workers for
        *work*, not for rows — ten milliseconds-sized tasks are one
        worker's next second, not ten forks.
        """
        row = self._conn.execute(
            "SELECT COUNT(*), COALESCE(SUM(COALESCE(predicted_s, ?)), 0)"
            " FROM task_queue WHERE status = 'queued'",
            (float(default_s),)).fetchone()
        return int(row[0]), float(row[1])

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
