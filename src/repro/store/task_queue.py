r"""Distributed work queue over the result-store SQLite file.

:class:`TaskQueue` works the ``task_queue`` table of the SQLite file a
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

* **Publish is atomic.**  Every queue runs on a
  :class:`~repro.store.result_store.ResultStore`'s connection, so
  :meth:`TaskQueue.complete` with ``publish`` runs the ``results``
  INSERT, the ``done`` UPDATE and the change-counter advance in one
  ``BEGIN IMMEDIATE … COMMIT``.  A worker
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
* **Rows carry no time limit.**  A row holds the task and nothing about
  who submitted it: a submitter's ``timeout`` judges only its own inline
  drain, and a worker publishes the result as the algorithm returned it.

Change cursor
-------------

Every state transition — enqueue, lease, complete, fail, reclaim,
requeue — stamps the rows it touches with ``seq``, a change counter kept
in the ``change_seq`` row of ``store_meta`` and advanced *inside* the
write transaction.  SQLite serialises writers, so stamps are
commit-ordered: once a reader has seen stamp ``s``, every change it has
not seen yet carries a stamp above ``s``.  :meth:`TaskQueue.changes_since` hands a poller exactly
those rows, so a submitter waiting on N keys reads what moved since its
last poll instead of re-probing all N.  The wall-clock ``updated_at``
cannot serve as that cursor: a worker stamps ``now`` *before* it commits,
so a row committed just after a poll can carry a time the poller has
already passed.  Rows deleted by :meth:`TaskQueue.cancel_queued` leave
no stamp behind; a poller that must notice them reconciles against
:meth:`TaskQueue.rows` now and then.  The counter lives in a meta row
rather than being ``MAX(seq) + 1`` for the same reason: a deleted
row must not hand its stamp to the next change.

Schema
------

The ``task_queue`` table is part of the store's schema: its layout is
created, stamped and rebuilt by :class:`~repro.store.ResultStore`.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional, Sequence,
                    Tuple, Union)

from repro.store.checks import check_timeout
from repro.store.result_store import (_MAX_SQL_PARAMS, ResultStore, encode,
                                      write_transaction)

if TYPE_CHECKING:  # imported lazily at runtime to keep the package cheap
    from repro.algorithms.base import AlgorithmResult
    from repro.runtime.runner import BatchTask

__all__ = ["TaskQueue", "LeasedTask", "QueueRow"]

#: The :class:`QueueRow` fields, in order.
_ROW_COLUMNS = ("key, status, owner, attempts, compute_count,"
                " excluded_worker, error")

#: The stamp of the transaction in progress: one past the last committed
#: change.  Every row a transaction touches gets the same stamp, and
#: :meth:`TaskQueue._advance_seq` moves the counter once, before COMMIT.
_NEXT_SEQ = ("(SELECT CAST(value AS INTEGER) + 1 FROM store_meta"
             " WHERE key = 'change_seq')")

#: The ``LIMIT 1`` probe behind :meth:`TaskQueue.lease`: the head of the
#: claimable ``queued`` rows, an ordered walk of ``idx_task_queue_status``
#: (whose entries end in the rowid, so ``enqueued_at, rowid`` needs no
#: sort).
_LEASE_SQL = (
    "SELECT key, task_payload, attempts FROM task_queue"
    " WHERE status = 'queued'"
    "   AND (excluded_worker IS NULL OR excluded_worker != :worker"
    "        OR updated_at <= :grace_before)"
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


class TaskQueue:
    """Lease-based task queue sharing the result store's SQLite file.

    Parameters
    ----------
    path:
        An open :class:`ResultStore`, whose connection the queue shares
        and leaves open, or the store file's path, for which the queue
        opens a :class:`ResultStore` of its own and closes it in
        :meth:`close`.  Either way :meth:`complete` can publish a result
        in the transaction that marks its row ``done``.
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
        check_timeout(lease_s, "lease_s", none_ok=False)
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.lease_s = float(lease_s)
        self.max_attempts = int(max_attempts)
        self._clock: Callable[[], float] = clock if clock is not None else time.time
        #: Whether :meth:`close` closes :attr:`store` (opened by path).
        self._owns_store = not isinstance(path, ResultStore)
        #: The store whose connection this queue runs on.
        self.store = ResultStore(path) if self._owns_store else path
        self.path, self._conn = self.store.path, self.store._conn

    def _advance_seq(self) -> None:
        """Commit the stamp :data:`_NEXT_SEQ` handed out; call once per
        write transaction that changed rows, before it commits."""
        self._conn.execute(
            "UPDATE store_meta SET value = CAST(value AS INTEGER) + 1"
            " WHERE key = 'change_seq'")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the store this queue opened by path (idempotent); a
        store passed in stays open: its caller owns it."""
        if self._owns_store:
            self.store.close()
        self._conn = None  # type: ignore[assignment]

    def __enter__(self) -> "TaskQueue":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # producer side
    # ------------------------------------------------------------------
    def enqueue(self, tasks: Sequence["BatchTask"], *,
                now: Optional[float] = None) -> List[str]:
        """Add tasks to the queue, deduplicating by cache key.

        A key that is already queued, leased, or done is left untouched
        (someone is on it, or the result is already published); a key that
        previously *failed* is re-armed with a fresh attempt budget — an
        explicit re-submission is the caller's way of saying "try again".
        Returns the keys this call armed (became ``queued``); keys some
        other submitter already owns are *not* in the list, which is what
        lets a submitter later cancel only its own unclaimed work.
        """
        now = self._clock() if now is None else now
        armed: List[str] = []
        with write_transaction(self._conn):
            for task in tasks:
                key = task.cache_key()
                payload = pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL)
                cur = self._conn.execute(
                    "INSERT OR IGNORE INTO task_queue"
                    " (key, task_payload, status, enqueued_at, updated_at, seq)"
                    f" VALUES (?, ?, 'queued', ?, ?, {_NEXT_SEQ})",
                    (key, payload, now, now))
                if cur.rowcount:
                    armed.append(key)
                    continue
                cur = self._conn.execute(
                    "UPDATE task_queue SET status = 'queued', attempts = 0,"
                    " owner = NULL, lease_expires_at = NULL, error = NULL,"
                    f" excluded_worker = NULL, updated_at = ?, seq = {_NEXT_SEQ}"
                    " WHERE key = ? AND status = 'failed'",
                    (now, key))
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
        Resets the attempt budget; in-flight (``queued``/``leased``) rows
        are left alone.
        """
        now = self._clock() if now is None else now
        changed = 0
        with write_transaction(self._conn):
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
        with write_transaction(self._conn):
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

        Claimable rows are ``queued`` rows, excluding rows whose
        ``excluded_worker`` is *this* worker — a task that just killed us
        should be someone else's second try.  An expired lease becomes
        claimable only through :meth:`reclaim_expired`, which every drain
        loop calls before it leases, and which alone decides the exclusion
        and the attempt cap.  The exclusion is a *grace period*, not a
        ban: once a requeued row has sat unclaimed for a full ``lease_s``
        (no other worker wanted it), the excluded worker may take it after
        all — otherwise a single-worker fleet would starve its own
        casualty forever while attempt budget remains.  Oldest-enqueued
        first (a reclaimed row keeps its place), insertion order as the
        deterministic tie-break: one ``LIMIT 1`` index probe, so a lease
        costs the same on a ten-row and a ten-thousand-row table.
        ``BEGIN IMMEDIATE`` takes the write lock up front so two workers
        can never claim the same row.  The probe first runs as a plain
        read, and the lock is taken only once it finds a row, so an idle
        drain loop polls without write-lock traffic.
        """
        now = self._clock() if now is None else now
        params = {"worker": worker_id, "grace_before": now - self.lease_s,
                  "max_attempts": self.max_attempts}
        if self._conn.execute(_LEASE_SQL, params).fetchone() is None:
            return None
        with write_transaction(self._conn):
            chosen = self._conn.execute(_LEASE_SQL, params).fetchone()
            if chosen is None:  # another worker took it since the read
                return None
            key, payload, attempts = chosen
            self._conn.execute(
                "UPDATE task_queue SET status = 'leased', owner = ?,"
                " lease_expires_at = ?, attempts = ?, updated_at = ?,"
                f" seq = {_NEXT_SEQ}"
                " WHERE key = ?",
                (worker_id, now + self.lease_s, attempts + 1, now, key))
            self._advance_seq()
        return LeasedTask(key=key, task_payload=payload, attempts=attempts + 1)

    def complete(self, key: str, worker_id: str, *, computed: bool,
                 publish: Optional[Tuple["BatchTask", "AlgorithmResult"]] = None,
                 now: Optional[float] = None) -> None:
        """Mark a key ``done``.  ``computed=False`` records a dedup hit
        (the result was already in the store; nothing was computed).

        ``publish=(task, result)`` stores the result in the same write
        transaction: the ``results`` INSERT (:meth:`ResultStore.put`),
        the ``done`` UPDATE and the change-counter advance commit
        together or not at all, and the store's eviction sweep runs after
        the COMMIT.

        Deliberately not owner-checked: results are content-addressed, so
        a worker finishing after its lease expired (and after a second
        worker re-leased the row) still reports a correct outcome —
        last-writer-wins on identical content is harmless.
        """
        now = self._clock() if now is None else now
        if publish is not None:
            task, result = publish
            payload = encode(task, result)
        with write_transaction(self._conn):
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
        with write_transaction(self._conn):
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
        with write_transaction(self._conn):
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
            "SELECT value FROM store_meta WHERE key = 'change_seq'"
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
