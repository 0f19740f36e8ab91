"""Connection-scoped sessions: snapshot reads, the writer lock, pooling.

The paper's archive is a multi-user web system; this module is what turns
the single-user engine into one.  The pieces:

* :class:`WriterLock` — the engine's single writer lock.  Writes from any
  connection serialise through it; acquisition has a configurable timeout
  that raises :class:`~repro.errors.LockTimeout` instead of blocking
  forever, and every wait is measured (``sqldb.writer_lock.*`` metrics,
  including a queue-depth gauge).
* :class:`TableSnapshot` / :class:`SnapshotCatalog` — read-only views of
  the live catalog at one version-clock sequence ``S``: every access,
  index lookups included, returns exactly the row versions visible at
  ``S``, so nothing is validated or re-run afterwards.
* :class:`Connection` — one session's handle: its own
  :class:`~repro.sqldb.transactions.TransactionManager` (transaction state
  is *per connection*), its own executors (the executor keeps per-statement
  state and is not shareable across threads), and the snapshot read path.
* :class:`ConnectionPool` — a small fixed pool the servlet container
  checks a connection out of per request, installing it as the calling
  thread's implicit connection and pinning one snapshot for the request's
  duration.

Isolation level offered (see docs/CONCURRENCY.md): autocommit reads on a
``snapshot_reads`` connection are *read-committed with per-statement
snapshots* — each statement sees one consistent committed state and never
blocks on the writer.  Inside a pooled request every statement reads the
request's pinned snapshot, moved forward only by the connection's own
commits.  Reads inside an explicit transaction see the live state (the
transaction's own uncommitted writes included).  Connections obtained via
:meth:`Database.connect` default to snapshot reads; the per-thread
implicit connection behind ``Database.execute`` reads live, preserving
exact single-connection semantics.
"""

from __future__ import annotations

import queue
import threading
from contextlib import contextmanager, nullcontext
from operator import itemgetter
from time import perf_counter
from typing import Any, Sequence

from repro.errors import LockTimeout, TransactionError
from repro.obs import get_observability
from repro.sqldb.executor import Executor
from repro.sqldb.storage import SortedIndex
from repro.sqldb.transactions import TransactionManager

__all__ = [
    "Connection",
    "ConnectionPool",
    "SnapshotCatalog",
    "TableSnapshot",
    "WriterLock",
]

#: default writer-lock acquisition timeout, seconds
DEFAULT_LOCK_TIMEOUT = 30.0


class WriterLock:
    """The engine's single writer lock, with timeout and instrumentation.

    Not reentrant: one connection holds it from its first write statement
    until commit/rollback.  ``queue_depth`` is the number of threads
    currently blocked waiting — the writer-queue depth surfaced at
    ``/metrics``.
    """

    def __init__(self, timeout: float = DEFAULT_LOCK_TIMEOUT, obs=None) -> None:
        self._lock = threading.Lock()
        self.timeout = timeout
        self._obs = obs
        self._waiters = 0
        self._waiters_lock = threading.Lock()

    @property
    def queue_depth(self) -> int:
        return self._waiters

    def locked(self) -> bool:
        return self._lock.locked()

    def acquire(self, timeout: float | None = None) -> None:
        if timeout is None:
            timeout = self.timeout
        obs = self._obs or get_observability()
        # Fast path: uncontended acquisition costs one try-lock.
        if self._lock.acquire(blocking=False):
            if obs.enabled:
                obs.metrics.counter("sqldb.writer_lock.acquires").inc()
            return
        with self._waiters_lock:
            self._waiters += 1
            if obs.enabled:
                obs.metrics.gauge("sqldb.writer_lock.queue_depth").set(
                    self._waiters
                )
        started = perf_counter()
        try:
            acquired = self._lock.acquire(timeout=timeout)
        finally:
            waited = perf_counter() - started
            with self._waiters_lock:
                self._waiters -= 1
                if obs.enabled:
                    obs.metrics.gauge("sqldb.writer_lock.queue_depth").set(
                        self._waiters
                    )
        if obs.enabled:
            obs.metrics.histogram("sqldb.writer_lock.wait_seconds").observe(
                waited
            )
        if not acquired:
            if obs.enabled:
                obs.metrics.counter("sqldb.writer_lock.timeouts").inc()
                obs.events.emit(
                    "sqldb.writer_lock.timeout", timeout=timeout, waited=waited
                )
            raise LockTimeout(
                f"writer lock not acquired within {timeout:g}s "
                f"({self._waiters} other writer(s) waiting)"
            )
        if obs.enabled:
            obs.metrics.counter("sqldb.writer_lock.acquires").inc()

    def release(self) -> None:
        self._lock.release()


class TableSnapshot:
    """Read-only view of one :class:`~repro.sqldb.storage.Table` at a
    snapshot sequence, presenting the executor's table interface.

    Every access returns exactly the row versions visible at the snapshot,
    and every live index is offered.  A lookup takes the live index's
    candidates, then the rowids with retained history (read second: a
    writer records history before it moves index entries), resolves each
    to its visible version, and keeps it only if its key still matches, in
    the live path's row order.
    """

    def __init__(self, table, snapshot: int) -> None:
        self._table = table
        self.snapshot = snapshot
        self.schema = table.schema
        self.indexes = dict(table.indexes)
        self._visible: list[tuple[int, tuple]] | None = None

    def _rows(self) -> list[tuple[int, tuple]]:
        if self._visible is None:
            table = self._table
            rows = table.heap.scan()
            # version_seq is read after the copy: if no write past the
            # snapshot began before or during it, the live rows are exact
            if table.version_seq > self.snapshot:
                rows = table.heap.scan_at(self.snapshot)
            self._visible = rows
        return self._visible

    def scan(self):
        return iter(self._rows())

    def __len__(self) -> int:
        return len(self._rows())

    def lookup(self, index, key: tuple) -> list[tuple[int, tuple]]:
        if any(part is None for part in key):
            return []  # NULL keys are never indexed
        if isinstance(index, SortedIndex):
            index = index.copy()
        positions = [self.schema.column_index(c) for c in index.columns]
        project = itemgetter(*positions)
        want = key if len(positions) > 1 else key[0]
        return [
            (rowid, row) for rowid, row in self._versions_at(index.find(key))
            if project(row) == want
        ]

    def range_lookup(self, index, low, high, include_low: bool = True,
                     include_high: bool = True) -> list[tuple[int, tuple]]:
        bounds = (low, high, include_low, include_high)
        versions = dict(self._versions_at(index.copy().range_scan(*bounds)))
        # a private index over the versions re-checks the range and gives
        # the live path's (key, rowid) order
        private = SortedIndex(index.name, index.columns)
        for rowid, row in versions.items():
            private.add(self.schema.key_of(row, index.columns), rowid)
        return [(rowid, versions[rowid]) for rowid in private.range_scan(*bounds)]

    def _versions_at(self, live_rowids) -> list[tuple[int, tuple]]:
        """The versions visible at the snapshot of ``live_rowids`` and of
        every rowid with retained history, in rowid order."""
        heap = self._table.heap
        rowids = set(live_rowids)
        rowids.update(heap.history_rowids())
        version_at, snapshot = heap.version_at, self.snapshot
        out = []
        for rowid in sorted(rowids):
            row = version_at(rowid, snapshot)
            if row is not None:
                out.append((rowid, row))
        return out

    def index_leading_on(self, column: str):
        return self._table.index_leading_on(column)


class SnapshotCatalog:
    """Catalog facade resolving every table to a :class:`TableSnapshot`
    at :attr:`snapshot`, which the owning connection sets per statement.

    System catalog views are served live and unwrapped — they are
    synthesised transient tables, outside row versioning.
    """

    def __init__(self, catalog) -> None:
        self._catalog = catalog
        self.snapshot = 0

    def table(self, name: str):
        table = self._catalog.table(name)
        if self._catalog.is_system_table(name):
            return table
        return TableSnapshot(table, self.snapshot)

    def __getattr__(self, name: str):
        # the rest of the catalog surface (schemas, views) is unversioned
        return getattr(self._catalog, name)


class Connection:
    """One session's handle onto a :class:`~repro.sqldb.database.Database`.

    Owns its transaction state (so concurrent sessions can each hold an
    open transaction), its own executors, and — when ``snapshot_reads`` is
    on — the per-statement snapshot read path.  Not itself thread-safe:
    one connection serves one thread at a time, which is exactly how the
    pool hands them out.
    """

    def __init__(self, db, snapshot_reads: bool = True,
                 lock_timeout: float | None = None) -> None:
        self._db = db
        self.snapshot_reads = snapshot_reads
        #: per-connection override of the engine's writer-lock timeout
        self.lock_timeout = lock_timeout
        self.txns = TransactionManager(
            db.catalog,
            db._wal,
            id_allocator=db._allocate_txn_id,
            clock=db.catalog.clock,
            writer=db.writer_lock,
            snapshot_floor=db.snapshot_floor,
            obs=db._obs,
        )
        #: live executor: writes, explicit-transaction reads, EXPLAIN
        self.executor = Executor(db.catalog)
        self._snap_catalog = SnapshotCatalog(db.catalog)
        self._snap_executor = Executor(self._snap_catalog)
        #: the snapshot every autocommit read uses while pinned (for the
        #: length of one pooled request); None reads a fresh one each time
        self.pinned_snapshot: int | None = None
        self.closed = False

    # -- public API ------------------------------------------------------------

    def execute(self, sql: str, params: Sequence[Any] = (),
                pushdown: bool = True):
        self._check_open()
        return self._db._execute_on(self, sql, params, pushdown)

    def execute_statement(self, stmt, params: Sequence[Any] = (),
                          sql: str | None = None, pushdown: bool = True):
        self._check_open()
        return self._db._execute_statement_on(self, stmt, params, sql, pushdown)

    def execute_script(self, sql: str, params: Sequence[Any] = ()):
        from repro.sqldb.parser import parse_script_with_sql

        return [
            self.execute_statement(stmt, params, sql=text)
            for stmt, text in parse_script_with_sql(sql)
        ]

    def transaction(self):
        return _ConnectionTransaction(self)

    @property
    def in_transaction(self) -> bool:
        return self.txns.in_explicit_transaction

    def close(self) -> None:
        """Roll back any open transaction and release the connection."""
        if self.closed:
            return
        if self.txns.active is not None:
            self.txns.rollback()
        self.closed = True

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def _check_open(self) -> None:
        if self.closed:
            raise TransactionError("connection is closed")

    # -- the snapshot read path --------------------------------------------------

    def _execute_read(self, stmt, params: Sequence[Any], pushdown: bool):
        """Run a SELECT/UNION/EXPLAIN for this connection.

        Snapshot mode applies to autocommit reads on snapshot-enabled
        connections; reads inside an explicit transaction are live so the
        transaction observes its own writes.
        """
        db = self._db
        if not self.snapshot_reads or self.txns.active is not None:
            return db._run_read(stmt, params, pushdown, self.executor)
        pinned = self.pinned_snapshot
        scope = db._snapshot_scope() if pinned is None else nullcontext(pinned)
        with scope as snapshot:
            self._snap_catalog.snapshot = snapshot
            result = db._run_read(stmt, params, pushdown, self._snap_executor)
        db._observe_snapshot_read(snapshot)
        return result

    def _pin(self) -> None:
        self.pinned_snapshot = self._db._register_snapshot()

    def _unpin(self) -> None:
        self._db._release_snapshot(self.pinned_snapshot)
        self.pinned_snapshot = None

    def _commit(self) -> None:
        """Commit the open transaction; a pinned snapshot moves to the new
        committed sequence so the connection reads its own writes."""
        try:
            self.txns.commit()
        finally:
            if self.pinned_snapshot is not None:
                self._unpin()
                self._pin()

    # -- instrumentation helpers (both executors belong to this connection) ----

    @property
    def rows_scanned(self) -> int:
        return self.executor.rows_scanned + self._snap_executor.rows_scanned

    @property
    def pushdown_filtered(self) -> int:
        return (
            self.executor.pushdown_filtered
            + self._snap_executor.pushdown_filtered
        )

    @property
    def hash_build_rows(self) -> int:
        return (
            self.executor.hash_build_rows
            + self._snap_executor.hash_build_rows
        )


class _ConnectionTransaction:
    def __init__(self, conn: Connection) -> None:
        self._conn = conn

    def __enter__(self) -> Connection:
        self._conn.execute("BEGIN")
        return self._conn

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            self._conn.execute("COMMIT")
        elif self._conn.in_transaction:
            self._conn.execute("ROLLBACK")
        return False


class ConnectionPool:
    """Fixed-size pool of snapshot-read connections for the web tier.

    ``scope()`` checks a connection out, installs it as the calling
    thread's implicit connection on the database (so every
    ``db.execute`` inside the request uses it), pins one snapshot for the
    request's reads, and returns the connection on exit — rolling back
    any transaction a buggy handler left open.  Checkout
    blocks when the pool is exhausted, which doubles as backpressure for
    the threaded server, and raises :class:`~repro.errors.LockTimeout`
    after ``checkout_timeout`` seconds.
    """

    def __init__(self, db, size: int = 4,
                 checkout_timeout: float = DEFAULT_LOCK_TIMEOUT,
                 lock_timeout: float | None = None) -> None:
        if size < 1:
            raise ValueError("pool size must be at least 1")
        self._db = db
        self.size = size
        self.checkout_timeout = checkout_timeout
        self._idle: "queue.Queue" = queue.Queue()
        for _ in range(size):
            self._idle.put(
                Connection(db, snapshot_reads=True, lock_timeout=lock_timeout)
            )
        self.checkouts = 0
        self._in_use = 0
        self._stats_lock = threading.Lock()

    @property
    def in_use(self) -> int:
        return self._in_use

    def checkout(self) -> Connection:
        obs = self._db._obs or get_observability()
        started = perf_counter()
        try:
            conn = self._idle.get(timeout=self.checkout_timeout)
        except queue.Empty:
            if obs.enabled:
                obs.metrics.counter("sqldb.pool.checkout_timeouts").inc()
            raise LockTimeout(
                f"no pooled connection available within "
                f"{self.checkout_timeout:g}s (pool size {self.size})"
            ) from None
        with self._stats_lock:
            self.checkouts += 1
            self._in_use += 1
        if obs.enabled:
            obs.metrics.counter("sqldb.pool.checkouts").inc()
            obs.metrics.gauge("sqldb.pool.in_use").set(self._in_use)
            obs.metrics.histogram("sqldb.pool.checkout_wait_seconds").observe(
                perf_counter() - started
            )
        return conn

    def checkin(self, conn: Connection) -> None:
        if conn.txns.active is not None:
            # a handler died mid-transaction: never return dirty state
            conn.txns.rollback()
            obs = self._db._obs or get_observability()
            if obs.enabled:
                obs.metrics.counter("sqldb.pool.abandoned_txns").inc()
        with self._stats_lock:
            self._in_use -= 1
        self._idle.put(conn)

    @contextmanager
    def scope(self):
        """Per-request scope: checkout, install as the thread's connection
        and pin one snapshot, so every read of the request sees one state."""
        conn = self.checkout()
        self._db._install_thread_connection(conn)
        conn._pin()
        try:
            yield conn
        finally:
            conn._unpin()
            self._db._install_thread_connection(None)
            self.checkin(conn)
