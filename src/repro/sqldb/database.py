"""The public database facade.

:class:`Database` exposes a DB-API-flavoured ``execute(sql, params)`` over
the parser, catalog, storage, transaction and WAL layers, and enforces the
cross-table rules:

* foreign-key referential integrity (RESTRICT semantics both directions),
* CHECK constraints,
* SQL/MED datalink hooks — on INSERT/UPDATE/DELETE of DATALINK columns the
  registered :class:`DatalinkHooks` implementation is consulted, so file
  linking participates in the same transaction as the metadata change, and
  on SELECT datalink values are decorated with access tokens.

Open with a directory path for durability (write-ahead logging + crash
recovery + checkpoints), or with no arguments for an in-memory database.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Iterator, Sequence

from repro.errors import (
    CatalogError,
    CheckViolation,
    ForeignKeyViolation,
    SqlSyntaxError,
    TransactionError,
)
from repro.sqldb.catalog import Catalog
from repro.sqldb.executor import Executor, SelectResult
from repro.sqldb.parser import parse_sql
from repro.sqldb.parser.ast_nodes import (
    AlterTableStmt,
    BeginStmt,
    CommitStmt,
    CreateIndexStmt,
    CreateTableStmt,
    CreateViewStmt,
    DeleteStmt,
    DropIndexStmt,
    DropTableStmt,
    DropViewStmt,
    ExplainStmt,
    InsertStmt,
    RollbackStmt,
    SelectStmt,
    Statement,
    UnionStmt,
    UpdateStmt,
)
from repro.obs import get_observability
from repro.sqldb.connection import (
    DEFAULT_LOCK_TIMEOUT,
    Connection,
    ConnectionPool,
    WriterLock,
)
from repro.sqldb.expressions import ColumnRef, Expression, PositionalBinder
from repro.sqldb.schema import TableSchema
from repro.sqldb.storage import HashIndex, SortedIndex
from repro.sqldb.types import DatalinkValue
from repro.sqldb.wal import WriteAheadLog

__all__ = ["Database", "Result", "DatalinkHooks", "Connection", "ConnectionPool"]


class Result:
    """Outcome of one statement."""

    def __init__(
        self,
        columns: list[str] | None = None,
        rows: list[tuple] | None = None,
        rowcount: int = 0,
        plan: list[str] | None = None,
    ) -> None:
        self.columns = columns or []
        self.rows = rows or []
        self.rowcount = rowcount
        self.plan = plan or []

    def scalar(self) -> Any:
        """First column of the first row (None when empty)."""
        if not self.rows:
            return None
        return self.rows[0][0]

    def first(self) -> tuple | None:
        return self.rows[0] if self.rows else None

    def dicts(self) -> list[dict[str, Any]]:
        """Rows as dictionaries keyed by output column name."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return f"Result({len(self.rows)} rows, rowcount={self.rowcount})"


class DatalinkHooks:
    """Interface the datalink manager implements to participate in the
    engine's transactions.  The default implementation is a no-op, which
    corresponds to ``NO LINK CONTROL`` behaviour for every column."""

    def on_insert_link(self, table: str, column: str, value: DatalinkValue,
                       spec, txn) -> None:
        """Called while inserting a non-NULL DATALINK value.  Must raise to
        veto the insert (e.g. FILE LINK CONTROL and the file is missing)."""

    def on_remove_link(self, table: str, column: str, value: DatalinkValue,
                       spec, txn) -> None:
        """Called while deleting/overwriting a non-NULL DATALINK value."""

    def statement_mark(self, txn) -> Any:
        """Snapshot pending link state before a statement (see the engine's
        statement-level atomicity)."""
        return None

    def statement_rollback(self, txn, mark: Any) -> None:
        """Discard pending link operations queued after ``mark``."""

    def decorate(self, value: DatalinkValue, spec, user: str | None = None) -> DatalinkValue:
        """Called for every DATALINK value in a SELECT result; returns the
        value to present (token attached for READ PERMISSION DB columns)."""
        return value


class Database:
    """A relational database with SQL/MED datalink support.

    >>> db = Database()
    >>> _ = db.execute("CREATE TABLE a (k INTEGER PRIMARY KEY, v VARCHAR(10))")
    >>> db.execute("INSERT INTO a VALUES (?, ?)", (1, 'x')).rowcount
    1
    """

    #: statement-cache capacity (entries); evicted least-recently-used
    STATEMENT_CACHE_SIZE = 512

    def __init__(self, directory: str | None = None, sync: bool = False,
                 obs=None, lock_timeout: float = DEFAULT_LOCK_TIMEOUT) -> None:
        #: explicit observability bundle; None means "use the process-wide
        #: default at call time" (a no-op unless repro.obs.enable() ran)
        self._obs = obs
        self.catalog = Catalog()
        self._wal = WriteAheadLog(directory, sync=sync) if directory else None
        self._hooks: DatalinkHooks = DatalinkHooks()
        self._statement_cache: OrderedDict[str, Statement] = OrderedDict()
        self._statement_cache_lock = threading.Lock()
        self.statement_cache_hits = 0
        self.statement_cache_misses = 0
        #: the engine's single writer lock (see docs/CONCURRENCY.md)
        self.writer_lock = WriterLock(lock_timeout, obs=obs)
        #: engine-wide transaction-id allocation: atomic, never reused
        self._txn_ids = itertools.count(1)
        self._txn_ids_lock = threading.Lock()
        #: active snapshot sequences -> reader count; the minimum bounds
        #: how much row history commits must retain
        self._snapshots: dict[int, int] = {}
        self._snapshots_lock = threading.Lock()
        #: per-thread implicit connection (``execute`` without ``connect``),
        #: plus the pool's per-request override
        self._tls = threading.local()
        #: identity of the requesting user, consulted when issuing tokens
        self.current_user: str | None = None
        #: populated by recovery on durable databases: replayed/skipped
        #: transaction counts, torn-tail bytes, checkpoint watermark/epoch
        self.recovery_stats: dict[str, int] | None = None
        if self._wal is not None:
            self._recover()

    # -- connections -------------------------------------------------------------

    def connect(self, snapshot_reads: bool = True,
                lock_timeout: float | None = None) -> Connection:
        """Open an independent connection with its own transaction state.

        ``snapshot_reads=True`` (the default) gives the connection
        per-statement snapshot isolation on autocommit reads, so it never
        blocks on the writer; ``lock_timeout`` overrides the engine-wide
        writer-lock timeout for this connection's writes.
        """
        return Connection(
            self, snapshot_reads=snapshot_reads, lock_timeout=lock_timeout
        )

    def _allocate_txn_id(self) -> int:
        with self._txn_ids_lock:
            return next(self._txn_ids)

    def _connection(self) -> Connection:
        """The calling thread's implicit connection.

        A pool-installed override wins; otherwise each thread lazily gets
        its own default connection with live (non-snapshot) reads, which
        preserves exact historical single-connection semantics for
        ``Database.execute``.
        """
        override = getattr(self._tls, "override", None)
        if override is not None:
            return override
        conn = getattr(self._tls, "conn", None)
        if conn is None:
            conn = Connection(self, snapshot_reads=False)
            self._tls.conn = conn
        return conn

    def _install_thread_connection(self, conn: Connection | None) -> None:
        """Install (or with None, remove) the thread's override connection
        — how the pool scopes a pooled connection to one request."""
        self._tls.override = conn

    # back-compat introspection: the thread's connection-scoped objects
    @property
    def _txns(self):
        return self._connection().txns

    @property
    def _executor(self):
        return self._connection().executor

    # -- snapshot registry --------------------------------------------------------

    def _register_snapshot(self) -> int:
        """Pin the current committed sequence until :meth:`_release_snapshot`."""
        with self._snapshots_lock:
            snapshot = self.catalog.clock.committed
            self._snapshots[snapshot] = self._snapshots.get(snapshot, 0) + 1
        return snapshot

    def _release_snapshot(self, snapshot: int) -> None:
        with self._snapshots_lock:
            count = self._snapshots.get(snapshot, 1) - 1
            if count > 0:
                self._snapshots[snapshot] = count
            else:
                self._snapshots.pop(snapshot, None)

    @contextmanager
    def _snapshot_scope(self):
        """Pin the current committed sequence for one read statement."""
        snapshot = self._register_snapshot()
        try:
            yield snapshot
        finally:
            self._release_snapshot(snapshot)

    def snapshot_floor(self) -> int | None:
        """Oldest snapshot still being read (None when no reader active)."""
        with self._snapshots_lock:
            return min(self._snapshots) if self._snapshots else None

    def _observe_snapshot_read(self, snapshot: int) -> None:
        obs = self._obs or get_observability()
        if not obs.enabled:
            return
        obs.metrics.counter("sqldb.snapshot.reads").inc()
        obs.metrics.histogram("sqldb.snapshot.age_commits").observe(
            self.catalog.clock.committed - snapshot
        )

    # -- configuration -----------------------------------------------------------

    def set_datalink_hooks(self, hooks: DatalinkHooks) -> None:
        """Register the SQL/MED datalink manager."""
        self._hooks = hooks

    @property
    def datalink_hooks(self) -> DatalinkHooks:
        return self._hooks

    # -- execution -----------------------------------------------------------------

    def execute(self, sql: str, params: Sequence[Any] = (),
                pushdown: bool = True) -> Result:
        """Parse (with LRU caching) and execute one statement.

        ``pushdown=False`` disables the cost-aware planner (predicate
        pushdown, hash joins, range scans, Top-N) and runs the naive
        nested-loop / filter-at-the-end path — the escape hatch the
        differential tests compare against.
        """
        return self._execute_on(self._connection(), sql, params, pushdown)

    def _execute_on(self, conn: Connection, sql: str, params: Sequence[Any],
                    pushdown: bool) -> Result:
        stmt = self._parse_cached(sql)
        return self._execute_statement_on(conn, stmt, params, sql, pushdown)

    def _parse_cached(self, sql: str) -> Statement:
        """Statement-cache lookup, thread-safe; parsing runs unlocked."""
        cache = self._statement_cache
        with self._statement_cache_lock:
            stmt = cache.get(sql)
            if stmt is not None:
                self.statement_cache_hits += 1
                cache.move_to_end(sql)
                return stmt
            self.statement_cache_misses += 1
        stmt = parse_sql(sql)
        with self._statement_cache_lock:
            if sql not in cache:
                if len(cache) >= self.STATEMENT_CACHE_SIZE:
                    cache.popitem(last=False)
                cache[sql] = stmt
        return stmt

    @property
    def statement_cache_stats(self) -> dict[str, float]:
        """Hit/miss/size counters plus the derived hit ratio."""
        hits, misses = self.statement_cache_hits, self.statement_cache_misses
        total = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "entries": len(self._statement_cache),
            "hit_ratio": hits / total if total else 0.0,
        }

    def execute_script(self, sql: str, params: Sequence[Any] = ()) -> list[Result]:
        """Execute a ``;``-separated script, returning per-statement results.

        Each statement keeps its own slice of the script text, so tracing
        and the slow-query log attribute work to real SQL; placeholders are
        numbered across the whole script, so one ``params`` sequence serves
        every statement.
        """
        from repro.sqldb.parser import parse_script_with_sql

        return [
            self.execute_statement(stmt, params, sql=text)
            for stmt, text in parse_script_with_sql(sql)
        ]

    def execute_statement(
        self, stmt: Statement, params: Sequence[Any] = (),
        sql: str | None = None, pushdown: bool = True,
    ) -> Result:
        return self._execute_statement_on(
            self._connection(), stmt, params, sql, pushdown
        )

    def _execute_statement_on(
        self, conn: Connection, stmt: Statement, params: Sequence[Any],
        sql: str | None = None, pushdown: bool = True,
    ) -> Result:
        obs = self._obs or get_observability()
        if not obs.enabled:
            return self._dispatch_statement(conn, stmt, params, sql, pushdown)
        return self._execute_instrumented(obs, conn, stmt, params, sql, pushdown)

    def _execute_instrumented(
        self,
        obs,
        conn: Connection,
        stmt: Statement,
        params: Sequence[Any],
        sql: str | None,
        pushdown: bool = True,
    ) -> Result:
        kind = type(stmt).__name__.removesuffix("Stmt").upper()
        scanned_before = conn.rows_scanned
        pushed_before = conn.pushdown_filtered
        hashed_before = conn.hash_build_rows
        with obs.tracer.span(
            "sql.statement", statement=kind, sql=sql or f"<{kind}>"
        ) as span:
            started = perf_counter()
            result = self._dispatch_statement(conn, stmt, params, sql, pushdown)
            elapsed = perf_counter() - started
        scanned = conn.rows_scanned - scanned_before
        span.set(
            elapsed=elapsed,
            rows=len(result.rows) or result.rowcount,
            rows_scanned=scanned,
        )
        metrics = obs.metrics
        metrics.counter("sql.statements", kind=kind).inc()
        metrics.counter("sql.rows_returned").inc(len(result.rows))
        metrics.counter("sql.rows_scanned").inc(scanned)
        pushed = conn.pushdown_filtered - pushed_before
        if pushed:
            metrics.counter("sqldb.scan.pushdown_filtered").inc(pushed)
        hashed = conn.hash_build_rows - hashed_before
        if hashed:
            metrics.counter("sqldb.join.hash_build_rows").inc(hashed)
        metrics.histogram("sql.statement_seconds").observe(elapsed)
        metrics.counter("sql.statement_cache.hits").value = (
            self.statement_cache_hits
        )
        metrics.counter("sql.statement_cache.misses").value = (
            self.statement_cache_misses
        )
        obs.slow_query.record(
            sql or f"<{kind}>", elapsed, params=params,
            rows=len(result.rows) or result.rowcount, rows_scanned=scanned,
        )
        return result

    def _dispatch_statement(
        self, conn: Connection, stmt: Statement, params: Sequence[Any],
        sql: str | None, pushdown: bool = True,
    ) -> Result:
        if isinstance(stmt, (SelectStmt, UnionStmt, ExplainStmt)):
            return conn._execute_read(stmt, params, pushdown)
        if isinstance(stmt, BeginStmt):
            conn.txns.begin(explicit=True)
            return Result()
        if isinstance(stmt, CommitStmt):
            if not conn.txns.in_explicit_transaction:
                raise TransactionError("COMMIT outside a transaction")
            conn._commit()
            return Result()
        if isinstance(stmt, RollbackStmt):
            if not conn.txns.in_explicit_transaction:
                raise TransactionError("ROLLBACK outside a transaction")
            conn.txns.rollback()
            return Result()

        # All remaining statements mutate; serialise through the writer
        # lock *before* creating transaction state, so a timeout leaves the
        # connection untouched.  No-op when this connection already holds
        # the lock (explicit transaction with earlier writes).
        conn.txns.acquire_writer(conn.lock_timeout)
        txn, owns = conn.txns.ensure()
        stmt_mark = conn.txns.statement_mark(txn)
        hook_mark = self._hooks.statement_mark(txn)
        try:
            if isinstance(stmt, CreateTableStmt):
                result = self._execute_create_table(conn, stmt, txn, sql)
            elif isinstance(stmt, CreateViewStmt):
                result = self._execute_create_view(conn, stmt, txn, sql)
            elif isinstance(stmt, DropViewStmt):
                result = self._execute_drop_view(stmt, txn)
            elif isinstance(stmt, AlterTableStmt):
                result = self._execute_alter_table(stmt, txn, sql)
            elif isinstance(stmt, DropTableStmt):
                result = self._execute_drop_table(stmt, txn)
            elif isinstance(stmt, CreateIndexStmt):
                result = self._execute_create_index(conn, stmt, txn, sql)
            elif isinstance(stmt, DropIndexStmt):
                result = self._execute_drop_index(stmt)
            elif isinstance(stmt, InsertStmt):
                result = self._execute_insert(conn, stmt, params, txn)
            elif isinstance(stmt, UpdateStmt):
                result = self._execute_update(conn, stmt, params, txn)
            elif isinstance(stmt, DeleteStmt):
                result = self._execute_delete(conn, stmt, params, txn)
            else:
                raise SqlSyntaxError(f"unsupported statement {type(stmt).__name__}")
        except Exception:
            if owns:
                conn.txns.rollback()
            else:
                # Statement-level atomicity inside an explicit transaction:
                # a failed statement leaves no partial effects, but earlier
                # statements of the transaction survive.
                conn.txns.statement_rollback(txn, stmt_mark)
                self._hooks.statement_rollback(txn, hook_mark)
            raise
        if owns:
            try:
                conn._commit()
            except Exception:
                # the log append failed and left the implicit transaction
                # open; nobody can ROLLBACK it, so undo the statement here
                if conn.txns.active is txn:
                    conn.txns.rollback()
                raise
        return result

    def _run_read(self, stmt: Statement, params: Sequence[Any],
                  pushdown: bool, executor: Executor) -> Result:
        """Execute a read statement against the given executor — either a
        connection's live executor or its snapshot executor (the snapshot
        read path runs the *whole* statement, UNION branches included,
        against one snapshot)."""
        if isinstance(stmt, SelectStmt):
            return self._select_result(stmt, params, pushdown, executor)
        if isinstance(stmt, UnionStmt):
            return self._execute_union(stmt, params, pushdown, executor)
        assert isinstance(stmt, ExplainStmt)
        if stmt.analyze:
            return self._execute_explain_analyze(stmt, params, pushdown, executor)
        result = executor.execute_select(stmt.select, params, optimize=pushdown)
        return Result(
            ["PLAN"], [(step,) for step in result.plan],
            rowcount=len(result.plan),
        )

    def transaction(self) -> "_TransactionContext":
        """Context manager: BEGIN on enter, COMMIT on success, ROLLBACK on
        exception.

        >>> db = Database()
        >>> _ = db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY)")
        >>> with db.transaction():
        ...     _ = db.execute("INSERT INTO t VALUES (1)")
        """
        return _TransactionContext(self)

    def explain(self, sql: str, params: Sequence[Any] = (),
                pushdown: bool = True) -> str:
        """Access-path description for a SELECT (tests pin index usage)."""
        from repro.sqldb.planner import explain as render

        stmt = parse_sql(sql)
        if not isinstance(stmt, SelectStmt):
            raise SqlSyntaxError("EXPLAIN supports SELECT only")
        result = self._executor.execute_select(stmt, params, optimize=pushdown)
        return render(result.plan)

    def _execute_explain_analyze(self, stmt: ExplainStmt,
                                 params: Sequence[Any],
                                 pushdown: bool,
                                 executor: Executor) -> Result:
        """EXPLAIN ANALYZE: run the SELECT and annotate every plan step
        with the rows it produced and its measured (cumulative) time."""
        started = perf_counter()
        result = executor.execute_select(
            stmt.select, params, analyze=True, optimize=pushdown
        )
        total = perf_counter() - started
        rows: list[tuple] = []
        stats = result.step_stats or {}
        for i, step in enumerate(result.plan):
            timing = stats.get(i)
            if timing is not None:
                rows.append((
                    f"{step} [rows={timing.rows}, "
                    f"{timing.seconds * 1e3:.3f} ms cumulative]",
                ))
            else:
                rows.append((step,))
        rows.append((
            f"total: {len(result.rows)} row(s) in {total * 1e3:.3f} ms",
        ))
        return Result(["PLAN"], rows, rowcount=len(rows))

    # -- DDL -----------------------------------------------------------------------

    def _execute_create_table(self, conn: Connection, stmt: CreateTableStmt,
                              txn, sql: str | None) -> Result:
        if stmt.if_not_exists and self.catalog.has_table(stmt.name):
            return Result()
        schema = TableSchema(
            stmt.name,
            stmt.columns,
            primary_key=stmt.primary_key,
            foreign_keys=stmt.foreign_keys,
            unique_sets=stmt.unique_sets,
            checks=stmt.checks,
        )
        self.catalog.create_table(schema)
        conn.txns.record_ddl(txn, ("create_table", stmt.name), sql or schema.ddl())
        return Result()

    def _execute_create_view(self, conn: Connection, stmt: CreateViewStmt,
                             txn, sql: str | None) -> Result:
        # Dry-run the stored SELECT so bad definitions (unknown tables,
        # duplicate output names) fail at CREATE VIEW time, not first use.
        probe = conn.executor.execute_select(stmt.select)
        seen: set[str] = set()
        for label in probe.columns:
            if label in seen:
                raise CatalogError(
                    f"view {stmt.name} has duplicate output column {label}; "
                    f"alias the select items"
                )
            seen.add(label)
        ddl_text = sql or f"CREATE VIEW {stmt.name} AS <select>"
        self.catalog.create_view(stmt.name, stmt.select, ddl_text)
        txn.record(("create_view", stmt.name), {"op": "ddl", "sql": ddl_text})
        return Result()

    def _execute_drop_view(self, stmt: DropViewStmt, txn) -> Result:
        if stmt.if_exists and not self.catalog.is_view(stmt.name):
            return Result()
        select = self.catalog.view_select(stmt.name)
        ddl_text = self.catalog.view_ddl(stmt.name)
        self.catalog.drop_view(stmt.name)
        txn.record(
            ("drop_view", stmt.name, select, ddl_text),
            {"op": "ddl", "sql": f"DROP VIEW {stmt.name}"},
        )
        return Result()

    def _execute_alter_table(self, stmt: AlterTableStmt, txn, sql: str | None) -> Result:
        # Schema changes are not row-undoable; autocommit only, like DROP.
        if txn.explicit:
            raise TransactionError(
                "ALTER TABLE is not allowed inside a transaction"
            )
        table = self._writable_table(stmt.table)
        if stmt.action == "add":
            table.add_column(stmt.column)
        else:
            column = table.schema.column(stmt.column_name)
            dropped = table.drop_column(stmt.column_name)
            if column.is_datalink:
                # dropping a DATALINK column releases every linked file
                for value in dropped:
                    if value is not None:
                        self._hooks.on_remove_link(
                            stmt.table, column.name, value,
                            column.type.spec, txn,
                        )
        rendered = sql or f"ALTER TABLE {stmt.table} ..."
        txn.redo.append({"op": "ddl", "sql": rendered})
        return Result()

    def _execute_drop_table(self, stmt: DropTableStmt, txn) -> Result:
        if self.catalog.is_system_table(stmt.name):
            raise CatalogError(f"{stmt.name} is a read-only system catalog view")
        if stmt.if_exists and not self.catalog.has_table(stmt.name):
            return Result()
        table = self.catalog.table(stmt.name)
        if len(table):
            # Dropping a populated table must release datalinked files.
            for column in table.schema.datalink_columns:
                index = table.schema.column_index(column.name)
                for _rowid, row in table.scan():
                    value = row[index]
                    if value is not None:
                        self._hooks.on_remove_link(
                            stmt.name, column.name, value, column.type.spec, txn
                        )
        # DROP TABLE is not undoable row-by-row; forbid inside explicit txns.
        if txn.explicit:
            raise TransactionError("DROP TABLE is not allowed inside a transaction")
        self.catalog.drop_table(stmt.name)
        txn.redo.append({"op": "ddl", "sql": f"DROP TABLE {stmt.name}"})
        return Result()

    def _execute_create_index(self, conn: Connection, stmt: CreateIndexStmt,
                              txn, sql: str | None) -> Result:
        table = self._writable_table(stmt.table)
        index_cls = HashIndex if stmt.unique else SortedIndex
        index = index_cls(stmt.name, stmt.columns, unique=stmt.unique)
        table.add_index(index)
        self.catalog.register_index(stmt.name, stmt.table)
        rendered = sql or (
            f"CREATE {'UNIQUE ' if stmt.unique else ''}INDEX {stmt.name} "
            f"ON {stmt.table} ({', '.join(stmt.columns)})"
        )
        conn.txns.record_ddl(txn, ("create_index", stmt.name), rendered)
        return Result()

    def _execute_drop_index(self, stmt: DropIndexStmt) -> Result:
        self.catalog.drop_index(stmt.name)
        return Result()

    # -- DML -----------------------------------------------------------------------

    def _writable_table(self, name: str):
        if self.catalog.is_system_table(name):
            raise CatalogError(f"{name} is a read-only system catalog view")
        return self.catalog.table(name)

    def _execute_insert(self, conn: Connection, stmt: InsertStmt,
                        params: Sequence[Any], txn) -> Result:
        table = self._writable_table(stmt.table)
        schema = table.schema
        count = 0
        if stmt.select is not None:
            source = conn.executor.execute_select(stmt.select, params)
            value_rows: list[list[Any]] = [list(row) for row in source.rows]
        else:
            value_rows = [
                [expr.evaluate({}, params) for expr in row_exprs]
                for row_exprs in stmt.rows
            ]
        for values in value_rows:
            if stmt.columns is not None:
                full = schema.apply_defaults(stmt.columns, values)
            else:
                if len(values) != len(schema.columns):
                    raise SqlSyntaxError(
                        f"INSERT supplies {len(values)} values for "
                        f"{len(schema.columns)} columns"
                    )
                full = list(values)
            validated = schema.validate_row(full)
            self._check_foreign_keys_child(schema, validated)
            self._check_checks(schema, validated)
            for column in schema.datalink_columns:
                value = validated[schema.column_index(column.name)]
                if value is not None:
                    self._hooks.on_insert_link(
                        schema.name, column.name, value, column.type.spec, txn
                    )
            rowid = table.insert_valid(validated)
            conn.txns.record_insert(txn, schema.name, rowid, validated)
            count += 1
        return Result(rowcount=count)

    def _execute_update(self, conn: Connection, stmt: UpdateStmt,
                        params: Sequence[Any], txn) -> Result:
        table = self._writable_table(stmt.table)
        schema = table.schema
        where, assignments = self._dml_closures(stmt, schema)
        # UPDATE predicates and SET values may contain (uncorrelated)
        # subqueries.
        exprs = [expr for _, expr in stmt.assignments]
        if stmt.where is not None:
            exprs.insert(0, stmt.where)
        params = conn.executor.bind_subqueries(exprs, params)
        targets = self._matching_rows(conn, table, stmt.where, where, params)
        count = 0
        for rowid, old_row in targets:
            new_row = list(old_row)
            for column_name, value in assignments:
                index = schema.column_index(column_name)
                new_row[index] = value(old_row, params)
            validated = schema.validate_row(new_row)
            if validated == old_row:
                count += 1
                continue
            self._check_foreign_keys_child(schema, validated)
            self._check_foreign_keys_parent_change(schema, old_row, validated)
            self._check_checks(schema, validated)
            for column in schema.datalink_columns:
                index = schema.column_index(column.name)
                old_value, new_value = old_row[index], validated[index]
                if old_value == new_value:
                    continue
                if old_value is not None:
                    self._hooks.on_remove_link(
                        schema.name, column.name, old_value, column.type.spec, txn
                    )
                if new_value is not None:
                    self._hooks.on_insert_link(
                        schema.name, column.name, new_value, column.type.spec, txn
                    )
            table.update_valid(rowid, validated)
            conn.txns.record_update(txn, schema.name, rowid, old_row, validated)
            count += 1
        return Result(rowcount=count)

    def _execute_delete(self, conn: Connection, stmt: DeleteStmt,
                        params: Sequence[Any], txn) -> Result:
        table = self._writable_table(stmt.table)
        schema = table.schema
        where, _ = self._dml_closures(stmt, schema)
        if stmt.where is not None:
            params = conn.executor.bind_subqueries([stmt.where], params)
        targets = self._matching_rows(conn, table, stmt.where, where, params)
        count = 0
        for rowid, row in targets:
            self._check_foreign_keys_parent_delete(schema, row)
            for column in schema.datalink_columns:
                value = row[schema.column_index(column.name)]
                if value is not None:
                    self._hooks.on_remove_link(
                        schema.name, column.name, value, column.type.spec, txn
                    )
            removed = table.delete(rowid)
            conn.txns.record_delete(txn, schema.name, rowid, removed)
            count += 1
        return Result(rowcount=count)

    def _matching_rows(self, conn: Connection, table, where: Expression | None,
                       test, params: Sequence[Any]) -> list[tuple[int, tuple]]:
        """UPDATE/DELETE targets as ``(rowid, row)``, read through the
        executor's access path (the one SELECT uses) before any change;
        ``test`` is ``where`` compiled by :meth:`_dml_closures`."""
        if where is None:
            return list(conn.executor.access_path(table, where, params))
        return [
            (rowid, row)
            for rowid, row in conn.executor.access_path(table, where, params)
            if test(row, params) is True
        ]

    @staticmethod
    def _dml_closures(stmt: UpdateStmt | DeleteStmt, schema: TableSchema):
        """The statement's WHERE and SET expressions compiled against the
        table's stored rows (bare or table-qualified column names).  Kept
        on the statement and recompiled when the table's columns change."""
        names = tuple(schema.column_names)
        cached = stmt.compiled
        if cached is not None and cached[0] == names:
            return cached[1], cached[2]
        offsets = {name: i for i, name in enumerate(names)}
        offsets.update({f"{schema.name}.{name}": i for i, name in enumerate(names)})
        binder = PositionalBinder(offsets)
        where = stmt.where.compile(binder) if stmt.where is not None else None
        assignments = [
            (column, expr.compile(binder))
            for column, expr in getattr(stmt, "assignments", ())
        ]
        stmt.compiled = (names, where, assignments)
        return where, assignments

    # -- constraint enforcement ---------------------------------------------------

    def _check_foreign_keys_child(self, schema: TableSchema, row: tuple) -> None:
        """Every FK value in ``row`` must have a parent (or be NULL)."""
        for fk in schema.foreign_keys:
            key = schema.key_of(row, fk.columns)
            if any(part is None for part in key):
                continue
            parent = self.catalog.table(fk.ref_table)
            index = parent.index_on(fk.ref_columns, require_unique=True)
            if index is not None:
                if index.contains(key):
                    continue
            else:  # pragma: no cover - FKs must target PK/unique, so indexed
                parent_schema = parent.schema
                if any(
                    parent_schema.key_of(prow, fk.ref_columns) == key
                    for _rid, prow in parent.scan()
                ):
                    continue
            raise ForeignKeyViolation(
                f"{schema.name}({', '.join(fk.columns)}) = {key!r} has no "
                f"matching row in {fk.ref_table}"
            )

    def _referencing_children(self, schema: TableSchema, key_columns, key: tuple):
        """Yield (child_table_name, fk) pairs that hold a reference to
        ``key`` in ``schema`` via ``key_columns``."""
        for child_name, fk in self.catalog.references_to(schema.name):
            if tuple(fk.ref_columns) != tuple(key_columns):
                continue
            child = self.catalog.table(child_name)
            index = child.index_on(fk.columns)
            if index is not None:
                if index.contains(key):
                    yield child_name, fk
            else:  # pragma: no cover - FK columns are auto-indexed
                child_schema = child.schema
                if any(
                    child_schema.key_of(crow, fk.columns) == key
                    for _rid, crow in child.scan()
                ):
                    yield child_name, fk

    def _check_foreign_keys_parent_delete(self, schema: TableSchema, row: tuple) -> None:
        """RESTRICT: a referenced parent row cannot be deleted."""
        for key_columns in [schema.primary_key, *schema.unique_sets]:
            if not key_columns:
                continue
            key = schema.key_of(row, key_columns)
            if any(part is None for part in key):
                continue
            for child_name, fk in self._referencing_children(schema, key_columns, key):
                raise ForeignKeyViolation(
                    f"cannot delete from {schema.name}: key {key!r} is "
                    f"referenced by {child_name}({', '.join(fk.columns)})"
                )

    def _check_foreign_keys_parent_change(
        self, schema: TableSchema, old_row: tuple, new_row: tuple
    ) -> None:
        """RESTRICT: a referenced key cannot be changed away from."""
        for key_columns in [schema.primary_key, *schema.unique_sets]:
            if not key_columns:
                continue
            old_key = schema.key_of(old_row, key_columns)
            new_key = schema.key_of(new_row, key_columns)
            if old_key == new_key or any(part is None for part in old_key):
                continue
            for child_name, fk in self._referencing_children(schema, key_columns, old_key):
                raise ForeignKeyViolation(
                    f"cannot update {schema.name}: key {old_key!r} is "
                    f"referenced by {child_name}({', '.join(fk.columns)})"
                )

    def _check_checks(self, schema: TableSchema, row: tuple) -> None:
        if not schema.checks:
            return
        env = dict(zip(schema.column_names, row))
        env.update(
            (f"{schema.name}.{name}", value)
            for name, value in zip(schema.column_names, row)
        )
        for check in schema.checks:
            value = check.evaluate(env, ())
            if value is False:  # NULL passes, per SQL
                raise CheckViolation(
                    f"CHECK constraint failed on {schema.name}"
                )

    # -- SELECT -----------------------------------------------------------------------

    def _execute_union(self, stmt: UnionStmt, params: Sequence[Any],
                       pushdown: bool, executor: Executor) -> Result:
        """UNION / UNION ALL over compatible selects.

        Column labels come from the first select; every branch must yield
        the same column count.  Plain UNION removes duplicate rows.
        """
        first = self._select_result(stmt.selects[0], params, pushdown, executor)
        rows = list(first.rows)
        for branch in stmt.selects[1:]:
            branch_result = self._select_result(branch, params, pushdown, executor)
            if len(branch_result.columns) != len(first.columns):
                raise SqlSyntaxError(
                    f"UNION branches have {len(first.columns)} and "
                    f"{len(branch_result.columns)} columns"
                )
            rows.extend(branch_result.rows)
        if not stmt.all_rows:
            from repro.sqldb.storage import _NullsFirstKey

            seen: set = set()
            deduped = []
            for row in rows:
                key = tuple(_NullsFirstKey((v,)) for v in row)
                if key not in seen:
                    seen.add(key)
                    deduped.append(row)
            rows = deduped
        return Result(first.columns, rows, rowcount=len(rows))

    def _select_result(self, stmt: SelectStmt, params: Sequence[Any],
                       pushdown: bool, executor: Executor) -> Result:
        result = executor.execute_select(stmt, params, optimize=pushdown)
        rows = self._decorate_datalinks(result)
        return Result(result.columns, rows, rowcount=len(rows), plan=result.plan)

    def _decorate_datalinks(self, result: SelectResult) -> list[tuple]:
        """Attach access tokens (and sizes) to DATALINK values in results."""
        specs: list[Any] = []
        any_datalink = False
        for item in result.items:
            spec = None
            expr = item.expr
            if isinstance(expr, ColumnRef):
                table_name = (
                    result.alias_tables.get(expr.table)
                    if expr.table
                    else self._single_table_owner(result, expr.column)
                )
                if table_name and self.catalog.has_table(table_name):
                    schema = self.catalog.schema(table_name)
                    if schema.has_column(expr.column):
                        column = schema.column(expr.column)
                        if column.is_datalink:
                            spec = column.type.spec
                            any_datalink = True
            specs.append(spec)
        if not any_datalink:
            # Still decorate loose DatalinkValues (computed expressions).
            return result.rows
        out = []
        for row in result.rows:
            new_row = list(row)
            for i, spec in enumerate(specs):
                value = new_row[i]
                if spec is not None and isinstance(value, DatalinkValue):
                    new_row[i] = self._hooks.decorate(value, spec, self.current_user)
            out.append(tuple(new_row))
        return out

    def _single_table_owner(self, result: SelectResult, column: str) -> str | None:
        owners = [
            name
            for name in set(result.alias_tables.values())
            if self.catalog.has_table(name)
            and self.catalog.schema(name).has_column(column)
        ]
        return owners[0] if len(owners) == 1 else None

    # -- durability ----------------------------------------------------------------------

    def close(self) -> None:
        """Release the write-ahead log's open file (a later commit reopens
        it).  A no-op for an in-memory database."""
        if self._wal is not None:
            self._wal.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def checkpoint(self) -> None:
        """Serialise the full database state and truncate the WAL.

        Holds the writer lock for the duration so the snapshot captures a
        committed state with no writer mid-transaction.  Must not be
        called by a thread already holding the lock (the lock is not
        reentrant) — i.e. not from inside an explicit transaction.
        """
        if self._wal is None:
            raise RecoveryUnavailable()
        self.writer_lock.acquire()
        try:
            snapshot = {
                "ddl": self.catalog.ddl_script(),
                "indexes": self._user_indexes_ddl(),
                "tables": {
                    table.schema.name: WriteAheadLog.encode_table_rows(table.scan())
                    for table in self.catalog.tables()
                },
            }
            self._wal.write_checkpoint(snapshot)
        finally:
            self.writer_lock.release()

    def _user_indexes_ddl(self) -> list[str]:
        out = []
        for table in self.catalog.tables():
            for name, index in table.indexes.items():
                if name.startswith(("PK_", "UQ_", "IX_")):
                    continue
                unique = "UNIQUE " if index.unique else ""
                out.append(
                    f"CREATE {unique}INDEX {name} ON {table.schema.name} "
                    f"({', '.join(index.columns)})"
                )
        return out

    def _recover(self) -> None:
        """Load the checkpoint (if any) then replay the WAL.

        Replay is idempotent: v2 records carry an LSN, and any record at
        or below the checkpoint's watermark is already part of the
        snapshot, so it is skipped instead of double-applied (the crash
        window between checkpoint rename and WAL truncation).  A torn
        final record is truncated away so later appends start clean.
        """
        assert self._wal is not None
        obs = self._obs or get_observability()
        if not obs.enabled:
            self._recover_inner()
            return
        with obs.tracer.span(
            "wal.recovery", directory=self._wal.directory
        ) as span:
            self._recover_inner()
        span.set(**self.recovery_stats)
        metrics = obs.metrics
        metrics.counter("wal.recovery.runs").inc()
        metrics.counter("wal.recovery.replayed_txns").inc(
            self.recovery_stats["replayed_txns"]
        )
        metrics.counter("wal.recovery.skipped_stale").inc(
            self.recovery_stats["skipped_stale"]
        )
        if self.recovery_stats["torn_tail_bytes"]:
            metrics.counter("wal.recovery.torn_tail_bytes").inc(
                self.recovery_stats["torn_tail_bytes"]
            )
        obs.events.emit("wal.recovery", **self.recovery_stats)

    def _recover_inner(self) -> None:
        from repro.sqldb.parser import parse_script

        checkpoint = self._wal.read_checkpoint()
        if checkpoint is not None:
            for ddl_stmt in parse_script(checkpoint["ddl"]):
                self._apply_recovered_ddl(ddl_stmt)
            for index_sql in checkpoint.get("indexes", []):
                self._apply_recovered_ddl(parse_sql(index_sql))
            for table_name, entries in checkpoint["tables"].items():
                table = self.catalog.table(table_name)
                for rowid, row in WriteAheadLog.decode_table_rows(entries):
                    table.insert(row, rowid)
        watermark = self._wal.checkpoint_lsn
        replayed = skipped = 0
        for lsn, _txn_id, ops in self._wal.iter_transactions():
            if lsn is not None and lsn <= watermark:
                skipped += 1  # already captured by the checkpoint snapshot
                continue
            for op in ops:
                self._replay(op)
            replayed += 1
        torn_bytes = self._wal.repair_torn_tail()
        # Rows loaded above were stamped at the pending sequence while the
        # clock sat at 0; one commit makes the entire recovered state the
        # first committed snapshot.
        self.catalog.clock.commit()
        self.recovery_stats = {
            "replayed_txns": replayed,
            "skipped_stale": skipped,
            "torn_tail_bytes": torn_bytes,
            "checkpoint_lsn": watermark,
            "epoch": self._wal.epoch,
        }

    def _apply_recovered_ddl(self, stmt: Statement, sql_text: str | None = None) -> None:
        if isinstance(stmt, CreateViewStmt):
            self.catalog.create_view(
                stmt.name,
                stmt.select,
                sql_text or f"CREATE VIEW {stmt.name} AS <select>",
            )
            return
        if isinstance(stmt, DropViewStmt):
            if self.catalog.is_view(stmt.name):
                self.catalog.drop_view(stmt.name)
            return
        if isinstance(stmt, AlterTableStmt):
            table = self.catalog.table(stmt.table)
            if stmt.action == "add":
                table.add_column(stmt.column)
            else:
                table.drop_column(stmt.column_name)
            return
        if isinstance(stmt, CreateTableStmt):
            schema = TableSchema(
                stmt.name,
                stmt.columns,
                primary_key=stmt.primary_key,
                foreign_keys=stmt.foreign_keys,
                unique_sets=stmt.unique_sets,
                checks=stmt.checks,
            )
            self.catalog.create_table(schema)
        elif isinstance(stmt, CreateIndexStmt):
            table = self.catalog.table(stmt.table)
            index_cls = HashIndex if stmt.unique else SortedIndex
            table.add_index(index_cls(stmt.name, stmt.columns, unique=stmt.unique))
            self.catalog.register_index(stmt.name, stmt.table)
        elif isinstance(stmt, DropTableStmt):
            if self.catalog.has_table(stmt.name):
                self.catalog.drop_table(stmt.name)
        elif isinstance(stmt, DropIndexStmt):
            self.catalog.drop_index(stmt.name)
        else:  # pragma: no cover - only DDL reaches here
            raise CatalogError(f"unexpected recovered statement {stmt}")

    def _replay(self, op: dict) -> None:
        kind = op["op"]
        if kind == "ddl":
            self._apply_recovered_ddl(parse_sql(op["sql"]), op["sql"])
            return
        table = self.catalog.table(op["table"])
        if kind == "insert":
            table.insert(op["row"], op["rowid"])
        elif kind == "delete":
            table.delete(op["rowid"])
        elif kind == "update":
            table.update(op["rowid"], op["row"])
        else:  # pragma: no cover - defensive
            raise CatalogError(f"unknown WAL op {kind!r}")

    # -- introspection ----------------------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        return self._txns.in_explicit_transaction

    def table_names(self) -> list[str]:
        return self.catalog.table_names()


class RecoveryUnavailable(TransactionError):
    def __init__(self) -> None:
        super().__init__("checkpoint requires a durable (directory-backed) database")


class _TransactionContext:
    def __init__(self, db: Database) -> None:
        self._db = db

    def __enter__(self) -> Database:
        self._db.execute("BEGIN")
        return self._db

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            self._db.execute("COMMIT")
        else:
            if self._db.in_transaction:
                self._db.execute("ROLLBACK")
        return False
