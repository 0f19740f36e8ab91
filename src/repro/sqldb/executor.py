"""SELECT execution: scans, index lookups, joins, grouping and ordering.

The executor materialises joined row *environments* (dicts mapping
``ALIAS.COLUMN`` — plus unambiguous bare column names — to values) and
evaluates expressions against them.  This keeps evaluation uniform between
WHERE clauses, join conditions, select items, CHECK constraints and the
operations layer's XUIS ``<condition>`` elements, which reuse the same
expression engine.

Planning is cost-aware where it matters for the EASIA workloads:

* WHERE conjuncts are *pushed down* to the earliest pipeline position
  whose tables cover their columns, so scans and early joins filter rows
  instead of the full join product being filtered at the end;
* equi-joins with no usable index run as **hash joins** (build on the
  inner side, probe with the outer stream) instead of O(n·m) nested loops;
* inequality / BETWEEN / LIKE-prefix predicates drive
  :meth:`SortedIndex.range_scan` instead of forcing sequential scans;
* ``ORDER BY ... LIMIT k`` keeps a **top-N heap** instead of sorting the
  full result, and ``LIMIT`` without ORDER BY stops producing rows early;
* DISTINCT deduplicates through a hash set, and uncorrelated IN
  subqueries are hashed semi-joins (see :mod:`repro.sqldb.expressions`).

Every operator announces itself in the ``plan`` list (EXPLAIN) and counts
rows through :class:`_StepStats` under EXPLAIN ANALYZE.  Passing
``optimize=False`` (the ``pushdown=off`` escape hatch on
``Database.execute``) disables all of the above and runs the naive
nested-loop / filter-at-the-end path, which the differential tests compare
against.
"""

from __future__ import annotations

from heapq import nsmallest
from itertools import islice
from time import perf_counter
from typing import Any, Callable, Iterator, Sequence

from repro.errors import CatalogError, SqlSyntaxError
from repro.sqldb.expressions import (
    AggregateCall,
    ColumnRef,
    ExistsSubquery,
    Expression,
    InSubquery,
    Star,
    Subquery,
    hash_key,
    truthy,
)
from repro.sqldb.parser.ast_nodes import Join, SelectItem, SelectStmt, TableRef
from repro.sqldb.planner import (
    assign_filters,
    conjuncts,
    constant_equalities,
    describe,
    join_equalities,
    range_bounds,
    single_alias_filters,
)
from repro.sqldb.storage import SortedIndex, _NullsFirstKey

__all__ = ["Executor", "SelectResult"]


class SelectResult:
    """Materialised result of a SELECT: column names plus row tuples."""

    def __init__(
        self,
        columns: list[str],
        rows: list[tuple],
        plan: list[str],
        items: list[SelectItem] | None = None,
        alias_tables: dict[str, str] | None = None,
        step_stats: "dict[int, _StepStats] | None" = None,
    ) -> None:
        self.columns = columns
        self.rows = rows
        #: access-path descriptions, surfaced through Database.explain()
        self.plan = plan
        #: expanded select items (stars resolved); lets the database layer
        #: map output columns back to source table columns (for DATALINK
        #: token decoration and the web layer's browse links)
        self.items = items or []
        #: FROM-clause alias -> real table name
        self.alias_tables = alias_tables or {}
        #: plan-index -> measured rows/seconds, populated by EXPLAIN ANALYZE
        self.step_stats = step_stats


class _StepStats:
    """Measured output of one plan step under EXPLAIN ANALYZE.

    ``seconds`` is cumulative: pulling a row from step N drives every step
    upstream of it, so each entry reports the time spent producing that
    step's output including its inputs."""

    __slots__ = ("rows", "seconds")

    def __init__(self) -> None:
        self.rows = 0
        self.seconds = 0.0


def _timed_iter(iterator: Iterator, stats: _StepStats) -> Iterator:
    """Count rows and accumulate the time spent inside ``next()``."""
    iterator = iter(iterator)
    while True:
        started = perf_counter()
        try:
            item = next(iterator)
        except StopIteration:
            stats.seconds += perf_counter() - started
            return
        stats.seconds += perf_counter() - started
        stats.rows += 1
        yield item


class _BoundTable:
    """A FROM-clause entry resolved against the catalog."""

    __slots__ = ("alias", "table", "schema", "join_kind", "join_on")

    def __init__(self, alias: str, table, join_kind: str | None = None,
                 join_on: Expression | None = None) -> None:
        self.alias = alias
        self.table = table
        self.schema = table.schema
        self.join_kind = join_kind  # None for the first table / cross joins
        self.join_on = join_on


class Executor:
    def __init__(self, catalog) -> None:
        self._catalog = catalog
        self._expanding_views: set[str] = set()
        #: view name -> materialised transient Table, valid for the duration
        #: of one top-level statement (a self-joined or re-referenced view
        #: runs its stored SELECT once, not per reference)
        self._view_cache: dict[str, Any] = {}
        self._depth = 0
        #: statement-level optimiser switch, set on execute_select entry;
        #: view materialisation and subquery execution inherit it
        self._optimize = True
        #: lifetime count of rows examined by scans and lookups (including
        #: view materialisation and subqueries); the database layer
        #: snapshots deltas around each statement for metrics
        self.rows_scanned = 0
        #: lifetime count of rows removed by pushed-down filters before the
        #: end of the join pipeline (obs: sqldb.scan.pushdown_filtered)
        self.pushdown_filtered = 0
        #: lifetime count of rows hashed into join build tables
        #: (obs: sqldb.join.hash_build_rows)
        self.hash_build_rows = 0
        #: lifetime count of view SELECTs actually executed (cache misses)
        self.view_materialisations = 0

    # -- public ----------------------------------------------------------------

    def execute_select(
        self, stmt: SelectStmt, params: Sequence[Any] = (),
        analyze: bool = False, optimize: bool = True,
    ) -> SelectResult:
        if self._depth == 0:
            self._optimize = optimize
        optimize = self._optimize
        self._depth += 1
        try:
            return self._execute_select(stmt, params, analyze, optimize)
        finally:
            self._depth -= 1
            if self._depth == 0:
                self._view_cache.clear()

    def _execute_select(
        self, stmt: SelectStmt, params: Sequence[Any],
        analyze: bool, optimize: bool,
    ) -> SelectResult:
        plan: list[str] = []
        step_stats: dict[int, _StepStats] | None = None
        instrument: Callable[[Iterator[dict]], Iterator[dict]] | None = None
        if analyze:
            step_stats = {}

            def instrument(envs: Iterator[dict]) -> Iterator[dict]:
                """Attach a timing probe to the plan entry appended last."""
                stats = _StepStats()
                step_stats[len(plan) - 1] = stats
                return _timed_iter(envs, stats)

        self.bind_subqueries(
            self._statement_expressions(stmt), params,
            plan=plan if optimize else None,
        )
        bound = self._bind_tables(stmt)

        where_conjuncts = conjuncts(stmt.where)
        if bound:
            unambiguous = self._unambiguous_columns(bound)
            if optimize:
                stage_filters, residual = assign_filters(
                    where_conjuncts, [b.alias for b in bound], unambiguous
                )
            else:
                stage_filters = [[] for _ in bound]
                residual = where_conjuncts
            envs = self._produce_envs(
                stmt, bound, unambiguous, params, plan, instrument,
                optimize, stage_filters,
            )
        else:
            # SELECT without FROM: a single empty environment.
            envs = iter([{}])
            residual = where_conjuncts
            plan.append("no FROM clause: single empty row")
            if instrument is not None:
                envs = instrument(envs)

        if residual:
            envs = (
                env for env in envs
                if all(truthy(p.evaluate(env, params)) for p in residual)
            )

        items = self._expand_items(stmt, bound)
        grouped = bool(stmt.group_by) or any(
            item.expr is not None and item.expr.contains_aggregate()
            for item in items
        ) or (stmt.having is not None and stmt.having.contains_aggregate())

        if grouped:
            # GROUP BY may name a select-list alias, like ORDER BY.
            alias_exprs = {
                item.alias: item.expr for item in items if item.alias
            }
            group_exprs = []
            for expr in stmt.group_by:
                if (
                    isinstance(expr, ColumnRef)
                    and expr.table is None
                    and expr.column in alias_exprs
                ):
                    expr = alias_exprs[expr.column]
                group_exprs.append(expr)
            envs = self._group(stmt, items, envs, params, group_exprs)
            plan.append(
                f"hash aggregate on {len(stmt.group_by)} grouping expression(s)"
            )
            if instrument is not None:
                envs = instrument(envs)
        elif stmt.having is not None:
            raise SqlSyntaxError("HAVING requires GROUP BY or aggregates")

        columns = [self._item_label(item, i) for i, item in enumerate(items)]
        evaluated: Iterator[tuple[dict, tuple]] = (
            (env, tuple(item.expr.evaluate(env, params) for item in items))
            for env in envs
        )

        if stmt.distinct:
            plan.append("distinct (hash)")
            evaluated = self._distinct(evaluated)
            if instrument is not None:
                evaluated = _timed_iter(evaluated, self._stats_slot(step_stats, plan))

        offset = stmt.offset or 0
        if stmt.order_by:
            order_key = self._order_key(stmt, items, params)
            if optimize and stmt.limit is not None:
                top = stmt.limit + offset
                plan.append(
                    f"top-N sort (N={top}) on "
                    f"{len(stmt.order_by)} key(s)"
                )
                started = perf_counter()
                output = nsmallest(top, evaluated, key=order_key)
                self._record_step(step_stats, plan, len(output),
                                  perf_counter() - started)
            else:
                plan.append(f"sort on {len(stmt.order_by)} key(s)")
                started = perf_counter()
                output = sorted(evaluated, key=order_key)
                self._record_step(step_stats, plan, len(output),
                                  perf_counter() - started)
            rows = [row for _env, row in output]
            rows = rows[offset:]
            if stmt.limit is not None:
                rows = rows[: stmt.limit]
        elif optimize and stmt.limit is not None:
            plan.append(f"limit {stmt.limit} (early stop)")
            rows = [
                row for _env, row in islice(
                    evaluated, offset, offset + stmt.limit
                )
            ]
            self._record_step(step_stats, plan, len(rows), 0.0)
        else:
            rows = [row for _env, row in evaluated]
            rows = rows[offset:]
            if stmt.limit is not None:
                rows = rows[: stmt.limit]

        alias_tables = {b.alias: b.schema.name for b in bound}
        return SelectResult(
            columns, rows, plan, items, alias_tables, step_stats=step_stats
        )

    # -- result-shaping helpers -------------------------------------------------

    @staticmethod
    def _stats_slot(step_stats, plan: list[str]) -> _StepStats:
        stats = _StepStats()
        if step_stats is not None:
            step_stats[len(plan) - 1] = stats
        return stats

    @staticmethod
    def _record_step(step_stats, plan: list[str], rows: int,
                     seconds: float) -> None:
        if step_stats is None:
            return
        stats = _StepStats()
        stats.rows = rows
        stats.seconds = seconds
        step_stats[len(plan) - 1] = stats

    @staticmethod
    def _distinct(
        evaluated: Iterator[tuple[dict, tuple]]
    ) -> Iterator[tuple[dict, tuple]]:
        """Set-based DISTINCT over hashable NULLs-first keys (O(n), not the
        quadratic list-membership scan)."""
        seen: set[tuple] = set()
        for env, row in evaluated:
            key = tuple(_NullsFirstKey((v,)) for v in row)
            if key not in seen:
                seen.add(key)
                yield env, row

    def _order_key(self, stmt: SelectStmt, items: list[SelectItem],
                   params: Sequence[Any]):
        # ORDER BY may name a select-list alias (ORDER BY n for
        # "COUNT(*) AS n"); resolve those to the aliased expression.
        alias_exprs = {item.alias: item.expr for item in items if item.alias}
        order_exprs = []
        for order in stmt.order_by:
            expr = order.expr
            if (
                isinstance(expr, ColumnRef)
                and expr.table is None
                and expr.column in alias_exprs
            ):
                expr = alias_exprs[expr.column]
            order_exprs.append((expr, order.ascending))

        def order_key(pair):
            env, _row = pair
            return tuple(
                _SortPart(
                    _NullsFirstKey((expr.evaluate(env, params),)),
                    ascending,
                )
                for expr, ascending in order_exprs
            )

        return order_key

    # -- subquery materialisation ---------------------------------------------

    @staticmethod
    def _statement_expressions(stmt: SelectStmt) -> list[Expression]:
        out: list[Expression] = []
        for item in stmt.items:
            if item.expr is not None:
                out.append(item.expr)
        for join in stmt.joins:
            if join.on is not None:
                out.append(join.on)
        if stmt.where is not None:
            out.append(stmt.where)
        out.extend(stmt.group_by)
        if stmt.having is not None:
            out.append(stmt.having)
        out.extend(order.expr for order in stmt.order_by)
        return out

    def bind_subqueries(
        self, exprs: list[Expression], params: Sequence[Any],
        plan: list[str] | None = None,
    ) -> None:
        """Materialise every (uncorrelated) subquery once per execution.

        Nested subqueries are handled by the recursive execute_select call;
        a correlated subquery surfaces as an unknown-column error from its
        standalone execution.  When a ``plan`` list is supplied, IN/EXISTS
        materialisations announce themselves (the hashed semi-join path).
        """
        for expr in exprs:
            for node in expr.walk():
                if isinstance(node, (Subquery, InSubquery, ExistsSubquery)):
                    result = self.execute_select(node.select, params)
                    node.bind(result.rows)
                    if plan is None:
                        continue
                    if isinstance(node, InSubquery):
                        plan.append(
                            f"hashed semi-join: IN (subquery) with "
                            f"{len(result.rows)} key(s)"
                        )
                    elif isinstance(node, ExistsSubquery):
                        plan.append(
                            f"semi-join: EXISTS (subquery), "
                            f"{len(result.rows)} row(s)"
                        )

    # -- binding ------------------------------------------------------------------

    def _bind_tables(self, stmt: SelectStmt) -> list[_BoundTable]:
        bound: list[_BoundTable] = []
        seen_aliases: set[str] = set()

        def bind(ref: TableRef, kind: str | None, on: Expression | None) -> None:
            if ref.alias in seen_aliases:
                raise CatalogError(f"duplicate table alias {ref.alias}")
            seen_aliases.add(ref.alias)
            bound.append(
                _BoundTable(ref.alias, self._resolve_relation(ref.name), kind, on)
            )

        for i, ref in enumerate(stmt.tables):
            bind(ref, None if i == 0 else "CROSS", None)
        for join in stmt.joins:
            bind(join.table, join.kind, join.on)
        return bound

    def _resolve_relation(self, name: str):
        """A FROM-clause name is either a base table or a view; views are
        materialised into a transient table by running their stored SELECT
        (once per statement — repeated references hit ``_view_cache``)."""
        name = name.upper()
        if not self._catalog.is_view(name):
            return self._catalog.table(name)
        cached = self._view_cache.get(name)
        if cached is not None:
            return cached
        if name in self._expanding_views:
            raise CatalogError(f"view {name} is recursively defined")
        from repro.sqldb.schema import Column, TableSchema
        from repro.sqldb.types import AnyType

        self._expanding_views.add(name)
        try:
            result = self.execute_select(self._catalog.view_select(name))
        finally:
            self._expanding_views.discard(name)
        seen: set[str] = set()
        columns = []
        for label in result.columns:
            if label in seen:
                raise CatalogError(
                    f"view {name} has duplicate output column {label}; "
                    f"alias the select items"
                )
            seen.add(label)
            columns.append(Column(label, AnyType()))
        from repro.sqldb.storage import Table

        table = Table(TableSchema(name, columns))
        for row in result.rows:
            table.insert(row)
        self.view_materialisations += 1
        self._view_cache[name] = table
        return table

    @staticmethod
    def _unambiguous_columns(bound: list[_BoundTable]) -> dict[str, str]:
        """Map bare column name -> owning alias when unique across tables."""
        counts: dict[str, list[str]] = {}
        for entry in bound:
            for name in entry.schema.column_names:
                counts.setdefault(name, []).append(entry.alias)
        return {
            name: aliases[0]
            for name, aliases in counts.items()
            if len(aliases) == 1
        }

    # -- row production --------------------------------------------------------------

    def _produce_envs(
        self,
        stmt: SelectStmt,
        bound: list[_BoundTable],
        unambiguous: dict[str, str],
        params: Sequence[Any],
        plan: list[str],
        instrument: Callable[[Iterator[dict]], Iterator[dict]] | None,
        optimize: bool,
        stage_filters: list[list[Expression]],
    ) -> Iterator[dict]:
        where_conjuncts = conjuncts(stmt.where)
        equalities = constant_equalities(where_conjuncts, params)
        ranges = range_bounds(where_conjuncts, params) if optimize else []

        def env_for(entry: _BoundTable, row: tuple | None) -> dict:
            env: dict[str, Any] = {}
            for i, name in enumerate(entry.schema.column_names):
                value = None if row is None else row[i]
                env[f"{entry.alias}.{name}"] = value
                if unambiguous.get(name) == entry.alias:
                    env[name] = value
            return env

        first = bound[0]
        base_rows = self._access_path(first, equalities, ranges, plan, optimize)
        envs: Iterator[dict] = (env_for(first, row) for _rowid, row in base_rows)
        if instrument is not None:
            envs = instrument(envs)
        envs = self._pushed_filters(
            envs, stage_filters[0], first.alias, params, plan, instrument
        )

        for position, entry in enumerate(bound[1:], start=1):
            filters = stage_filters[position]
            inner_only: list[Expression] = []
            kind = entry.join_kind or "CROSS"
            if optimize and filters and kind != "LEFT":
                inner_only, filters = single_alias_filters(
                    filters, entry.alias, unambiguous
                )
            envs = self._join_one(
                entry, envs, env_for, params, plan, optimize, inner_only
            )
            if instrument is not None:
                envs = instrument(envs)
            envs = self._pushed_filters(
                envs, filters, entry.alias, params, plan, instrument
            )
        return envs

    def _pushed_filters(
        self,
        envs: Iterator[dict],
        filters: list[Expression],
        alias: str,
        params: Sequence[Any],
        plan: list[str],
        instrument: Callable[[Iterator[dict]], Iterator[dict]] | None,
    ) -> Iterator[dict]:
        """Apply pushed-down WHERE conjuncts right after ``alias`` joins the
        pipeline, counting removed rows for the obs layer."""
        if not filters:
            return envs
        plan.append(
            f"filter pushdown at {alias}: "
            + " AND ".join(describe(f) for f in filters)
        )

        def generate() -> Iterator[dict]:
            for env in envs:
                if all(truthy(f.evaluate(env, params)) for f in filters):
                    yield env
                else:
                    self.pushdown_filtered += 1

        out: Iterator[dict] = generate()
        if instrument is not None:
            out = instrument(out)
        return out

    def access_path(self, table, where: Expression | None,
                    params: Sequence[Any]) -> Iterator[tuple[int, tuple]]:
        """``(rowid, row)`` candidates for ``WHERE where`` on one table —
        a superset of the matching rows — through the same access-path
        choice as SELECT.  UPDATE and DELETE pick their targets with it."""
        where_conjuncts = conjuncts(where)
        return self._access_path(
            _BoundTable(table.schema.name, table),
            constant_equalities(where_conjuncts, params),
            range_bounds(where_conjuncts, params),
            plan=[],
            optimize=True,
        )

    def _access_path(
        self,
        entry: _BoundTable,
        equalities: list[tuple[ColumnRef, Any]],
        ranges,
        plan: list[str],
        optimize: bool,
    ) -> Iterator[tuple[int, tuple]]:
        """Choose index point-lookup, range scan or sequential scan for a
        base table; yields ``(rowid, row)``.

        Collects every ``column = constant`` binding on this table, then
        looks for an index whose full key is covered — so composite
        primary keys (FILE_NAME, SIMULATION_KEY) get point lookups too.
        Failing that, a single-column sorted index whose column carries a
        range bound drives :meth:`SortedIndex.range_scan`; the originating
        predicate remains as a pushed filter, so the range is free to be a
        superset of the matching rows.
        """
        bound: dict[str, Any] = {}
        for ref, value in equalities:
            if not self._ref_on(entry, ref):
                continue
            try:
                bound[ref.column] = entry.schema.column(
                    ref.column
                ).type.validate(value)
            except Exception:
                continue  # incomparable constant: not usable for a lookup

        if bound:
            best = None
            for index in entry.table.indexes.values():
                if all(column in bound for column in index.columns):
                    if best is None or len(index.columns) > len(best.columns):
                        best = index
            if best is not None:
                key = tuple(bound[column] for column in best.columns)
                plan.append(
                    f"index lookup {entry.alias} via {best.name} "
                    f"({', '.join(best.columns)} = {key!r})"
                )
                rows = entry.table.lookup(best, key)
                self.rows_scanned += len(rows)
                return iter(rows)

        if optimize:
            scan = self._range_scan(entry, ranges, plan)
            if scan is not None:
                return scan

        plan.append(f"seq scan {entry.alias} ({len(entry.table)} rows)")
        self.rows_scanned += len(entry.table)
        return entry.table.scan()

    def _range_scan(self, entry: _BoundTable, ranges,
                    plan: list[str]) -> Iterator[tuple[int, tuple]] | None:
        """A sorted-index range scan for the first usable range bound."""
        for crange in ranges:
            ref = crange.ref
            if not self._ref_on(entry, ref):
                continue
            column_type = entry.schema.column(ref.column).type
            index = None
            for candidate in entry.table.indexes.values():
                if (
                    isinstance(candidate, SortedIndex)
                    and candidate.columns == (ref.column,)
                ):
                    index = candidate
                    break
            if index is None:
                continue
            try:
                low = (
                    (column_type.validate(crange.low),)
                    if crange.low is not None else None
                )
                high = (
                    (column_type.validate(crange.high),)
                    if crange.high is not None else None
                )
            except Exception:
                continue  # bound not comparable with the column type
            rows = entry.table.range_lookup(
                index, low, high,
                include_low=crange.include_low,
                include_high=crange.include_high,
            )
            plan.append(
                f"range scan {entry.alias} via {index.name} "
                f"({crange.describe()})"
            )
            self.rows_scanned += len(rows)
            return iter(rows)
        return None

    @staticmethod
    def _ref_on(entry: _BoundTable, ref: ColumnRef) -> bool:
        """Whether a (possibly bare) column reference addresses ``entry``."""
        if ref.table is not None and ref.table != entry.alias:
            return False
        if not entry.schema.has_column(ref.column):
            return False
        return True

    # -- joins -----------------------------------------------------------------

    def _join_one(
        self,
        entry: _BoundTable,
        outer_envs: Iterator[dict],
        env_for,
        params: Sequence[Any],
        plan: list[str],
        optimize: bool,
        inner_filters: list[Expression],
    ) -> Iterator[dict]:
        kind = entry.join_kind or "CROSS"
        keys = join_equalities(entry.join_on, entry.alias) if entry.join_on else []
        index = None
        key_pair = None
        for outer_ref, inner_ref in keys:
            candidate = entry.table.index_leading_on(inner_ref.column)
            if candidate is not None:
                index = candidate
                key_pair = (outer_ref, inner_ref)
                break
        if index is not None:
            filter_desc = (
                "; inner filter: "
                + " AND ".join(describe(f) for f in inner_filters)
                if inner_filters else ""
            )
            plan.append(
                f"index nested-loop join {entry.alias} via {index.name}"
                f"{filter_desc}"
            )
            return self._index_join(entry, outer_envs, env_for, params,
                                    index, key_pair, kind, inner_filters)
        if optimize and keys:
            return self._hash_join(entry, outer_envs, env_for, params,
                                   keys, kind, inner_filters, plan)
        return self._loop_join(entry, outer_envs, env_for, params,
                               kind, inner_filters, plan)

    def _index_join(self, entry, outer_envs, env_for, params,
                    index, key_pair, kind,
                    inner_filters: list[Expression]) -> Iterator[dict]:
        def generate() -> Iterator[dict]:
            for outer_env in outer_envs:
                matched = False
                outer_ref, _inner_ref = key_pair
                value = outer_ref.evaluate(outer_env, params)
                candidates = entry.table.lookup(index, (value,))
                self.rows_scanned += len(candidates)
                for _rowid, row in candidates:
                    inner_env = env_for(entry, row)
                    if inner_filters and not all(
                        truthy(f.evaluate(inner_env, params))
                        for f in inner_filters
                    ):
                        self.pushdown_filtered += 1
                        continue
                    env = {**outer_env, **inner_env}
                    if entry.join_on is not None and not truthy(
                        entry.join_on.evaluate(env, params)
                    ):
                        continue
                    matched = True
                    yield env
                if kind == "LEFT" and not matched:
                    yield {**outer_env, **env_for(entry, None)}

        return generate()

    def _hash_join(self, entry, outer_envs, env_for, params,
                   keys, kind, inner_filters, plan) -> Iterator[dict]:
        """Build a hash table on the inner table, probe with the outer
        stream.  The full join condition is re-checked on every hash match
        (residual), so extra non-equality conjuncts and hash-normalisation
        edge cases cannot produce wrong rows."""
        inner_refs = [inner for _outer, inner in keys]
        outer_refs = [outer for outer, _inner in keys]

        def generate() -> Iterator[dict]:
            build: dict[tuple, list[dict]] = {}
            built = 0
            self.rows_scanned += len(entry.table)
            for _rowid, row in entry.table.scan():
                inner_env = env_for(entry, row)
                if inner_filters and not all(
                    truthy(f.evaluate(inner_env, params))
                    for f in inner_filters
                ):
                    self.pushdown_filtered += 1
                    continue
                values = [ref.evaluate(inner_env, params) for ref in inner_refs]
                if any(v is None for v in values):
                    continue  # NULL keys never equal anything
                build.setdefault(
                    tuple(hash_key(v) for v in values), []
                ).append(inner_env)
                built += 1
            self.hash_build_rows += built
            for outer_env in outer_envs:
                matched = False
                values = [
                    ref.evaluate(outer_env, params) for ref in outer_refs
                ]
                if any(v is None for v in values):
                    candidates = []
                else:
                    candidates = build.get(
                        tuple(hash_key(v) for v in values), []
                    )
                for inner_env in candidates:
                    env = {**outer_env, **inner_env}
                    if entry.join_on is not None and not truthy(
                        entry.join_on.evaluate(env, params)
                    ):
                        continue
                    matched = True
                    yield env
                if kind == "LEFT" and not matched:
                    yield {**outer_env, **env_for(entry, None)}

        key_desc = ", ".join(
            f"{outer.key} = {inner.key}" for outer, inner in keys
        )
        filter_desc = (
            "; build filter: " + " AND ".join(describe(f) for f in inner_filters)
            if inner_filters else ""
        )
        plan.append(
            f"hash join {entry.alias} on {key_desc} "
            f"({kind.lower()}{filter_desc})"
        )
        return generate()

    def _loop_join(self, entry, outer_envs, env_for, params,
                   kind, inner_filters, plan) -> Iterator[dict]:
        filter_desc = (
            "; inner filter: " + " AND ".join(describe(f) for f in inner_filters)
            if inner_filters else ""
        )
        plan.append(
            f"nested-loop join {entry.alias} ({kind.lower()}{filter_desc})"
        )

        def generate() -> Iterator[dict]:
            inner_envs: list[dict] = []
            for _rowid, row in entry.table.scan():
                inner_env = env_for(entry, row)
                if inner_filters and not all(
                    truthy(f.evaluate(inner_env, params))
                    for f in inner_filters
                ):
                    self.pushdown_filtered += 1
                    continue
                inner_envs.append(inner_env)
            for outer_env in outer_envs:
                matched = False
                self.rows_scanned += len(inner_envs)
                for inner_env in inner_envs:
                    env = {**outer_env, **inner_env}
                    if entry.join_on is not None and not truthy(
                        entry.join_on.evaluate(env, params)
                    ):
                        continue
                    matched = True
                    yield env
                if kind == "LEFT" and not matched:
                    yield {**outer_env, **env_for(entry, None)}

        return generate()

    # -- select list ---------------------------------------------------------------------

    def _expand_items(self, stmt: SelectStmt, bound: list[_BoundTable]) -> list[SelectItem]:
        items: list[SelectItem] = []
        for item in stmt.items:
            if not item.is_star:
                items.append(item)
                continue
            targets = bound
            if item.star_table is not None:
                targets = [b for b in bound if b.alias == item.star_table]
                if not targets:
                    raise CatalogError(f"unknown table {item.star_table} in select list")
            if not targets:
                raise SqlSyntaxError("'*' requires a FROM clause")
            for entry in targets:
                for name in entry.schema.column_names:
                    items.append(
                        SelectItem(ColumnRef(name, table=entry.alias), alias=name)
                    )
        return items

    @staticmethod
    def _item_label(item: SelectItem, position: int) -> str:
        if item.alias:
            return item.alias
        if isinstance(item.expr, ColumnRef):
            return item.expr.column
        if isinstance(item.expr, AggregateCall):
            return item.expr.name
        return f"EXPR{position + 1}"

    # -- grouping -------------------------------------------------------------------------

    def _group(
        self,
        stmt: SelectStmt,
        items: list[SelectItem],
        envs: Iterator[dict],
        params: Sequence[Any],
        group_exprs: list[Expression] | None = None,
    ) -> Iterator[dict]:
        if group_exprs is None:
            group_exprs = list(stmt.group_by)
        aggregates: list[AggregateCall] = []
        for item in items:
            for node in item.expr.walk():
                if isinstance(node, AggregateCall):
                    aggregates.append(node)
        if stmt.having is not None:
            for node in stmt.having.walk():
                if isinstance(node, AggregateCall):
                    aggregates.append(node)
        # De-duplicate by key so COUNT(*) appearing twice folds once.
        unique_aggs: dict[str, AggregateCall] = {}
        for agg in aggregates:
            unique_aggs.setdefault(agg.key, agg)

        groups: dict[tuple, dict] = {}
        for env in envs:
            key_values = tuple(
                expr.evaluate(env, params) for expr in group_exprs
            )
            key = tuple(_NullsFirstKey((v,)) for v in key_values)
            group = groups.get(key)
            if group is None:
                group = {"env": env, "inputs": {k: [] for k in unique_aggs}}
                groups[key] = group
            for agg_key, agg in unique_aggs.items():
                if isinstance(agg.arg, Star):
                    group["inputs"][agg_key].append(1)
                else:
                    value = agg.arg.evaluate(env, params)
                    if value is not None:
                        group["inputs"][agg_key].append(value)

        if not groups and not stmt.group_by:
            # Aggregate over an empty input still yields one row.
            groups[()] = {"env": {}, "inputs": {k: [] for k in unique_aggs}}

        def generate() -> Iterator[dict]:
            for group in groups.values():
                env = dict(group["env"])
                for agg_key, agg in unique_aggs.items():
                    env[agg_key] = agg.accumulate(group["inputs"][agg_key])
                if stmt.having is not None and not truthy(
                    stmt.having.evaluate(env, params)
                ):
                    continue
                yield env

        return generate()


class _SortPart:
    """Sort key element honouring ASC/DESC with NULLs-first semantics."""

    __slots__ = ("key", "ascending")

    def __init__(self, key: _NullsFirstKey, ascending: bool) -> None:
        self.key = key
        self.ascending = ascending

    def __lt__(self, other: "_SortPart") -> bool:
        if self.key == other.key:
            return False
        less = self.key < other.key
        return less if self.ascending else not less

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _SortPart) and self.key == other.key
