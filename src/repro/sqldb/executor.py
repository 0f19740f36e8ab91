"""SELECT execution: scans, index lookups, joins, grouping and ordering.

Rows stay positional tuples from the heap to the result: a join appends
the inner row to the outer one, so after ``k`` tables a row is the
concatenation of their stored tuples.  Every expression of a statement is
compiled once, against that layout, into a closure over row offsets (see
:mod:`repro.sqldb.expressions`); the compiled form (:class:`_Pipeline`) is
kept on the cached statement and reused by every execution until a FROM
table's columns change.

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
nested-loop / filter-at-the-end path over the same compiled expressions,
which the differential tests compare against.
"""

from __future__ import annotations

from heapq import nlargest, nsmallest
from itertools import islice
from operator import itemgetter
from time import perf_counter
from typing import Any, Callable, Iterator, Sequence

from repro.errors import CatalogError, SqlSyntaxError
from repro.sqldb.expressions import (
    AggregateCall,
    Bindings,
    ColumnRef,
    Compiled,
    ExistsSubquery,
    Expression,
    InSubquery,
    PositionalBinder,
    Star,
    Subquery,
    hash_key,
)
from repro.sqldb.parser.ast_nodes import SelectItem, SelectStmt, TableRef
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

_second = itemgetter(1)


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


def _conjunction(predicates: list[Compiled]) -> Compiled | None:
    """One closure that is True only when every predicate is True."""
    if not predicates:
        return None
    if len(predicates) == 1:
        return predicates[0]

    def all_true(row, params):
        for predicate in predicates:
            if predicate(row, params) is not True:
                return False
        return True

    return all_true


def _table_offsets(entry: _BoundTable, unambiguous: dict[str, str],
                   base: int = 0) -> dict[str, int]:
    """``ALIAS.COLUMN`` (and each bare name ``entry`` owns unambiguously)
    -> position, for ``entry``'s columns starting at ``base``."""
    offsets: dict[str, int] = {}
    for i, name in enumerate(entry.schema.column_names):
        offsets[f"{entry.alias}.{name}"] = base + i
        if unambiguous.get(name) == entry.alias:
            offsets[name] = base + i
    return offsets


class _Filter:
    """Pushed-down WHERE conjuncts: the expressions (for EXPLAIN) and
    their compiled conjunction."""

    __slots__ = ("exprs", "test")

    def __init__(self, exprs: list[Expression], binder) -> None:
        self.exprs = exprs
        self.test = _conjunction([e.compile(binder) for e in exprs])


class _JoinStep:
    """One joined table's compiled pieces.  The outer side is read with
    the binder of the tables before it, the inner side with a binder of
    this table alone, the join condition with both."""

    __slots__ = ("keys", "outer_keys", "inner_keys", "on", "inner", "after",
                 "nulls")

    def __init__(self, entry: _BoundTable, outer, inner, joined,
                 filters: list[Expression], split: bool,
                 unambiguous: dict[str, str]) -> None:
        self.keys = (
            join_equalities(entry.join_on, entry.alias) if entry.join_on else []
        )
        self.outer_keys = [ref.compile(outer) for ref, _ in self.keys]
        self.inner_keys = [ref.compile(inner) for _, ref in self.keys]
        self.on = entry.join_on.compile(joined) if entry.join_on else None
        inner_only: list[Expression] = []
        if split:
            inner_only, filters = single_alias_filters(
                filters, entry.alias, unambiguous
            )
        self.inner = _Filter(inner_only, inner)
        self.after = _Filter(filters, joined)
        #: the inner side of an unmatched LEFT JOIN row
        self.nulls = (None,) * len(entry.schema.columns)


class _EmptyGroupRow:
    """The single group of an aggregate query over no rows: aggregate
    values are readable, source columns are not (there is no row)."""

    __slots__ = ("names", "values")

    def __init__(self, names: list[str], values: tuple) -> None:
        self.names = names
        self.values = values

    def __getitem__(self, offset: int) -> Any:
        if offset < len(self.names):
            raise CatalogError(f"unknown column {self.names[offset]}")
        return self.values[offset - len(self.names)]


class _Pipeline:
    """One SELECT compiled against the column layout of its FROM tables.

    Holds the planner's syntactic decisions (filter placement, join keys,
    select-list expansion) and every expression as a closure over row
    offsets.  Nothing here depends on parameters, rows or the calling
    thread, so one instance serves every execution of a cached statement
    — on any thread — while :attr:`layout` still matches.
    """

    def __init__(self, stmt: SelectStmt, bound: list[_BoundTable],
                 layout: tuple, optimize: bool) -> None:
        self.layout = layout
        self.conjuncts = conjuncts(stmt.where)
        unambiguous = _unambiguous_columns(bound)

        # One binder per pipeline position: after table k joins, a row
        # holds tables 0..k and only their columns resolve.
        binders: list[PositionalBinder] = []
        offsets: dict[str, int] = {}
        names: list[str] = []
        for entry in bound:
            offsets.update(_table_offsets(entry, unambiguous, len(names)))
            names.extend(f"{entry.alias}.{n}" for n in entry.schema.column_names)
            binders.append(PositionalBinder(offsets))
        source = binders[-1] if binders else PositionalBinder({})

        if bound and optimize:
            stage_filters, residual = assign_filters(
                self.conjuncts, [b.alias for b in bound], unambiguous
            )
        else:
            stage_filters = [[] for _ in bound]
            residual = self.conjuncts
        self.scan_filter = _Filter(stage_filters[0], binders[0]) if bound else None
        self.joins: list[_JoinStep | None] = [None]
        for position, entry in enumerate(bound[1:], start=1):
            kind = entry.join_kind or "CROSS"
            self.joins.append(_JoinStep(
                entry,
                outer=binders[position - 1],
                inner=PositionalBinder(_table_offsets(entry, unambiguous)),
                joined=binders[position],
                filters=stage_filters[position],
                split=optimize and kind != "LEFT",
                unambiguous=unambiguous,
            ))
        self.residual = _conjunction([p.compile(source) for p in residual])

        self.items = _expand_items(stmt, bound)
        self.columns = [_item_label(item, i) for i, item in enumerate(self.items)]
        self.grouped = bool(stmt.group_by) or any(
            item.expr is not None and item.expr.contains_aggregate()
            for item in self.items
        ) or (stmt.having is not None and stmt.having.contains_aggregate())
        if not self.grouped and stmt.having is not None:
            raise SqlSyntaxError("HAVING requires GROUP BY or aggregates")
        alias_exprs = {
            item.alias: item.expr for item in self.items if item.alias
        }

        def resolve_alias(expr: Expression) -> Expression:
            # GROUP BY and ORDER BY may name a select-list alias
            # (ORDER BY n for "COUNT(*) AS n").
            if (
                isinstance(expr, ColumnRef)
                and expr.table is None
                and expr.column in alias_exprs
            ):
                return alias_exprs[expr.column]
            return expr

        #: bare ``SELECT COUNT(*) FROM ... [WHERE ...]``: count, build nothing
        self.count_only = (
            self.grouped
            and not stmt.group_by
            and stmt.having is None
            and not stmt.order_by
            and len(self.items) == 1
            and isinstance(self.items[0].expr, AggregateCall)
            and self.items[0].expr.name == "COUNT"
            and isinstance(self.items[0].expr.arg, Star)
            and not self.items[0].expr.distinct
        )
        self.source_names = names
        self.aggregates: list[tuple[AggregateCall, Compiled | None]] = []
        self.group_keys: list[Compiled] = []
        self.having: Compiled | None = None
        if self.count_only:
            output = PositionalBinder({self.items[0].expr.key: 0})
        elif self.grouped:
            unique: dict[str, AggregateCall] = {}
            for expr in [item.expr for item in self.items] + [stmt.having]:
                for node in expr.walk() if expr is not None else ():
                    if isinstance(node, AggregateCall):
                        unique.setdefault(node.key, node)
            self.aggregates = [
                (agg, None if isinstance(agg.arg, Star) else agg.arg.compile(source))
                for agg in unique.values()
            ]
            self.group_keys = [
                resolve_alias(expr).compile(source) for expr in stmt.group_by
            ]
            # a grouped row is the group's first source row followed by
            # the aggregate values
            grouped_offsets = dict(source.offsets)
            for i, key in enumerate(unique):
                grouped_offsets[key] = len(names) + i
            output = PositionalBinder(grouped_offsets)
            if stmt.having is not None:
                self.having = stmt.having.compile(output)
        else:
            output = source
        self.project = [item.expr.compile(output) for item in self.items]
        self.order = [
            resolve_alias(order.expr).compile(output) for order in stmt.order_by
        ]
        self.ascending = [order.ascending for order in stmt.order_by]

    def projector(self, params: Sequence[Any]) -> Callable[[Any], tuple]:
        """``row -> output tuple`` for one execution."""
        project = self.project
        return lambda row: tuple([fn(row, params) for fn in project])


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


def _expand_items(stmt: SelectStmt, bound: list[_BoundTable]) -> list[SelectItem]:
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


def _item_label(item: SelectItem, position: int) -> str:
    if item.alias:
        return item.alias
    if isinstance(item.expr, ColumnRef):
        return item.expr.column
    if isinstance(item.expr, AggregateCall):
        return item.expr.name
    return f"EXPR{position + 1}"


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
        instrument: Callable[[Iterator], Iterator] | None = None
        if analyze:
            step_stats = {}

            def instrument(rows: Iterator) -> Iterator:
                """Attach a timing probe to the plan entry appended last."""
                stats = _StepStats()
                step_stats[len(plan) - 1] = stats
                return _timed_iter(rows, stats)

        params = self.bind_subqueries(
            self._statement_expressions(stmt), params,
            plan=plan if optimize else None,
        )
        bound = self._bind_tables(stmt)
        pipeline = self._pipeline(stmt, bound, optimize)

        if bound:
            rows = self._produce_rows(
                pipeline, bound, params, plan, instrument, optimize
            )
        else:
            # SELECT without FROM: a single empty row.
            rows = iter([()])
            plan.append("no FROM clause: single empty row")
            if instrument is not None:
                rows = instrument(rows)

        residual = pipeline.residual
        if residual is not None:
            rows = (row for row in rows if residual(row, params) is True)

        if pipeline.grouped:
            if pipeline.count_only:
                rows = iter([(sum(1 for _ in rows),)])
            else:
                rows = self._group(pipeline, rows, params)
            plan.append(
                f"hash aggregate on {len(stmt.group_by)} grouping expression(s)"
            )
            if instrument is not None:
                rows = instrument(rows)

        project = pipeline.projector(params)
        if stmt.distinct:
            # pairs of (source row, output row) from here on
            plan.append("distinct (hash)")
            rows = self._distinct(rows, project)
            if instrument is not None:
                rows = _timed_iter(rows, self._stats_slot(step_stats, plan))
            project = _second

        offset = stmt.offset or 0
        if stmt.order_by:
            top = None
            if optimize and stmt.limit is not None:
                top = stmt.limit + offset
                plan.append(
                    f"top-N sort (N={top}) on "
                    f"{len(stmt.order_by)} key(s)"
                )
            else:
                plan.append(f"sort on {len(stmt.order_by)} key(s)")
            started = perf_counter()
            ordered = self._sort(pipeline, list(rows), params, top,
                                 stmt.distinct)
            self._record_step(step_stats, plan, len(ordered),
                              perf_counter() - started)
            ordered = ordered[offset:]
            if stmt.limit is not None:
                ordered = ordered[: stmt.limit]
            out = [project(row) for row in ordered]
        elif optimize and stmt.limit is not None:
            plan.append(f"limit {stmt.limit} (early stop)")
            out = [
                project(row)
                for row in islice(rows, offset, offset + stmt.limit)
            ]
            self._record_step(step_stats, plan, len(out), 0.0)
        else:
            out = [project(row) for row in rows]
            out = out[offset:]
            if stmt.limit is not None:
                out = out[: stmt.limit]

        alias_tables = {b.alias: b.schema.name for b in bound}
        return SelectResult(
            pipeline.columns, out, plan, pipeline.items, alias_tables,
            step_stats=step_stats,
        )

    @staticmethod
    def _pipeline(stmt: SelectStmt, bound: list[_BoundTable],
                  optimize: bool) -> _Pipeline:
        """The statement's compiled pipeline for the current column
        layout, compiled on first use and again after ALTER TABLE."""
        layout = tuple(
            (entry.alias, tuple(entry.schema.column_names)) for entry in bound
        )
        pipeline = stmt.pipelines.get(optimize)
        if pipeline is None or pipeline.layout != layout:
            pipeline = _Pipeline(stmt, bound, layout, optimize)
            stmt.pipelines[optimize] = pipeline
        return pipeline

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
    def _distinct(rows: Iterator, project) -> Iterator[tuple[Any, tuple]]:
        """``(row, project(row))`` for the rows whose output is new: a set
        over hashable NULLs-first keys (O(n), not the quadratic
        list-membership scan)."""
        seen: set[tuple] = set()
        for row in rows:
            out = project(row)
            key = tuple(_NullsFirstKey((v,)) for v in out)
            if key not in seen:
                seen.add(key)
                yield row, out

    @staticmethod
    def _sort(pipeline: _Pipeline, rows: list, params: Sequence[Any],
              top: int | None, pairs: bool) -> list:
        """``rows`` in ORDER BY order (the first ``top`` of them when
        ``top`` is set), stable.  Each row's key is computed once."""
        order, ascending = pipeline.order, pipeline.ascending
        sources = [row for row, _out in rows] if pairs else rows
        if len(order) == 1:
            only = order[0]
            values = [(only(row, params),) for row in sources]
        else:
            values = [tuple([fn(row, params) for fn in order]) for row in sources]
        positions = range(len(rows))
        descending = not any(ascending)
        picked = None
        if descending or all(ascending):
            # one direction: plain keys, the whole order reversed for DESC
            keys = _ranked_keys(values)
            try:
                if top is None:
                    picked = sorted(positions, key=keys.__getitem__,
                                    reverse=descending)
                else:
                    pick = nlargest if descending else nsmallest
                    picked = pick(top, positions, key=keys.__getitem__)
            except TypeError:
                pass  # incomparable types: the general order below
        if picked is None:
            # mixed directions, or values of incomparable types (ordered
            # by their string forms, as the index keys are)
            keys = [
                tuple(
                    _SortPart(_NullsFirstKey((value,)), asc)
                    for value, asc in zip(row_values, ascending)
                )
                for row_values in values
            ]
            if top is None:
                picked = sorted(positions, key=keys.__getitem__)
            else:
                picked = nsmallest(top, positions, key=keys.__getitem__)
        return [rows[i] for i in picked]

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
    ) -> Sequence[Any]:
        """Materialise every (uncorrelated) subquery once per execution;
        returns the parameters to evaluate ``exprs`` with (``params``
        itself, or :class:`Bindings` carrying the results).

        Nested subqueries are handled by the recursive execute_select call;
        a correlated subquery surfaces as an unknown-column error from its
        standalone execution.  When a ``plan`` list is supplied, IN/EXISTS
        materialisations announce themselves (the hashed semi-join path).
        """
        subqueries: dict[Expression, Any] = {}
        for expr in exprs:
            for node in expr.walk():
                if isinstance(node, (Subquery, InSubquery, ExistsSubquery)):
                    result = self.execute_select(node.select, params)
                    subqueries[node] = node.materialise(result.rows)
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
        return Bindings(params, subqueries) if subqueries else params

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

    # -- row production --------------------------------------------------------------

    def _produce_rows(
        self,
        pipeline: _Pipeline,
        bound: list[_BoundTable],
        params: Sequence[Any],
        plan: list[str],
        instrument: Callable[[Iterator], Iterator] | None,
        optimize: bool,
    ) -> Iterator[tuple]:
        equalities = constant_equalities(pipeline.conjuncts, params)
        ranges = range_bounds(pipeline.conjuncts, params) if optimize else []

        first = bound[0]
        rows: Iterator[tuple] = map(
            _second, self._access_path(first, equalities, ranges, plan, optimize)
        )
        if instrument is not None:
            rows = instrument(rows)
        rows = self._pushed_filters(
            rows, pipeline.scan_filter, first.alias, params, plan, instrument
        )

        for position, entry in enumerate(bound[1:], start=1):
            step = pipeline.joins[position]
            rows = self._join_one(entry, step, rows, params, plan, optimize)
            if instrument is not None:
                rows = instrument(rows)
            rows = self._pushed_filters(
                rows, step.after, entry.alias, params, plan, instrument
            )
        return rows

    def _pushed_filters(
        self,
        rows: Iterator[tuple],
        pushed: _Filter,
        alias: str,
        params: Sequence[Any],
        plan: list[str],
        instrument: Callable[[Iterator], Iterator] | None,
    ) -> Iterator[tuple]:
        """Apply pushed-down WHERE conjuncts right after ``alias`` joins the
        pipeline, counting removed rows for the obs layer."""
        test = pushed.test
        if test is None:
            return rows
        plan.append(
            f"filter pushdown at {alias}: "
            + " AND ".join(describe(f) for f in pushed.exprs)
        )

        def generate() -> Iterator[tuple]:
            removed = 0
            try:
                for row in rows:
                    if test(row, params) is True:
                        yield row
                    else:
                        removed += 1
            finally:
                self.pushdown_filtered += removed

        out: Iterator[tuple] = generate()
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
        return iter(entry.table.scan())

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
        step: _JoinStep,
        outer_rows: Iterator[tuple],
        params: Sequence[Any],
        plan: list[str],
        optimize: bool,
    ) -> Iterator[tuple]:
        kind = entry.join_kind or "CROSS"
        inner_desc = " AND ".join(describe(f) for f in step.inner.exprs)
        for position, (_outer_ref, inner_ref) in enumerate(step.keys):
            index = entry.table.index_leading_on(inner_ref.column)
            if index is not None:
                filter_desc = f"; inner filter: {inner_desc}" if inner_desc else ""
                plan.append(
                    f"index nested-loop join {entry.alias} via {index.name}"
                    f"{filter_desc}"
                )
                return self._index_join(entry, step, outer_rows, params,
                                        index, step.outer_keys[position],
                                        kind)
        if optimize and step.keys:
            key_desc = ", ".join(
                f"{outer.key} = {inner.key}" for outer, inner in step.keys
            )
            filter_desc = f"; build filter: {inner_desc}" if inner_desc else ""
            plan.append(
                f"hash join {entry.alias} on {key_desc} "
                f"({kind.lower()}{filter_desc})"
            )
            return self._hash_join(entry, step, outer_rows, params, kind)
        filter_desc = f"; inner filter: {inner_desc}" if inner_desc else ""
        plan.append(
            f"nested-loop join {entry.alias} ({kind.lower()}{filter_desc})"
        )
        return self._loop_join(entry, step, outer_rows, params, kind)

    def _inner_rows(self, entry: _BoundTable, step: _JoinStep,
                    params: Sequence[Any]) -> list[tuple]:
        """The inner table's rows that pass its pushed filters."""
        test = step.inner.test
        rows = list(map(_second, entry.table.scan()))
        if test is None:
            return rows
        kept = [row for row in rows if test(row, params) is True]
        self.pushdown_filtered += len(rows) - len(kept)
        return kept

    def _index_join(self, entry, step: _JoinStep, outer_rows, params,
                    index, outer_key: Compiled, kind: str) -> Iterator[tuple]:
        test, on, nulls = step.inner.test, step.on, step.nulls
        lookup = entry.table.lookup

        def generate() -> Iterator[tuple]:
            for outer in outer_rows:
                matched = False
                candidates = lookup(index, (outer_key(outer, params),))
                self.rows_scanned += len(candidates)
                for _rowid, inner in candidates:
                    if test is not None and test(inner, params) is not True:
                        self.pushdown_filtered += 1
                        continue
                    row = outer + inner
                    if on is not None and on(row, params) is not True:
                        continue
                    matched = True
                    yield row
                if kind == "LEFT" and not matched:
                    yield outer + nulls

        return generate()

    def _hash_join(self, entry, step: _JoinStep, outer_rows, params,
                   kind: str) -> Iterator[tuple]:
        """Build a hash table on the inner table, probe with the outer
        stream.  The full join condition is re-checked on every hash match
        (residual), so extra non-equality conjuncts and hash-normalisation
        edge cases cannot produce wrong rows."""
        on, nulls = step.on, step.nulls
        inner_keys, outer_keys = step.inner_keys, step.outer_keys

        def generate() -> Iterator[tuple]:
            build: dict[tuple, list[tuple]] = {}
            self.rows_scanned += len(entry.table)
            built = 0
            for inner in self._inner_rows(entry, step, params):
                values = [key(inner, params) for key in inner_keys]
                if any(v is None for v in values):
                    continue  # NULL keys never equal anything
                build.setdefault(
                    tuple(hash_key(v) for v in values), []
                ).append(inner)
                built += 1
            self.hash_build_rows += built
            for outer in outer_rows:
                matched = False
                values = [key(outer, params) for key in outer_keys]
                if any(v is None for v in values):
                    candidates = []
                else:
                    candidates = build.get(
                        tuple(hash_key(v) for v in values), []
                    )
                for inner in candidates:
                    row = outer + inner
                    if on is not None and on(row, params) is not True:
                        continue
                    matched = True
                    yield row
                if kind == "LEFT" and not matched:
                    yield outer + nulls

        return generate()

    def _loop_join(self, entry, step: _JoinStep, outer_rows, params,
                   kind: str) -> Iterator[tuple]:
        on, nulls = step.on, step.nulls

        def generate() -> Iterator[tuple]:
            inner_rows = self._inner_rows(entry, step, params)
            for outer in outer_rows:
                matched = False
                self.rows_scanned += len(inner_rows)
                for inner in inner_rows:
                    row = outer + inner
                    if on is not None and on(row, params) is not True:
                        continue
                    matched = True
                    yield row
                if kind == "LEFT" and not matched:
                    yield outer + nulls

        return generate()

    # -- grouping -------------------------------------------------------------------------

    @staticmethod
    def _group(pipeline: _Pipeline, rows: Iterator[tuple],
               params: Sequence[Any]) -> Iterator[Any]:
        """Hash aggregation; yields each group's first source row followed
        by its aggregate values."""
        aggregates, group_keys = pipeline.aggregates, pipeline.group_keys
        groups: dict[tuple, tuple[tuple | None, list[list]]] = {}
        for row in rows:
            key = tuple(_NullsFirstKey((fn(row, params),)) for fn in group_keys)
            group = groups.get(key)
            if group is None:
                group = groups[key] = (row, [[] for _ in aggregates])
            for (_agg, arg), inputs in zip(aggregates, group[1]):
                if arg is None:
                    inputs.append(1)
                else:
                    value = arg(row, params)
                    if value is not None:
                        inputs.append(value)

        if not groups and not group_keys:
            # Aggregate over an empty input still yields one row.
            groups[()] = (None, [[] for _ in aggregates])

        having = pipeline.having

        def generate() -> Iterator[Any]:
            for first, inputs in groups.values():
                values = tuple(
                    agg.accumulate(collected)
                    for (agg, _arg), collected in zip(aggregates, inputs)
                )
                if first is None:
                    grouped = _EmptyGroupRow(pipeline.source_names, values)
                else:
                    grouped = first + values
                if having is not None and having(grouped, params) is not True:
                    continue
                yield grouped

        return generate()


def _rank(value: Any) -> tuple:
    """The NULLs-first order of :class:`_NullsFirstKey` as a plain tuple."""
    if value is None:
        return (0, 0)
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float)):
        return (2, value)
    return (3, value)


def _ranked_keys(values: list[tuple]) -> list:
    """Per-row sort keys built from plain tuples, so comparisons run in C
    (sorting them raises TypeError if two values are incomparable)."""
    if values and len(values[0]) == 1:
        return [_rank(row[0]) for row in values]
    return [tuple(map(_rank, row)) for row in values]


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
