"""Expression AST and its compiler, with SQL three-valued logic.

Expressions appear in WHERE/HAVING clauses, CHECK constraints, computed
SELECT items and join conditions.  Evaluation follows SQL semantics:
``NULL`` propagates through comparisons and arithmetic, ``AND``/``OR`` use
Kleene logic, and a WHERE clause keeps a row only when the predicate is
*true* (not merely non-false).

There is one evaluator: :meth:`Expression.compile` turns a tree into a
closure ``fn(row, params)``.  A :class:`Binder` decides how the closure
reads columns out of ``row``:

* :class:`PositionalBinder` — ``row`` is a tuple and every column
  reference was resolved to an offset at compile time.  The executor and
  UPDATE/DELETE compile each statement's expressions this way once and
  reuse the closures for every row and every execution.
* :class:`NameBinder` — ``row`` is a mapping keyed by ``ALIAS.COLUMN`` and
  bare column names.  :meth:`Expression.evaluate` uses it (compiling once
  per node), which serves CHECK constraints and other dict-shaped callers.

Compiled closures hold no per-call state: parameters arrive with each
call, so one closure may run on several threads at once.  A reference the
binder cannot resolve compiles to a closure that raises when it runs, so
errors surface exactly where tree-walking evaluation raised them.
"""

from __future__ import annotations

import datetime as _dt
import operator
import re
from functools import lru_cache
from typing import Any, Callable, Mapping, Sequence

from repro.errors import CatalogError, SqlSyntaxError, TypeMismatchError
from repro.sqldb.types import Blob, Clob, DatalinkValue

__all__ = [
    "Expression",
    "Literal",
    "ColumnRef",
    "Parameter",
    "BinaryOp",
    "UnaryOp",
    "IsNull",
    "Like",
    "InList",
    "Between",
    "FunctionCall",
    "AggregateCall",
    "Star",
    "Binder",
    "Bindings",
    "NameBinder",
    "PositionalBinder",
    "like_matcher",
    "truthy",
    "hash_key",
]

AGGREGATE_FUNCTIONS = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})

#: a compiled expression: ``fn(row, params) -> value``
Compiled = Callable[[Any, Sequence[Any]], Any]


def _failing(error: type[Exception], message: str) -> Compiled:
    """A closure that raises ``error(message)`` when it runs."""

    def fail(row, params):
        raise error(message)

    return fail


class Binder:
    """Resolves column and aggregate references while compiling: a
    reference becomes a closure that reads its value out of the row."""

    def column(self, ref: "ColumnRef") -> Compiled:
        # No silent fallback from qualified to bare names: a qualifier that
        # does not resolve is an error (this is what surfaces correlated
        # subqueries, which are unsupported, instead of mis-binding them).
        return self._reader(ref.key, CatalogError, f"unknown column {ref.key}")

    def aggregate(self, agg: "AggregateCall") -> Compiled:
        return self._reader(
            agg.key, SqlSyntaxError,
            f"aggregate {agg.name} used outside a grouped query",
        )

    def _reader(self, key: str, error: type[Exception],
                message: str) -> Compiled:
        raise NotImplementedError


class NameBinder(Binder):
    """Rows are mappings keyed by ``ALIAS.COLUMN`` and bare column names;
    aggregate values are bound under :attr:`AggregateCall.key`."""

    def _reader(self, key: str, error: type[Exception],
                message: str) -> Compiled:
        def read(row, params):
            try:
                return row[key]
            except KeyError:
                raise error(message) from None

        return read


class PositionalBinder(Binder):
    """Rows are tuples; ``offsets`` maps ``ALIAS.COLUMN``, the bare names
    that are unambiguous, and aggregate keys to tuple positions."""

    def __init__(self, offsets: Mapping[str, int]) -> None:
        self.offsets = dict(offsets)

    def _reader(self, key: str, error: type[Exception],
                message: str) -> Compiled:
        offset = self.offsets.get(key)
        if offset is None:
            return _failing(error, message)

        def read(row, params):
            return row[offset]

        return read


#: shared by every :meth:`Expression.evaluate` call; stateless
_BY_NAME = NameBinder()


class Expression:
    """Base class for AST nodes."""

    #: this node compiled with the name binder, built on first evaluate()
    _by_name: Compiled | None = None

    def compile(self, binder: Binder) -> Compiled:
        """This subtree as a closure ``fn(row, params)``; ``binder``
        decides how column and aggregate references read ``row``."""
        raise NotImplementedError

    def evaluate(self, env: Mapping[str, Any], params: Sequence[Any] = ()) -> Any:
        """Evaluate against a mapping ``env`` (see :class:`NameBinder`)."""
        compiled = self._by_name
        if compiled is None:
            compiled = self._by_name = self.compile(_BY_NAME)
        return compiled(env, params)

    def column_refs(self) -> list["ColumnRef"]:
        """All column references in this subtree (planner uses this)."""
        refs: list[ColumnRef] = []
        self._collect_refs(refs)
        return refs

    def _collect_refs(self, out: list["ColumnRef"]) -> None:
        pass

    def contains_aggregate(self) -> bool:
        return any(isinstance(node, AggregateCall) for node in self.walk())

    def walk(self):
        """Yield every node in this subtree (pre-order)."""
        yield self
        for child in self._children():
            yield from child.walk()

    def _children(self) -> list["Expression"]:
        return []


def truthy(value: Any) -> bool:
    """SQL WHERE semantics: only TRUE passes; NULL and FALSE do not."""
    return value is True


class Literal(Expression):
    """A constant value."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def compile(self, binder: Binder) -> Compiled:
        value = self.value

        def literal(row, params):
            return value

        return literal

    def __repr__(self) -> str:
        return f"Literal({self.value!r})"

    def __eq__(self, other):
        return isinstance(other, Literal) and self.value == other.value


class Parameter(Expression):
    """A positional ``?`` placeholder, bound at execution time."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index

    def compile(self, binder: Binder) -> Compiled:
        index = self.index

        def parameter(row, params):
            try:
                return params[index]
            except IndexError:
                raise SqlSyntaxError(
                    f"statement has parameter ?{index + 1} but only "
                    f"{len(params)} parameter value(s) were supplied"
                ) from None

        return parameter

    def __repr__(self) -> str:
        return f"Parameter({self.index})"


class ColumnRef(Expression):
    """A (possibly table-qualified) column reference."""

    __slots__ = ("table", "column")

    def __init__(self, column: str, table: str | None = None) -> None:
        self.table = table.upper() if table else None
        self.column = column.upper()

    @property
    def key(self) -> str:
        return f"{self.table}.{self.column}" if self.table else self.column

    def compile(self, binder: Binder) -> Compiled:
        return binder.column(self)

    def _collect_refs(self, out: list["ColumnRef"]) -> None:
        out.append(self)

    def __repr__(self) -> str:
        return f"ColumnRef({self.key!r})"

    def __eq__(self, other):
        return (
            isinstance(other, ColumnRef)
            and self.table == other.table
            and self.column == other.column
        )

    def __hash__(self):
        return hash((self.table, self.column))


class Star(Expression):
    """``*`` in a select list or ``COUNT(*)``."""

    def compile(self, binder: Binder) -> Compiled:
        return _failing(SqlSyntaxError, "'*' cannot be evaluated as a scalar")

    def __repr__(self) -> str:
        return "Star()"


class Bindings(tuple):
    """The parameters of one execution plus its materialised subqueries.

    A tuple, so ``?`` placeholders index it like plain parameters; compiled
    subquery references read their node's result from :attr:`subqueries`.
    Results travel with the call rather than living on the (shared,
    cached) AST, so concurrent executions of one statement stay apart.
    """

    def __new__(cls, params: Sequence[Any], subqueries: dict) -> "Bindings":
        bindings = super().__new__(cls, params)
        bindings.subqueries = subqueries
        return bindings


def _materialised(node: Expression) -> Compiled:
    """A closure returning ``node``'s subquery result for the call."""

    def result(row, params):
        try:
            return params.subqueries[node]
        except (AttributeError, KeyError):
            raise SqlSyntaxError(
                "subquery was not materialised before evaluation"
            ) from None

    return result


class Subquery(Expression):
    """A scalar subquery ``(SELECT ...)``.

    Only *uncorrelated* subqueries are supported: the executor materialises
    the nested SELECT once per statement execution (through
    :meth:`materialise`, passed to row evaluation in :class:`Bindings`).
    A scalar subquery must yield one column; zero rows evaluate to NULL,
    more than one row is an error.
    """

    __slots__ = ("select",)

    def __init__(self, select) -> None:
        self.select = select  # a SelectStmt; typed loosely to avoid cycles

    def materialise(self, rows: list[tuple]) -> Any:
        if rows and len(rows[0]) != 1:
            raise SqlSyntaxError("scalar subquery must select exactly one column")
        if len(rows) > 1:
            raise SqlSyntaxError("scalar subquery returned more than one row")
        return rows[0][0] if rows else None

    def compile(self, binder: Binder) -> Compiled:
        return _materialised(self)

    def __repr__(self) -> str:
        return "Subquery(...)"


class ExistsSubquery(Expression):
    """``[NOT] EXISTS (SELECT ...)`` — true when the (uncorrelated)
    subquery returns at least one row."""

    __slots__ = ("select", "negated")

    def __init__(self, select, negated: bool = False) -> None:
        self.select = select
        self.negated = negated

    def materialise(self, rows: list[tuple]) -> bool:
        return bool(rows) is not self.negated

    def compile(self, binder: Binder) -> Compiled:
        return _materialised(self)


class InSubquery(Expression):
    """``expr [NOT] IN (SELECT ...)`` — materialised like :class:`Subquery`.

    Executed as a hashed semi-join: when every subquery value is a simple
    hashable scalar, :meth:`materialise` builds a set of normalised keys
    and each row's membership test is O(1) instead of a scan over the
    value list.  Mixed or exotic value types fall back to the pairwise
    ``=`` comparison, which handles cross-type coercions (dates vs strings
    etc.).
    """

    __slots__ = ("operand", "select", "negated")

    def __init__(self, operand: Expression, select, negated: bool = False) -> None:
        self.operand = operand
        self.select = select
        self.negated = negated

    def materialise(self, rows: list[tuple]) -> tuple:
        """``(values, hashed keys or None, their type family, saw NULL)``."""
        if rows and len(rows[0]) != 1:
            raise SqlSyntaxError("IN subquery must select exactly one column")
        values = [row[0] for row in rows]
        present = [v for v in values if v is not None]
        # Hash only homogeneous families: a probe value outside the family
        # must fall back to the pairwise path, which raises (or coerces)
        # exactly as the naive comparison loop would.
        for family in ((int, float), (str, Clob)):
            if all(isinstance(v, family) for v in present):
                hashed = {hash_key(v) for v in present}
                return values, hashed, family, len(present) < len(values)
        return values, None, None, len(present) < len(values)

    def compile(self, binder: Binder) -> Compiled:
        materialised = _materialised(self)
        operand = self.operand.compile(binder)
        negated = self.negated
        equal = _COMPARATORS["="]

        def in_subquery(row, params):
            values, hashed, family, saw_null = materialised(row, params)
            value = operand(row, params)
            if value is None:
                return None
            if hashed is not None and isinstance(value, family):
                matched = hash_key(value) in hashed
            else:
                matched = False
                for candidate in values:
                    if candidate is not None and equal(value, candidate):
                        matched = True
                        break
            if matched:
                return not negated
            if saw_null:
                return None
            return negated

        return in_subquery

    def _children(self):
        return [self.operand]

    def _collect_refs(self, out):
        self.operand._collect_refs(out)


def hash_key(value: Any) -> Any:
    """Normalise one value for hash-based equality (hash joins, hashed
    IN-subquery membership) so that two values compare equal under SQL
    ``=`` iff their keys are equal: CLOBs compare as their text, CHAR
    values ignore trailing padding, dates promote to midnight datetimes
    (mirroring :func:`_comparable`), and unhashable values degrade to
    their ``repr``."""
    if isinstance(value, Clob):
        value = value.text
    if isinstance(value, DatalinkValue):
        value = value.url
    if isinstance(value, Blob):
        value = value.data
    if isinstance(value, str):
        value = value.rstrip()
    if isinstance(value, _dt.date) and not isinstance(value, _dt.datetime):
        value = _dt.datetime(value.year, value.month, value.day)
    try:
        hash(value)
    except TypeError:
        value = repr(value)
    return value


def _comparable(left: Any, right: Any) -> tuple[Any, Any]:
    """Normalise operand pairs so heterogeneous-but-compatible values
    compare the way SQL users expect."""
    if isinstance(left, Clob):
        left = left.text
    if isinstance(right, Clob):
        right = right.text
    if isinstance(left, DatalinkValue):
        left = left.url
    if isinstance(right, DatalinkValue):
        right = right.url
    if isinstance(left, Blob):
        left = left.data
    if isinstance(right, Blob):
        right = right.data
    if isinstance(left, _dt.datetime) and isinstance(right, _dt.date) and not isinstance(right, _dt.datetime):
        right = _dt.datetime(right.year, right.month, right.day)
    if isinstance(right, _dt.datetime) and isinstance(left, _dt.date) and not isinstance(left, _dt.datetime):
        left = _dt.datetime(left.year, left.month, left.day)
    if isinstance(left, str) and isinstance(right, _dt.date):
        left = _parse_temporal(left, type(right))
    if isinstance(right, str) and isinstance(left, _dt.date):
        right = _parse_temporal(right, type(left))
    # CHAR columns are space-padded; compare stripped per SQL PAD SPACE.
    if isinstance(left, str) and isinstance(right, str):
        return left.rstrip(), right.rstrip()
    return left, right


def _parse_temporal(text: str, kind: type) -> Any:
    try:
        if kind is _dt.datetime:
            return _dt.datetime.fromisoformat(text)
        return _dt.date.fromisoformat(text)
    except ValueError:
        raise TypeMismatchError(f"cannot compare {text!r} with a {kind.__name__}")


def _numeric(value: Any, op: str) -> Any:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeMismatchError(f"operator {op} requires numeric operands, got {value!r}")
    return value


def _arith(op: str, left: Any, right: Any) -> Any:
    left = _numeric(left, op)
    right = _numeric(right, op)
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            raise TypeMismatchError("division by zero")
        result = left / right
        if isinstance(left, int) and isinstance(right, int) and result == int(result):
            return int(result)
        return result
    if op == "%":
        if right == 0:
            raise TypeMismatchError("division by zero")
        return left % right
    raise SqlSyntaxError(f"unknown arithmetic operator {op}")


def _comparator(op: str, test: Callable[[Any, Any], bool]):
    """``compare(left, right)`` for one comparison operator.  Operands of
    one plain type (int, float, str) skip :func:`_comparable`, whose only
    effect on them would be stripping CHAR padding."""

    def compare(left: Any, right: Any) -> bool:
        kind = type(left)
        if kind is type(right):
            if kind is int or kind is float:
                return test(left, right)
            if kind is str:
                return test(left.rstrip(), right.rstrip())
        left, right = _comparable(left, right)
        try:
            return test(left, right)
        except TypeError:
            raise TypeMismatchError(
                f"cannot compare {type(left).__name__} with "
                f"{type(right).__name__}"
            ) from None

    return compare


_COMPARATORS: dict[str, Callable[[Any, Any], bool]] = {
    op: _comparator(op, test)
    for op, test in (
        ("=", operator.eq), ("<>", operator.ne), ("!=", operator.ne),
        ("<", operator.lt), ("<=", operator.le),
        (">", operator.gt), (">=", operator.ge),
    )
}


_ARITHMETIC = frozenset({"+", "-", "*", "/", "%"})


class BinaryOp(Expression):
    """Binary operators: arithmetic, comparison, AND, OR, string ``||``."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expression, right: Expression) -> None:
        self.op = op.upper()
        self.left = left
        self.right = right

    def compile(self, binder: Binder) -> Compiled:
        op = self.op
        left = self.left.compile(binder)
        right = self.right.compile(binder)
        if op == "AND":

            def and_(row, params):
                lhs = left(row, params)
                if lhs is False:
                    return False
                rhs = right(row, params)
                if rhs is False:
                    return False
                if lhs is None or rhs is None:
                    return None
                return True

            return and_
        if op == "OR":

            def or_(row, params):
                lhs = left(row, params)
                if lhs is True:
                    return True
                rhs = right(row, params)
                if rhs is True:
                    return True
                if lhs is None or rhs is None:
                    return None
                return False

            return or_

        if op == "||":
            def combine(lhs, rhs):
                return _stringify(lhs) + _stringify(rhs)
        elif op in _ARITHMETIC:
            def combine(lhs, rhs):
                return _arith(op, lhs, rhs)
        else:
            combine = _COMPARATORS.get(op)
            if combine is None:
                return _failing(SqlSyntaxError, f"unknown comparison operator {op}")

        def binary(row, params):
            lhs = left(row, params)
            rhs = right(row, params)
            if lhs is None or rhs is None:
                return None
            return combine(lhs, rhs)

        return binary

    def _children(self):
        return [self.left, self.right]

    def _collect_refs(self, out):
        self.left._collect_refs(out)
        self.right._collect_refs(out)

    def __repr__(self) -> str:
        return f"BinaryOp({self.op!r}, {self.left!r}, {self.right!r})"


def _stringify(value: Any) -> str:
    if isinstance(value, Clob):
        return value.text
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    return str(value)


class UnaryOp(Expression):
    """NOT and unary minus."""

    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expression) -> None:
        self.op = op.upper()
        self.operand = operand

    def compile(self, binder: Binder) -> Compiled:
        op = self.op
        operand = self.operand.compile(binder)
        if op == "NOT":

            def not_(row, params):
                value = operand(row, params)
                if value is None:
                    return None
                return not value

            return not_

        def unary(row, params):
            value = operand(row, params)
            if value is None:
                return None
            if op == "-":
                return -_numeric(value, "-")
            if op == "+":
                return _numeric(value, "+")
            raise SqlSyntaxError(f"unknown unary operator {op}")

        return unary

    def _children(self):
        return [self.operand]

    def _collect_refs(self, out):
        self.operand._collect_refs(out)

    def __repr__(self) -> str:
        return f"UnaryOp({self.op!r}, {self.operand!r})"


class IsNull(Expression):
    """``expr IS [NOT] NULL`` — never yields NULL itself."""

    __slots__ = ("operand", "negated")

    def __init__(self, operand: Expression, negated: bool = False) -> None:
        self.operand = operand
        self.negated = negated

    def compile(self, binder: Binder) -> Compiled:
        operand = self.operand.compile(binder)
        negated = self.negated

        def is_null(row, params):
            return (operand(row, params) is None) is not negated

        return is_null

    def _children(self):
        return [self.operand]

    def _collect_refs(self, out):
        self.operand._collect_refs(out)


@lru_cache(maxsize=256)
def like_matcher(pattern: str) -> Callable[[str], bool]:
    """A predicate equal to ``Like.compile_pattern(pattern).match``, built
    once per distinct pattern.  Patterns whose only wildcards are a
    leading and/or trailing ``%`` become plain string tests; the rest use
    the translated regex."""
    collapsed = re.sub("%+", "%", pattern)
    if "_" not in collapsed:
        parts = collapsed.split("%")
        if len(parts) == 1:
            return lambda value: value == collapsed
        if len(parts) == 2:
            prefix, suffix = parts
            least = len(prefix) + len(suffix)
            return lambda value: (
                len(value) >= least
                and value.startswith(prefix)
                and value.endswith(suffix)
            )
        if len(parts) == 3 and not parts[0] and not parts[2]:
            middle = parts[1]
            return lambda value: middle in value
    regex = Like.compile_pattern(pattern)
    return lambda value: regex.match(value) is not None


class Like(Expression):
    """``expr [NOT] LIKE pattern`` with ``%`` and ``_`` wildcards.

    This powers the QBE form's wildcard restrictions.  A constant pattern
    is translated when the expression is compiled; a parameter pattern
    goes through :func:`like_matcher`'s cache, so each distinct pattern is
    translated once, not once per row.
    """

    __slots__ = ("operand", "pattern", "negated")

    def __init__(self, operand: Expression, pattern: Expression, negated: bool = False) -> None:
        self.operand = operand
        self.pattern = pattern
        self.negated = negated

    @staticmethod
    def compile_pattern(pattern: str) -> re.Pattern:
        """Translate an SQL LIKE pattern into an anchored regex."""
        out = []
        for ch in pattern:
            if ch == "%":
                out.append(".*")
            elif ch == "_":
                out.append(".")
            else:
                out.append(re.escape(ch))
        return re.compile("".join(out) + r"\Z", re.DOTALL)

    def compile(self, binder: Binder) -> Compiled:
        operand = self.operand.compile(binder)
        negated = self.negated
        if isinstance(self.pattern, Literal) and self.pattern.value is not None:
            match = like_matcher(_stringify(self.pattern.value))

            def like_constant(row, params):
                value = operand(row, params)
                if value is None:
                    return None
                if type(value) is not str:
                    value = _stringify(value)
                return match(value.rstrip()) is not negated

            return like_constant
        pattern = self.pattern.compile(binder)

        def like(row, params):
            value = operand(row, params)
            text = pattern(row, params)
            if value is None or text is None:
                return None
            if type(text) is not str:
                text = _stringify(text)
            if type(value) is not str:
                value = _stringify(value)
            return like_matcher(text)(value.rstrip()) is not negated

        return like

    def _children(self):
        return [self.operand, self.pattern]

    def _collect_refs(self, out):
        self.operand._collect_refs(out)
        self.pattern._collect_refs(out)


class InList(Expression):
    """``expr [NOT] IN (v1, v2, ...)`` with SQL NULL semantics."""

    __slots__ = ("operand", "items", "negated")

    def __init__(self, operand: Expression, items: Sequence[Expression], negated: bool = False) -> None:
        self.operand = operand
        self.items = list(items)
        self.negated = negated

    def compile(self, binder: Binder) -> Compiled:
        operand = self.operand.compile(binder)
        items = [item.compile(binder) for item in self.items]
        negated = self.negated
        equal = _COMPARATORS["="]

        def in_list(row, params):
            value = operand(row, params)
            if value is None:
                return None
            saw_null = False
            for item in items:
                candidate = item(row, params)
                if candidate is None:
                    saw_null = True
                elif equal(value, candidate):
                    return not negated
            if saw_null:
                return None
            return negated

        return in_list

    def _children(self):
        return [self.operand, *self.items]

    def _collect_refs(self, out):
        self.operand._collect_refs(out)
        for item in self.items:
            item._collect_refs(out)


class Between(Expression):
    """``expr [NOT] BETWEEN low AND high``."""

    __slots__ = ("operand", "low", "high", "negated")

    def __init__(
        self,
        operand: Expression,
        low: Expression,
        high: Expression,
        negated: bool = False,
    ) -> None:
        self.operand = operand
        self.low = low
        self.high = high
        self.negated = negated

    def compile(self, binder: Binder) -> Compiled:
        operand = self.operand.compile(binder)
        low_fn = self.low.compile(binder)
        high_fn = self.high.compile(binder)
        negated = self.negated
        at_least, at_most = _COMPARATORS[">="], _COMPARATORS["<="]

        def between(row, params):
            value = operand(row, params)
            low = low_fn(row, params)
            high = high_fn(row, params)
            if value is None or low is None or high is None:
                return None
            result = at_least(value, low) and at_most(value, high)
            return (not result) if negated else result

        return between

    def _children(self):
        return [self.operand, self.low, self.high]

    def _collect_refs(self, out):
        for child in self._children():
            child._collect_refs(out)


def _fn_substr(args: list[Any]) -> Any:
    text = _stringify(args[0])
    start = int(args[1])
    length = int(args[2]) if len(args) > 2 else None
    begin = max(start - 1, 0)
    if length is None:
        return text[begin:]
    return text[begin : begin + max(length, 0)]


def _as_datalink(value: Any, fn_name: str) -> DatalinkValue:
    if isinstance(value, DatalinkValue):
        return value
    if isinstance(value, str):
        return DatalinkValue(value)
    raise TypeMismatchError(f"{fn_name} requires a DATALINK value, got {value!r}")


_SCALAR_FUNCTIONS: dict[str, Callable[[list[Any]], Any]] = {
    "UPPER": lambda args: _stringify(args[0]).upper(),
    "LOWER": lambda args: _stringify(args[0]).lower(),
    "LENGTH": lambda args: len(args[0]) if isinstance(args[0], (Blob, Clob)) else len(_stringify(args[0])),
    "TRIM": lambda args: _stringify(args[0]).strip(),
    "ABS": lambda args: abs(_numeric(args[0], "ABS")),
    "ROUND": lambda args: round(_numeric(args[0], "ROUND"), int(args[1]) if len(args) > 1 else 0),
    "SUBSTR": _fn_substr,
    "SUBSTRING": _fn_substr,
    # SQL/MED (ISO 9075-9) datalink scalar functions.  DLVALUE constructs a
    # datalink from a character URL; the DLURL* family extracts components
    # of a stored datalink — these are what client SQL uses to manipulate
    # DATALINK columns without string-hacking URLs.
    "DLVALUE": lambda args: _as_datalink(args[0], "DLVALUE"),
    "DLURLCOMPLETE": lambda args: _as_datalink(args[0], "DLURLCOMPLETE").tokenized_url,
    "DLURLPATH": lambda args: _as_datalink(args[0], "DLURLPATH").server_path,
    "DLURLPATHONLY": lambda args: _as_datalink(args[0], "DLURLPATHONLY").server_path,
    "DLURLSERVER": lambda args: _as_datalink(args[0], "DLURLSERVER").host,
    "DLURLSCHEME": lambda args: _as_datalink(args[0], "DLURLSCHEME").scheme.upper(),
    "DLLINKTYPE": lambda args: (_as_datalink(args[0], "DLLINKTYPE"), "URL")[1],
    "DLFILESIZE": lambda args: _as_datalink(args[0], "DLFILESIZE").size,
}


class CaseExpression(Expression):
    """``CASE WHEN cond THEN value [...] [ELSE value] END``.

    Searched-case form only (each WHEN carries a full predicate); the
    first true branch wins, else the ELSE value, else NULL.
    """

    __slots__ = ("branches", "default")

    def __init__(self, branches: Sequence[tuple[Expression, Expression]],
                 default: Expression | None = None) -> None:
        if not branches:
            raise SqlSyntaxError("CASE needs at least one WHEN branch")
        self.branches = list(branches)
        self.default = default

    def compile(self, binder: Binder) -> Compiled:
        branches = [
            (condition.compile(binder), value.compile(binder))
            for condition, value in self.branches
        ]
        default = self.default.compile(binder) if self.default is not None else None

        def case(row, params):
            for condition, value in branches:
                if condition(row, params) is True:
                    return value(row, params)
            if default is not None:
                return default(row, params)
            return None

        return case

    def _children(self):
        out: list[Expression] = []
        for condition, value in self.branches:
            out.append(condition)
            out.append(value)
        if self.default is not None:
            out.append(self.default)
        return out

    def _collect_refs(self, out):
        for child in self._children():
            child._collect_refs(out)

    def __repr__(self) -> str:
        return f"CaseExpression({len(self.branches)} branch(es))"


class FunctionCall(Expression):
    """Scalar function call (UPPER, LOWER, LENGTH, TRIM, ABS, ROUND,
    SUBSTR, COALESCE)."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: Sequence[Expression]) -> None:
        self.name = name.upper()
        self.args = list(args)

    def compile(self, binder: Binder) -> Compiled:
        args = [arg.compile(binder) for arg in self.args]
        if self.name == "COALESCE":

            def coalesce(row, params):
                for arg in args:
                    value = arg(row, params)
                    if value is not None:
                        return value
                return None

            return coalesce
        fn = _SCALAR_FUNCTIONS.get(self.name)
        if fn is None:
            return _failing(SqlSyntaxError, f"unknown function {self.name}")

        def call(row, params):
            values = [arg(row, params) for arg in args]
            if any(v is None for v in values):
                return None
            return fn(values)

        return call

    def _children(self):
        return list(self.args)

    def _collect_refs(self, out):
        for arg in self.args:
            arg._collect_refs(out)

    def __repr__(self) -> str:
        return f"FunctionCall({self.name!r}, {self.args!r})"


class AggregateCall(Expression):
    """Aggregate function reference: COUNT/SUM/AVG/MIN/MAX.

    During grouped execution the executor pre-computes each aggregate and
    binds its value into the grouped row under :attr:`key`; the compiled
    reference reads that binding through the binder.
    """

    __slots__ = ("name", "arg", "distinct")

    def __init__(self, name: str, arg: Expression | Star, distinct: bool = False) -> None:
        self.name = name.upper()
        if self.name not in AGGREGATE_FUNCTIONS:
            raise SqlSyntaxError(f"unknown aggregate {name}")
        self.arg = arg
        self.distinct = distinct

    @property
    def key(self) -> str:
        arg = "*" if isinstance(self.arg, Star) else repr(self.arg)
        distinct = "DISTINCT " if self.distinct else ""
        return f"$agg:{self.name}({distinct}{arg})"

    def compile(self, binder: Binder) -> Compiled:
        return binder.aggregate(self)

    def accumulate(self, values: list[Any]) -> Any:
        """Fold non-NULL input ``values`` into the aggregate result."""
        if self.distinct:
            seen = []
            for v in values:
                if v not in seen:
                    seen.append(v)
            values = seen
        if self.name == "COUNT":
            return len(values)
        if not values:
            return None
        if self.name == "SUM":
            return sum(values)
        if self.name == "AVG":
            return sum(values) / len(values)
        if self.name == "MIN":
            return min(values)
        return max(values)

    def _children(self):
        return [] if isinstance(self.arg, Star) else [self.arg]

    def _collect_refs(self, out):
        if not isinstance(self.arg, Star):
            self.arg._collect_refs(out)

    def __repr__(self) -> str:
        return f"AggregateCall({self.name!r}, {self.arg!r}, distinct={self.distinct})"
