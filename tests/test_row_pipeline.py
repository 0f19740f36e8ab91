"""The compiled row pipeline: positional rows and expressions compiled once
per statement.

The differential test checks SELECT results against a plain-Python
reference written here (SQL three-valued logic over the stored rows), on
both the optimised path and the ``pushdown=False`` oracle, and through a
snapshot connection.  The targeted tests pin the edges of compiling once:
schema changes, EXPLAIN ANALYZE, NULL LIKE patterns, empty COUNT(*), and
the write side's single validation per row.
"""

from __future__ import annotations

import datetime as dt
import errno
import json
import os
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TypeMismatchError
from repro.sqldb.database import Database
from repro.sqldb.expressions import like_matcher
from repro.sqldb.schema import TableSchema
from repro.sqldb.types import DatalinkValue
from repro.sqldb.wal import WriteAheadLog

# -- the differential test -----------------------------------------------------

_COLUMNS = ("K", "N", "S", "C", "D", "L")
_PATTERN = "ab.(\\_%"
#: a small pool, so that equal and LIKE-matching strings are common; it
#: holds LIKE metacharacters, regex metacharacters and trailing blanks
_WORDS = ["", "a", "b", "ab", "ab ", "a_", "a.", "(b", "a\\", " a", "ba"]
_words = st.sampled_from(_WORDS)
_patterns = st.one_of(
    st.text(_PATTERN, max_size=4),
    st.builds(
        lambda before, word, after: before + word + after,
        st.sampled_from(["", "", "%", "_"]), _words,
        st.sampled_from(["", "", "%", "_", "%a"]),
    ),
)

_rows = st.lists(
    st.fixed_dictionaries({
        "N": st.one_of(st.none(), st.integers(-3, 3)),
        "S": st.one_of(st.none(), _words),
        "C": st.one_of(st.none(), _words),
        "D": st.one_of(st.none(), st.dates(dt.date(2000, 1, 1), dt.date(2000, 1, 9))),
        "L": st.one_of(
            st.none(),
            st.sampled_from(["http://fs1/a.dat", "http://fs2/b/c.dat"]),
        ),
    }),
    min_size=2,
    max_size=14,
)


def _sql_string(text: str) -> str:
    return "'" + text.replace("'", "''") + "'"


def _constant(value, as_param: bool):
    """SQL text and parameters for one constant, inline or as ``?``."""
    if as_param or value is None or isinstance(value, dt.date):
        return "?", [value]
    if isinstance(value, str):
        return _sql_string(value), []
    return str(value), []


def _like_oracle(value: str, pattern: str) -> bool:
    """Naive recursive LIKE matcher: ``%`` any run, ``_`` one character."""

    def match(v: int, p: int) -> bool:
        if p == len(pattern):
            return v == len(value)
        if pattern[p] == "%":
            return any(match(i, p + 1) for i in range(v, len(value) + 1))
        if v == len(value):
            return False
        return (pattern[p] == "_" or pattern[p] == value[v]) and match(v + 1, p + 1)

    return match(0, 0)


def _norm(value):
    # CHAR/VARCHAR compare without trailing blanks (PAD SPACE)
    return value.rstrip() if isinstance(value, str) else value


def _kleene_not(value):
    return None if value is None else not value


def _negate(result, negated: bool):
    return _kleene_not(result) if negated else result


_OPS = {
    "=": lambda a, b: a == b, "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b, ">=": lambda a, b: a >= b,
}


@st.composite
def _comparison(draw):
    column, values = draw(st.sampled_from([
        ("K", st.integers(0, 14)),
        ("N", st.integers(-3, 3)),
        ("S", _words),
        ("C", _words),
        ("C", _words),
        ("D", st.dates(dt.date(2000, 1, 1), dt.date(2000, 1, 9))),
    ]))
    op = draw(st.sampled_from(["=", "="] + sorted(_OPS)))
    value = draw(st.one_of(st.none(), values))
    text, params = _constant(value, draw(st.booleans()))

    def check(row):
        actual = row[column]
        if actual is None or value is None:
            return None
        return _OPS[op](_norm(actual), _norm(value))

    return f"{column} {op} {text}", params, check


@st.composite
def _like(draw):
    column = draw(st.sampled_from(["S", "C", "C"]))
    pattern = draw(st.one_of(st.none(), _patterns))
    negated = draw(st.booleans())
    text, params = _constant(pattern, draw(st.booleans()))

    def check(row):
        actual = row[column]
        if actual is None or pattern is None:
            return None
        return _negate(_like_oracle(actual.rstrip(), pattern), negated)

    keyword = "NOT LIKE" if negated else "LIKE"
    return f"{column} {keyword} {text}", params, check


@st.composite
def _in_list(draw):
    items = draw(st.lists(st.one_of(st.none(), st.integers(-3, 3)),
                          min_size=1, max_size=3))
    negated = draw(st.booleans())
    texts, params = [], []
    for item in items:
        text, item_params = _constant(item, draw(st.booleans()))
        texts.append(text)
        params.extend(item_params)

    def check(row):
        actual = row["N"]
        if actual is None:
            return None
        if actual in [i for i in items if i is not None]:
            return not negated
        if None in items:
            return None
        return negated

    keyword = "NOT IN" if negated else "IN"
    return f"N {keyword} ({', '.join(texts)})", params, check


@st.composite
def _between(draw):
    low = draw(st.one_of(st.none(), st.integers(-3, 3)))
    high = draw(st.one_of(st.none(), st.integers(-3, 3)))
    negated = draw(st.booleans())
    low_text, low_params = _constant(low, draw(st.booleans()))
    high_text, high_params = _constant(high, draw(st.booleans()))

    def check(row):
        actual = row["N"]
        if actual is None or low is None or high is None:
            return None
        return _negate(low <= actual <= high, negated)

    keyword = "NOT BETWEEN" if negated else "BETWEEN"
    return (f"N {keyword} {low_text} AND {high_text}",
            low_params + high_params, check)


@st.composite
def _is_null(draw):
    column = draw(st.sampled_from(["N", "S", "C", "D", "L"]))
    negated = draw(st.booleans())

    def check(row):
        return (row[column] is not None) if negated else (row[column] is None)

    return f"{column} IS {'NOT ' if negated else ''}NULL", [], check


def _and(left, right):
    def check(row):
        a, b = left[2](row), right[2](row)
        if a is False or b is False:
            return False
        return None if a is None or b is None else True

    return f"({left[0]} AND {right[0]})", left[1] + right[1], check


def _or(left, right):
    def check(row):
        a, b = left[2](row), right[2](row)
        if a is True or b is True:
            return True
        return None if a is None or b is None else False

    return f"({left[0]} OR {right[0]})", left[1] + right[1], check


def _not(inner):
    return f"NOT ({inner[0]})", inner[1], lambda row: _kleene_not(inner[2](row))


_predicates = st.recursive(
    st.one_of(_comparison(), _comparison(), _like(), _like(), _in_list(),
              _between(), _is_null()),
    lambda children: st.one_of(
        st.builds(_and, children, children),
        st.builds(_or, children, children),
        st.builds(_not, children),
    ),
    max_leaves=4,
)

#: ORDER BY clauses with a total order (K breaks every tie)
_ORDERINGS = [
    ([("K", True)]),
    ([("K", False)]),
    ([("S", True), ("K", True)]),
    ([("N", False), ("K", True)]),
    ([("D", True), ("K", False)]),
    ([("N", False), ("S", False), ("K", False)]),
]


def _reference_order(rows, ordering):
    """Stable multi-pass sort; NULLs first, raw values (no trimming)."""
    out = list(rows)
    for column, ascending in reversed(ordering):
        out.sort(
            key=lambda r: (r[column] is not None, r[column] or 0)
            if column in ("K", "N") else
            (r[column] is not None, r[column] or ""),
            reverse=not ascending,
        )
    return out


def _load(rows) -> Database:
    db = Database()
    db.execute(
        "CREATE TABLE T (K INTEGER PRIMARY KEY, N INTEGER, S VARCHAR(8),"
        " C CHAR(4), D DATE, L DATALINK)"
    )
    db.execute("CREATE INDEX IX_T_N ON T (N)")
    for key, row in enumerate(rows):
        db.execute(
            "INSERT INTO T VALUES (?, ?, ?, ?, ?, ?)",
            (key, row["N"], row["S"], row["C"], row["D"], row["L"]),
        )
    return db


def _stored(db: Database) -> list[dict]:
    """The stored rows, read from the heap (not through SELECT)."""
    return [
        dict(zip(_COLUMNS, row)) for _rowid, row in db.catalog.table("T").scan()
    ]


class TestDifferential:
    @given(value=st.one_of(_words, st.text("ab.(\\_% ", max_size=5)),
           pattern=_patterns)
    @settings(max_examples=500, deadline=None)
    def test_like_matcher_matches_oracle(self, value, pattern):
        assert like_matcher(pattern)(value) is _like_oracle(value, pattern)

    @given(rows=_rows, predicates=st.lists(_predicates, min_size=1, max_size=4),
           ordering=st.sampled_from(_ORDERINGS),
           limit=st.one_of(st.none(), st.integers(0, 5)),
           offset=st.one_of(st.none(), st.integers(0, 4)))
    @settings(max_examples=250, deadline=None)
    def test_select_matches_reference(self, rows, predicates, ordering,
                                      limit, offset):
        db = _load(rows)
        conn = db.connect()
        stored = _stored(db)
        order_sql = ", ".join(
            f"{column}{'' if asc else ' DESC'}" for column, asc in ordering
        )
        page = f" ORDER BY {order_sql}"
        if limit is not None:
            page += f" LIMIT {limit}"
            if offset is not None:
                page += f" OFFSET {offset}"
        start = (offset or 0) if limit is not None else 0
        for where, params, check in predicates:
            matching = [r for r in stored if check(r) is True]
            expected = _reference_order(matching, ordering)[start:]
            if limit is not None:
                expected = expected[:limit]
            expected = [(r["K"], r["S"], r["C"], r["D"], r["L"]) for r in expected]
            count_sql = f"SELECT COUNT(*) FROM T WHERE {where}"
            page_sql = f"SELECT K, S, C, D, L FROM T WHERE {where}{page}"
            for run in (
                lambda sql: db.execute(sql, params),
                lambda sql: db.execute(sql, params, pushdown=False),
                lambda sql: conn.execute(sql, params),
            ):
                assert run(count_sql).scalar() == len(matching), where
                assert run(page_sql).rows == expected, where


# -- targeted tests ----------------------------------------------------------------


class TestCompiledOncePerStatement:
    def test_cached_statement_after_add_column(self):
        db = Database()
        db.execute("CREATE TABLE T (K INTEGER PRIMARY KEY, A VARCHAR(5))")
        db.execute("INSERT INTO T VALUES (1, 'x')")
        sql = "SELECT * FROM T WHERE A = 'x' ORDER BY K"
        assert db.execute(sql).rows == [(1, "x")]
        db.execute("ALTER TABLE T ADD COLUMN B INTEGER DEFAULT 7")
        result = db.execute(sql)
        assert result.columns == ["K", "A", "B"]
        assert result.rows == [(1, "x", 7)]

    def test_cached_update_after_drop_column(self):
        db = Database()
        db.execute("CREATE TABLE T (K INTEGER PRIMARY KEY, A INTEGER, B INTEGER)")
        db.execute("INSERT INTO T VALUES (1, 10, 20)")
        sql = "UPDATE T SET B = B + 1 WHERE K = 1"
        db.execute(sql)
        db.execute("ALTER TABLE T DROP COLUMN A")
        db.execute(sql)
        assert db.execute("SELECT * FROM T").rows == [(1, 22)]

    def test_pipeline_kept_on_the_cached_statement(self):
        db = Database()
        db.execute("CREATE TABLE T (K INTEGER PRIMARY KEY)")
        sql = "SELECT K FROM T WHERE K > ?"
        db.execute(sql, (0,))
        stmt = db._statement_cache[sql]
        compiled = stmt.pipelines[True]
        db.execute(sql, (5,))
        assert stmt.pipelines[True] is compiled

    def test_explain_analyze_reports_every_step(self):
        db = Database()
        db.execute("CREATE TABLE A (K INTEGER PRIMARY KEY, V INTEGER)")
        db.execute("CREATE TABLE B (K INTEGER PRIMARY KEY, AK INTEGER)")
        for i in range(10):
            db.execute("INSERT INTO A VALUES (?, ?)", (i, i % 3))
            db.execute("INSERT INTO B VALUES (?, ?)", (i, i))
        lines = [row[0] for row in db.execute(
            "EXPLAIN ANALYZE SELECT A.K FROM A JOIN B ON A.V = B.AK "
            "WHERE A.V > 0 ORDER BY A.K LIMIT 3"
        ).rows]
        steps, total = lines[:-1], lines[-1]
        assert len(steps) >= 3
        for step in steps:
            assert "[rows=" in step and "ms cumulative]" in step
        assert total.startswith("total: 3 row(s) in ")

    def test_like_with_null_parameter_matches_nothing(self):
        db = Database()
        db.execute("CREATE TABLE T (K INTEGER PRIMARY KEY, S VARCHAR(5))")
        db.execute("INSERT INTO T VALUES (1, 'abc')")
        db.execute("INSERT INTO T VALUES (2, NULL)")
        for sql in ("SELECT K FROM T WHERE S LIKE ?",
                    "SELECT K FROM T WHERE S NOT LIKE ?"):
            assert db.execute(sql, (None,)).rows == []
            assert db.execute(sql, (None,), pushdown=False).rows == []

    def test_count_star_over_no_rows(self):
        db = Database()
        db.execute("CREATE TABLE T (K INTEGER PRIMARY KEY, V INTEGER)")
        assert db.execute("SELECT COUNT(*) FROM T").rows == [(0,)]
        db.execute("INSERT INTO T VALUES (1, 1)")
        assert db.execute("SELECT COUNT(*) FROM T WHERE V > 5").rows == [(0,)]
        assert db.execute("SELECT COUNT(*) FROM T WHERE V > 5",
                          pushdown=False).rows == [(0,)]

    def test_constant_like_pattern_translated_once(self, monkeypatch):
        from repro.sqldb import expressions

        calls = []
        real = expressions.Like.compile_pattern
        monkeypatch.setattr(
            expressions.Like, "compile_pattern",
            staticmethod(lambda p: calls.append(p) or real(p)),
        )
        expressions.like_matcher.cache_clear()
        db = Database()
        db.execute("CREATE TABLE T (K INTEGER PRIMARY KEY, S VARCHAR(9))")
        for i in range(50):
            db.execute("INSERT INTO T VALUES (?, ?)", (i, f"a{i}b"))
        assert len(db.execute("SELECT K FROM T WHERE S LIKE 'a_%b'").rows) == 50
        assert len(db.execute("SELECT K FROM T WHERE S LIKE ?", ("a1_b",)).rows) == 10
        assert calls == ["a_%b", "a1_b"]


class TestSubqueryResultsPerExecution:
    """Subquery results travel with each execution, not on the cached
    statement that pooled connections share."""

    def test_concurrent_executions_of_one_cached_statement(self):
        db = Database()
        db.execute("CREATE TABLE T (K INTEGER PRIMARY KEY, V INTEGER)")
        for i in range(200):
            db.execute("INSERT INTO T VALUES (?, ?)", (i, i))
        sql = "SELECT COUNT(*) FROM T WHERE V < (SELECT MAX(V) FROM T WHERE V < ?)"
        wrong = []

        def reader(limit: int) -> None:
            conn = db.connect()
            for _ in range(300):
                got = conn.execute(sql, (limit,)).scalar()
                if got != limit - 1:
                    wrong.append((limit, got))

        threads = [threading.Thread(target=reader, args=(n,)) for n in (50, 150)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert wrong == []

    def test_update_set_from_subquery(self):
        db = Database()
        db.execute("CREATE TABLE T (K INTEGER PRIMARY KEY, V INTEGER)")
        db.execute("INSERT INTO T VALUES (1, 5), (2, 7)")
        sql = "UPDATE T SET V = (SELECT MAX(V) FROM T) + ? WHERE K = 1"
        db.execute(sql, (1,))
        db.execute(sql, (10,))
        assert db.execute("SELECT V FROM T ORDER BY K").rows == [(18,), (7,)]


# -- the write side: one validation per row, on every path -----------------------


def _typed_table(db: Database) -> None:
    db.execute("CREATE TABLE T (K INTEGER PRIMARY KEY, N INTEGER)")


class TestValidateOnce:
    def test_insert_validates_each_row_once(self, monkeypatch):
        db = Database()
        _typed_table(db)
        calls = []
        real = TableSchema.validate_row
        monkeypatch.setattr(
            TableSchema, "validate_row",
            lambda self, row: calls.append(tuple(row)) or real(self, row),
        )
        db.execute("INSERT INTO T VALUES (1, 2), (3, 4)")
        assert calls == [(1, 2), (3, 4)]
        calls.clear()
        db.execute("UPDATE T SET N = 5 WHERE K = 1")
        assert calls == [(1, 5)]

    def test_sql_insert_rejects_wrong_type(self):
        db = Database()
        _typed_table(db)
        with pytest.raises(TypeMismatchError):
            db.execute("INSERT INTO T VALUES (1, 'many')")
        assert db.execute("SELECT COUNT(*) FROM T").scalar() == 0

    def test_sql_update_rejects_wrong_type(self):
        db = Database()
        _typed_table(db)
        db.execute("INSERT INTO T VALUES (1, 2)")
        with pytest.raises(TypeMismatchError):
            db.execute("UPDATE T SET N = 'many' WHERE K = 1")
        assert db.execute("SELECT N FROM T").rows == [(2,)]

    def test_direct_table_use_rejects_wrong_type(self):
        db = Database()
        _typed_table(db)
        table = db.catalog.table("T")
        with pytest.raises(TypeMismatchError):
            table.insert((1, "many"))
        rowid, _row = table.insert((1, 2))
        with pytest.raises(TypeMismatchError):
            table.update(rowid, (1, "many"))
        assert table.row(rowid) == (1, 2)

    def test_wal_replay_rejects_wrong_type(self, tmp_path):
        directory = str(tmp_path / "db")
        db = Database(directory)
        _typed_table(db)
        db.execute("INSERT INTO T VALUES (1, 2)")
        wal = WriteAheadLog(directory)
        wal.append_transaction(99, [
            {"op": "insert", "table": "T", "rowid": 7, "row": (7, "many")},
        ])
        wal.close()
        with pytest.raises(TypeMismatchError):
            Database(directory)

    def test_restore_rejects_wrong_type(self, tmp_path):
        from repro.datalink.backup import coordinated_restore

        image = tmp_path / "image"
        image.mkdir()
        (image / "backup_manifest.json").write_text(json.dumps({"files": []}))
        (image / "database.json").write_text(json.dumps({
            "ddl": "CREATE TABLE T (K INTEGER PRIMARY KEY, N INTEGER)",
            "tables": {"T": [[1, [1, "many"]]]},
        }))
        with pytest.raises(TypeMismatchError):
            coordinated_restore(str(image))


class _FailingWrites:
    """Stands in for the log's append handle: the next write puts only
    ``keep`` bytes in the file (none: it raises ENOSPC)."""

    def __init__(self, real, keep: int) -> None:
        self.real = real
        self.keep = keep

    def write(self, data: bytes) -> int:
        if not self.keep:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.real.write(data[: self.keep])

    def __getattr__(self, name):
        return getattr(self.real, name)


class TestWalHandle:
    def test_appends_share_one_open_handle(self, tmp_path):
        with Database(str(tmp_path / "db")) as db:
            _typed_table(db)
            db.execute("INSERT INTO T VALUES (1, 1)")
            handle = db._wal._handle
            db.execute("INSERT INTO T VALUES (2, 2)")
            assert db._wal._handle is handle and not handle.closed
        assert handle.closed

    def test_checkpoint_truncation_reopens_the_log(self, tmp_path):
        directory = str(tmp_path / "db")
        with Database(directory) as db:
            _typed_table(db)
            db.execute("INSERT INTO T VALUES (1, 1)")
            handle = db._wal._handle
            db.checkpoint()
            assert handle.closed
            assert os.path.getsize(os.path.join(directory, "wal.jsonl")) == 0
            db.execute("INSERT INTO T VALUES (2, 2)")
        with Database(directory) as reopened:
            assert reopened.execute("SELECT K FROM T ORDER BY K").rows == [(1,), (2,)]
            assert reopened.recovery_stats["replayed_txns"] == 1

    def test_records_reach_the_file_at_commit(self, tmp_path):
        directory = str(tmp_path / "db")
        with Database(directory) as db:
            _typed_table(db)
            db.execute("INSERT INTO T VALUES (1, 1)")
            # a second reader sees the commit without the writer closing
            with Database(directory) as reopened:
                assert reopened.execute("SELECT K FROM T").rows == [(1,)]

    @pytest.mark.parametrize("keep", [0, 7], ids=["write-fails", "short-write"])
    def test_failed_commit_is_not_recovered(self, tmp_path, keep):
        directory = str(tmp_path / "db")
        with Database(directory) as db:
            _typed_table(db)
            db.execute("INSERT INTO T VALUES (1, 1)")
            wal = db._wal
            wal._handle = _FailingWrites(wal._handle, keep)
            with pytest.raises(OSError):
                db.execute("INSERT INTO T VALUES (2, 2)")
            assert db.execute("SELECT K FROM T ORDER BY K").rows == [(1,)]
            db.execute("INSERT INTO T VALUES (3, 3)")
        with Database(directory) as reopened:
            assert reopened.execute("SELECT K FROM T ORDER BY K").rows == [(1,), (3,)]
            assert reopened.recovery_stats["torn_tail_bytes"] == 0


def test_datalink_values_survive_the_pipeline():
    db = Database()
    db.execute("CREATE TABLE T (K INTEGER PRIMARY KEY, L DATALINK)")
    db.execute("INSERT INTO T VALUES (1, 'http://fs1/a.dat')")
    db.execute("INSERT INTO T VALUES (2, NULL)")
    rows = db.execute(
        "SELECT L FROM T WHERE L IS NOT NULL ORDER BY K DESC LIMIT 1"
    ).rows
    assert rows == [(DatalinkValue("http://fs1/a.dat"),)]
