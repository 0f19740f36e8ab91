"""Cost-aware planner operators: pushdown, hash join, range scan, top-N,
hashed semi-joins — plus the satellite fixes (set-based DISTINCT, stable
index-lookup order, one view materialisation per statement)."""

from __future__ import annotations

import time

import pytest

from repro.obs import Observability
from repro.sqldb.database import Database
from repro.sqldb.planner import (
    ColumnRange,
    assign_filters,
    describe,
    like_prefix,
    range_bounds,
)
from repro.sqldb.parser import parse_sql


def _plan(db: Database, sql: str, params=(), pushdown=True) -> str:
    return db.explain(sql, params, pushdown=pushdown)


@pytest.fixture()
def joined_db() -> Database:
    db = Database()
    db.execute("CREATE TABLE L (K INTEGER PRIMARY KEY, B INTEGER, NAME VARCHAR(20))")
    db.execute("CREATE TABLE R (K INTEGER PRIMARY KEY, D INTEGER, TAG VARCHAR(20))")
    for i in range(50):
        db.execute("INSERT INTO L VALUES (?, ?, ?)", (i, i % 7, f"n{i:03d}"))
        db.execute("INSERT INTO R VALUES (?, ?, ?)", (i, i % 7, f"t{i:03d}"))
    return db


# -- predicate pushdown ------------------------------------------------------------


class TestPushdown:
    def test_filter_pushed_to_owning_table(self, joined_db):
        plan = _plan(
            joined_db,
            "SELECT L.K FROM L JOIN R ON L.K = R.K WHERE L.B = 3 AND R.TAG = 't001'",
        )
        assert "filter pushdown at L" in plan
        # the R-side conjunct runs no later than the R join stage
        assert "R.TAG = 't001'" in plan

    def test_pushdown_off_keeps_naive_plan(self, joined_db):
        plan = _plan(
            joined_db,
            "SELECT L.K FROM L JOIN R ON L.B = R.D WHERE L.B = 3",
            pushdown=False,
        )
        assert "filter pushdown" not in plan
        assert "hash join" not in plan
        assert "nested-loop join" in plan

    def test_pushdown_filters_same_rows(self, joined_db):
        sql = "SELECT L.K, R.K FROM L JOIN R ON L.K = R.K WHERE R.D > 2 AND L.NAME LIKE 'n0%'"
        on = joined_db.execute(sql).rows
        off = joined_db.execute(sql, pushdown=False).rows
        assert sorted(on) == sorted(off)

    def test_left_join_null_rows_survive_pushdown(self):
        db = Database()
        db.execute("CREATE TABLE P (K INTEGER PRIMARY KEY, V INTEGER)")
        db.execute("CREATE TABLE C (K INTEGER PRIMARY KEY, P_K INTEGER)")
        db.execute("INSERT INTO P VALUES (1, 10), (2, 20)")
        db.execute("INSERT INTO C VALUES (1, 1)")
        sql = "SELECT P.K, C.K FROM P LEFT JOIN C ON P.K = C.P_K WHERE P.V >= 10"
        rows = db.execute(sql).rows
        assert sorted(rows, key=repr) == sorted(
            db.execute(sql, pushdown=False).rows, key=repr
        )
        assert (2, None) in rows

    def test_obs_counter_counts_filtered_rows(self):
        obs = Observability(enabled=True)
        db = Database(obs=obs)
        db.execute("CREATE TABLE T (K INTEGER PRIMARY KEY, V INTEGER)")
        for i in range(10):
            db.execute("INSERT INTO T VALUES (?, ?)", (i, i))
        db.execute("SELECT T.K FROM T, T AS U WHERE T.V > 4")
        counter = obs.metrics.counter("sqldb.scan.pushdown_filtered")
        assert counter.value >= 5  # half of T removed before the cross join


# -- hash join ---------------------------------------------------------------------


class TestHashJoin:
    def test_unindexed_equi_join_uses_hash(self, joined_db):
        plan = _plan(joined_db, "SELECT L.K FROM L JOIN R ON L.B = R.D")
        assert "hash join" in plan

    def test_indexed_join_still_prefers_index(self, joined_db):
        plan = _plan(joined_db, "SELECT L.K FROM L JOIN R ON L.K = R.K")
        assert "index nested-loop join" in plan

    def test_hash_join_rows_match_nested_loop(self, joined_db):
        sql = "SELECT L.K, R.K FROM L JOIN R ON L.B = R.D"
        assert sorted(joined_db.execute(sql).rows) == sorted(
            joined_db.execute(sql, pushdown=False).rows
        )

    def test_left_hash_join_null_extends(self):
        db = Database()
        db.execute("CREATE TABLE A (K INTEGER PRIMARY KEY, X INTEGER)")
        db.execute("CREATE TABLE B (K INTEGER PRIMARY KEY, Y INTEGER)")
        db.execute("INSERT INTO A VALUES (1, 1), (2, 2), (3, NULL)")
        db.execute("INSERT INTO B VALUES (10, 1)")
        sql = "SELECT A.K, B.K FROM A LEFT JOIN B ON A.X = B.Y"
        rows = db.execute(sql).rows
        assert "hash join" in db.explain(sql)
        assert sorted(rows, key=repr) == sorted(
            db.execute(sql, pushdown=False).rows, key=repr
        )
        # NULL join keys never match; they null-extend under LEFT
        assert (3, None) in rows

    def test_hash_join_residual_handles_extra_conjuncts(self, joined_db):
        sql = "SELECT L.K, R.K FROM L JOIN R ON L.B = R.D AND L.K < R.K"
        assert sorted(joined_db.execute(sql).rows) == sorted(
            joined_db.execute(sql, pushdown=False).rows
        )

    def test_hash_build_rows_counter(self):
        obs = Observability(enabled=True)
        db = Database(obs=obs)
        db.execute("CREATE TABLE A (K INTEGER PRIMARY KEY, X INTEGER)")
        db.execute("CREATE TABLE B (K INTEGER PRIMARY KEY, Y INTEGER)")
        for i in range(8):
            db.execute("INSERT INTO A VALUES (?, ?)", (i, i))
            db.execute("INSERT INTO B VALUES (?, ?)", (i, i))
        db.execute("SELECT A.K FROM A JOIN B ON A.X = B.Y")
        assert obs.metrics.counter("sqldb.join.hash_build_rows").value == 8


# -- range index scans -------------------------------------------------------------


@pytest.fixture()
def ranged_db() -> Database:
    db = Database()
    db.execute("CREATE TABLE M (K INTEGER PRIMARY KEY, G INTEGER, S VARCHAR(20))")
    db.execute("CREATE INDEX IX_G ON M (G)")
    db.execute("CREATE INDEX IX_S ON M (S)")
    for i in range(100):
        db.execute("INSERT INTO M VALUES (?, ?, ?)", (i, i * 2, f"s{i:04d}"))
    return db


class TestRangeScan:
    @pytest.mark.parametrize(
        "predicate,params",
        [
            ("G > ?", (50,)),
            ("G >= ?", (50,)),
            ("G < ?", (50,)),
            ("G <= ?", (50,)),
            ("G BETWEEN ? AND ?", (40, 60)),
            ("? < G", (120,)),
        ],
    )
    def test_inequalities_drive_range_scan(self, ranged_db, predicate, params):
        sql = f"SELECT K FROM M WHERE {predicate}"
        assert "range scan M via IX_G" in _plan(ranged_db, sql, params)
        assert sorted(ranged_db.execute(sql, params).rows) == sorted(
            ranged_db.execute(sql, params, pushdown=False).rows
        )

    def test_like_prefix_drives_range_scan(self, ranged_db):
        sql = "SELECT K FROM M WHERE S LIKE 's000%'"
        assert "range scan M via IX_S" in _plan(ranged_db, sql)
        assert len(ranged_db.execute(sql).rows) == 10

    def test_like_without_prefix_stays_seq_scan(self, ranged_db):
        plan = _plan(ranged_db, "SELECT K FROM M WHERE S LIKE '%42'")
        assert "seq scan" in plan
        assert "range scan" not in plan

    def test_range_scan_disabled_without_pushdown(self, ranged_db):
        plan = _plan(ranged_db, "SELECT K FROM M WHERE G > 50", pushdown=False)
        assert "range scan" not in plan
        assert "seq scan" in plan

    def test_merged_bounds(self, ranged_db):
        sql = "SELECT K FROM M WHERE G > ? AND G <= ?"
        plan = _plan(ranged_db, sql, (20, 80))
        assert "range scan" in plan
        rows = ranged_db.execute(sql, (20, 80)).rows
        assert rows and all(20 < 2 * k <= 80 for (k,) in rows)

    def test_delete_between_scans_only_the_range(self, ranged_db):
        conn = ranged_db.connect()
        before = conn.rows_scanned
        deleted = conn.execute("DELETE FROM M WHERE G BETWEEN 40 AND 58")
        assert deleted.rowcount == 10
        assert conn.rows_scanned - before == 10
        remaining = ranged_db.execute("SELECT G FROM M WHERE G BETWEEN 30 AND 70")
        assert sorted(g for (g,) in remaining.rows) == [
            30, 32, 34, 36, 38, 60, 62, 64, 66, 68, 70
        ]

    def test_update_picks_targets_like_select(self, ranged_db):
        conn = ranged_db.connect()
        before = conn.rows_scanned
        updated = conn.execute("UPDATE M SET S = 'x' WHERE S LIKE 's001%'")
        assert updated.rowcount == 10
        assert conn.rows_scanned - before == 10
        before = conn.rows_scanned
        assert conn.execute("UPDATE M SET G = -1 WHERE K = 7").rowcount == 1
        assert conn.rows_scanned - before == 1
        assert ranged_db.execute("SELECT COUNT(*) FROM M WHERE S = 'x'").scalar() == 10
        assert ranged_db.execute("SELECT G FROM M WHERE K = 7").scalar() == -1


# -- Top-N and early LIMIT ---------------------------------------------------------


class TestTopN:
    def test_order_by_limit_uses_heap(self, joined_db):
        plan = _plan(joined_db, "SELECT K FROM L ORDER BY B DESC LIMIT 5")
        assert "top-N sort (N=5)" in plan

    def test_offset_counts_toward_heap_size(self, joined_db):
        plan = _plan(joined_db, "SELECT K FROM L ORDER BY K LIMIT 5 OFFSET 10")
        assert "top-N sort (N=15)" in plan
        rows = joined_db.execute("SELECT K FROM L ORDER BY K LIMIT 5 OFFSET 10").rows
        assert rows == [(10,), (11,), (12,), (13,), (14,)]

    def test_topn_matches_full_sort(self, joined_db):
        sql = "SELECT K, B FROM L ORDER BY B DESC, K LIMIT 7"
        assert joined_db.execute(sql).rows == joined_db.execute(
            sql, pushdown=False
        ).rows

    def test_limit_without_order_stops_early(self, joined_db):
        plan = _plan(joined_db, "SELECT K FROM L LIMIT 3")
        assert "limit 3 (early stop)" in plan
        assert len(joined_db.execute("SELECT K FROM L LIMIT 3").rows) == 3


# -- DISTINCT ----------------------------------------------------------------------


class TestDistinct:
    def test_distinct_announces_hash(self, joined_db):
        assert "distinct (hash)" in _plan(joined_db, "SELECT DISTINCT B FROM L")

    def test_distinct_5k_rows_is_fast(self):
        """Regression: DISTINCT used a quadratic list-membership scan."""
        db = Database()
        db.execute("CREATE TABLE D (K INTEGER PRIMARY KEY, V INTEGER)")
        db.execute(
            "INSERT INTO D VALUES " + ", ".join(f"({i}, {i})" for i in range(5000))
        )
        started = time.perf_counter()
        rows = db.execute("SELECT DISTINCT V FROM D").rows
        elapsed = time.perf_counter() - started
        assert len(rows) == 5000
        assert elapsed < 2.0  # the quadratic path took tens of seconds

    def test_distinct_with_nulls(self):
        db = Database()
        db.execute("CREATE TABLE D (K INTEGER PRIMARY KEY, V INTEGER)")
        db.execute("INSERT INTO D VALUES (1, NULL), (2, NULL), (3, 1)")
        rows = db.execute("SELECT DISTINCT V FROM D").rows
        assert sorted(rows, key=repr) == [(1,), (None,)]


# -- semi-joins --------------------------------------------------------------------


class TestSemiJoins:
    def test_in_subquery_announces_hash(self, joined_db):
        plan = _plan(
            joined_db, "SELECT K FROM L WHERE B IN (SELECT D FROM R WHERE K < 5)"
        )
        assert "hashed semi-join" in plan

    def test_in_subquery_rows_match_naive(self, joined_db):
        sql = "SELECT K FROM L WHERE B IN (SELECT D FROM R WHERE K < 5)"
        assert sorted(joined_db.execute(sql).rows) == sorted(
            joined_db.execute(sql, pushdown=False).rows
        )

    def test_not_in_with_null_returns_nothing(self):
        db = Database()
        db.execute("CREATE TABLE A (K INTEGER PRIMARY KEY)")
        db.execute("CREATE TABLE B (K INTEGER PRIMARY KEY, V INTEGER)")
        db.execute("INSERT INTO A VALUES (1), (2)")
        db.execute("INSERT INTO B VALUES (1, 1), (2, NULL)")
        rows = db.execute(
            "SELECT K FROM A WHERE K NOT IN (SELECT V FROM B)"
        ).rows
        assert rows == []  # NULL in the list makes NOT IN unknown

    def test_exists_announces_semi_join(self, joined_db):
        plan = _plan(
            joined_db, "SELECT K FROM L WHERE EXISTS (SELECT 1 FROM R WHERE R.K = 0)"
        )
        assert "semi-join: EXISTS" in plan


# -- deterministic ordering (satellite) --------------------------------------------


class TestDeterminism:
    def test_index_lookup_order_is_stable(self):
        db = Database()
        db.execute("CREATE TABLE T (K INTEGER PRIMARY KEY, V INTEGER)")
        db.execute("CREATE INDEX IX_V ON T (V)")
        for i in range(30):
            db.execute("INSERT INTO T VALUES (?, 7)", (i,))
        reference = db.execute("SELECT K FROM T WHERE V = 7").rows
        for _ in range(5):
            assert db.execute("SELECT K FROM T WHERE V = 7").rows == reference
        assert reference == sorted(reference)

    def test_index_join_order_is_stable(self):
        db = Database()
        db.execute("CREATE TABLE P (K INTEGER PRIMARY KEY)")
        db.execute("CREATE TABLE C (K INTEGER PRIMARY KEY, P_K INTEGER)")
        db.execute("CREATE INDEX IX_PK ON C (P_K)")
        db.execute("INSERT INTO P VALUES (1)")
        for i in range(20):
            db.execute("INSERT INTO C VALUES (?, 1)", (i,))
        sql = "SELECT C.K FROM P JOIN C ON P.K = C.P_K"
        reference = db.execute(sql).rows
        for _ in range(5):
            assert db.execute(sql).rows == reference


# -- view materialisation cache (satellite) ----------------------------------------


class TestViewCache:
    def test_self_join_materialises_view_once(self):
        db = Database()
        db.execute("CREATE TABLE T (K INTEGER PRIMARY KEY, V INTEGER)")
        db.execute("INSERT INTO T VALUES (1, 10), (2, 20)")
        db.execute("CREATE VIEW VW AS SELECT K, V FROM T")
        before = db._executor.view_materialisations
        rows = db.execute(
            "SELECT A.K, B.K FROM VW AS A JOIN VW AS B ON A.K = B.K"
        ).rows
        assert sorted(rows) == [(1, 1), (2, 2)]
        assert db._executor.view_materialisations - before == 1

    def test_cache_does_not_leak_across_statements(self):
        db = Database()
        db.execute("CREATE TABLE T (K INTEGER PRIMARY KEY, V INTEGER)")
        db.execute("INSERT INTO T VALUES (1, 10)")
        db.execute("CREATE VIEW VW AS SELECT K, V FROM T")
        assert db.execute("SELECT K FROM VW").rows == [(1,)]
        db.execute("INSERT INTO T VALUES (2, 20)")
        # a later statement must see the new row, not a stale snapshot
        assert sorted(db.execute("SELECT K FROM VW").rows) == [(1,), (2,)]


# -- planner unit tests ------------------------------------------------------------


class TestPlannerHelpers:
    def test_like_prefix(self):
        assert like_prefix("abc%") == "abc"
        assert like_prefix("abc_d") == "abc"
        assert like_prefix("%abc") is None
        assert like_prefix("plain") == "plain"

    def test_column_range_merging(self):
        stmt = parse_sql("SELECT * FROM T WHERE G > 10 AND G <= 50 AND G > 20")
        from repro.sqldb.planner import conjuncts

        ranges = range_bounds(conjuncts(stmt.where), ())
        assert len(ranges) == 1
        crange = ranges[0]
        assert isinstance(crange, ColumnRange)
        assert crange.low == 20 and not crange.include_low
        assert crange.high == 50 and crange.include_high

    def test_assign_filters_positions(self):
        stmt = parse_sql(
            "SELECT * FROM A JOIN B ON A.K = B.K "
            "WHERE A.X = 1 AND B.Y = 2 AND A.X < B.Y"
        )
        from repro.sqldb.planner import conjuncts

        stages, residual = assign_filters(
            conjuncts(stmt.where), ["A", "B"], {"X": "A", "Y": "B"}
        )
        assert [describe(f) for f in stages[0]] == ["A.X = 1"]
        assert [describe(f) for f in stages[1]] == ["B.Y = 2", "A.X < B.Y"]
        assert residual == []

    def test_describe_round_trips_common_shapes(self):
        stmt = parse_sql(
            "SELECT * FROM T WHERE A = 1 AND B LIKE 'x%' AND C BETWEEN 1 AND 2"
        )
        from repro.sqldb.planner import conjuncts

        rendered = [describe(c) for c in conjuncts(stmt.where)]
        assert rendered == [
            "A = 1",
            "B LIKE 'x%'",
            "C BETWEEN 1 AND 2",
        ]
