"""Concurrent-connection stress tests: session transactions, snapshot
reads, the writer lock, WAL ordering, pooling and the threaded web tier.

The invariants under test are the ones docs/CONCURRENCY.md promises:

* transaction ids are unique across threads (no racy class counter),
* snapshot readers never observe a torn (mid-transaction) state,
* writes serialise through one writer lock with a typed timeout,
* concurrent committers produce a WAL whose LSNs are monotonic in file
  order, and recovery replays it cleanly,
* a crash injected while a writer holds the lock still releases it,
* the connection pool scopes per-request connections and rolls back
  abandoned transactions,
* index lookups at a snapshot return exactly the versions visible there,
  under writer churn, and one pooled request reads one snapshot.
"""

import json
import random
import threading
import time
import urllib.request

import pytest

from repro import faultinject
from repro.errors import LockTimeout, TransactionError
from repro.obs import Observability
from repro.sqldb import Connection, ConnectionPool, Database


def _transfer_db(directory=None, rows=8, balance=100):
    db = Database(str(directory)) if directory else Database()
    db.execute("CREATE TABLE ACCT (K INTEGER PRIMARY KEY, V INTEGER)")
    for i in range(rows):
        db.execute("INSERT INTO ACCT VALUES (?, ?)", (i, balance))
    return db, rows * balance


class TestTransactionIds:
    def test_ids_unique_across_threads(self):
        db = Database()
        db.execute("CREATE TABLE T (K INTEGER PRIMARY KEY)")
        seen, lock = [], threading.Lock()

        def worker():
            conn = db.connect()
            for _ in range(100):
                conn.execute("BEGIN")
                txn_id = conn.txns.active.txn_id
                conn.execute("ROLLBACK")
                with lock:
                    seen.append(txn_id)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(seen) == 800
        assert len(set(seen)) == 800

    def test_fallback_allocator_thread_safe(self):
        from repro.sqldb.transactions import Transaction

        seen, lock = [], threading.Lock()

        def worker():
            for _ in range(200):
                txn = Transaction(explicit=False)
                with lock:
                    seen.append(txn.txn_id)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(seen)) == len(seen)


class TestSessionTransactions:
    def test_connections_hold_independent_transactions(self):
        db = Database()
        db.execute("CREATE TABLE T (K INTEGER PRIMARY KEY)")
        c1, c2 = db.connect(), db.connect(snapshot_reads=False)
        c1.execute("BEGIN")
        c1.execute("INSERT INTO T VALUES (1)")
        # c2 has no open transaction of its own
        assert not c2.in_transaction
        assert c1.in_transaction
        c1.execute("ROLLBACK")
        assert db.execute("SELECT COUNT(*) FROM T").scalar() == 0

    def test_default_execute_unchanged(self):
        """Database.execute keeps exact single-connection semantics."""
        db = Database()
        db.execute("CREATE TABLE T (K INTEGER PRIMARY KEY, V INTEGER)")
        db.execute("BEGIN")
        db.execute("INSERT INTO T VALUES (1, 10)")
        # live read inside the transaction sees the uncommitted row
        assert db.execute("SELECT COUNT(*) FROM T").scalar() == 1
        db.execute("ROLLBACK")
        assert db.execute("SELECT COUNT(*) FROM T").scalar() == 0

    def test_transaction_context_on_connection(self):
        db = Database()
        db.execute("CREATE TABLE T (K INTEGER PRIMARY KEY)")
        conn = db.connect()
        with conn.transaction():
            conn.execute("INSERT INTO T VALUES (1)")
        assert db.execute("SELECT COUNT(*) FROM T").scalar() == 1
        with pytest.raises(ZeroDivisionError):
            with conn.transaction():
                conn.execute("INSERT INTO T VALUES (2)")
                raise ZeroDivisionError
        assert db.execute("SELECT COUNT(*) FROM T").scalar() == 1

    def test_closed_connection_refuses_work(self):
        db = Database()
        db.execute("CREATE TABLE T (K INTEGER PRIMARY KEY)")
        conn = db.connect()
        conn.execute("BEGIN")
        conn.execute("INSERT INTO T VALUES (1)")
        conn.close()
        # close rolled the open transaction back (and released the lock)
        assert db.execute("SELECT COUNT(*) FROM T").scalar() == 0
        assert not db.writer_lock.locked()
        with pytest.raises(TransactionError):
            conn.execute("SELECT * FROM T")


class TestSnapshotReads:
    def test_reader_does_not_see_open_transaction(self):
        db, total = _transfer_db()
        reader, writer = db.connect(), db.connect()
        writer.execute("BEGIN")
        writer.execute("UPDATE ACCT SET V = V - 50 WHERE K = 0")
        assert reader.execute("SELECT SUM(V) FROM ACCT").scalar() == total
        writer.execute("UPDATE ACCT SET V = V + 50 WHERE K = 1")
        assert reader.execute("SELECT SUM(V) FROM ACCT").scalar() == total
        writer.execute("COMMIT")
        assert reader.execute("SELECT SUM(V) FROM ACCT").scalar() == total
        rows = dict(reader.execute("SELECT K, V FROM ACCT WHERE K < 2").rows)
        assert rows == {0: 50, 1: 150}

    def test_explicit_transaction_reads_live(self):
        db, _total = _transfer_db()
        conn = db.connect()
        conn.execute("BEGIN")
        conn.execute("UPDATE ACCT SET V = 0 WHERE K = 0")
        # the transaction observes its own uncommitted write
        assert conn.execute("SELECT V FROM ACCT WHERE K = 0").scalar() == 0
        conn.execute("ROLLBACK")
        assert conn.execute("SELECT V FROM ACCT WHERE K = 0").scalar() == 100

    def test_no_torn_reads_under_concurrent_transfers(self):
        """The classic invariant: money moves between accounts inside
        transactions; the total a snapshot reader sees never wavers."""
        db, total = _transfer_db(rows=10)
        stop = threading.Event()
        torn, lock = [], threading.Lock()

        def writer():
            conn = db.connect()
            i = 0
            while not stop.is_set():
                a, b = i % 10, (i + 3) % 10
                conn.execute("BEGIN")
                conn.execute("UPDATE ACCT SET V = V - 7 WHERE K = ?", (a,))
                conn.execute("UPDATE ACCT SET V = V + 7 WHERE K = ?", (b,))
                conn.execute("COMMIT")
                i += 1

        def reader():
            conn = db.connect()
            while not stop.is_set():
                seen = conn.execute("SELECT SUM(V) FROM ACCT").scalar()
                if seen != total:
                    with lock:
                        torn.append(seen)

        threads = [threading.Thread(target=writer)]
        threads += [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        time.sleep(0.8)
        stop.set()
        for t in threads:
            t.join()
        assert torn == []
        assert db.execute("SELECT SUM(V) FROM ACCT").scalar() == total

    def test_snapshot_scan_of_versioned_heap(self):
        """Direct check of the storage layer's visibility rules."""
        db = Database()
        db.execute("CREATE TABLE T (K INTEGER PRIMARY KEY, V INTEGER)")
        db.execute("INSERT INTO T VALUES (1, 10), (2, 20)")
        heap = db.catalog.table("T").heap
        with db._snapshot_scope() as snapshot:  # pin: keep old versions alive
            db.execute("UPDATE T SET V = 99 WHERE K = 1")
            db.execute("DELETE FROM T WHERE K = 2")
            db.execute("INSERT INTO T VALUES (3, 30)")
            old = sorted(row for _rid, row in heap.scan_at(snapshot))
            assert old == [(1, 10), (2, 20)]
            new = sorted(
                row for _rid, row in heap.scan_at(db.catalog.clock.committed)
            )
            assert new == [(1, 99), (3, 30)]

    def test_history_pruned_without_active_snapshots(self):
        db = Database()
        db.execute("CREATE TABLE T (K INTEGER PRIMARY KEY, V INTEGER)")
        db.execute("INSERT INTO T VALUES (1, 0)")
        for i in range(20):
            db.execute("UPDATE T SET V = ? WHERE K = 1", (i,))
        assert db.catalog.table("T").heap.history_versions == 0

    def test_history_retained_for_pinned_snapshot(self):
        db = Database()
        db.execute("CREATE TABLE T (K INTEGER PRIMARY KEY, V INTEGER)")
        db.execute("INSERT INTO T VALUES (1, 0)")
        with db._snapshot_scope() as snapshot:
            db.execute("UPDATE T SET V = 1 WHERE K = 1")
            heap = db.catalog.table("T").heap
            assert heap.history_versions >= 1
            assert heap.get_at(1, snapshot) == (1, 0)
        # the pin is gone; the next commit prunes the old version
        db.execute("UPDATE T SET V = 2 WHERE K = 1")
        assert db.catalog.table("T").heap.history_versions == 0

    def test_union_runs_in_one_snapshot(self):
        db, total = _transfer_db()
        reader, writer = db.connect(), db.connect()
        writer.execute("BEGIN")
        writer.execute("UPDATE ACCT SET V = 0 WHERE K = 0")
        result = reader.execute(
            "SELECT V FROM ACCT WHERE K = 0 "
            "UNION ALL SELECT V FROM ACCT WHERE K = 1"
        )
        writer.execute("ROLLBACK")
        assert sorted(r[0] for r in result.rows) == [100, 100]


def _churn_db():
    """Parent P, child C with an FK index and a sorted index on V."""
    db = Database()
    db.execute("CREATE TABLE P (K INTEGER PRIMARY KEY, NAME VARCHAR(20))")
    db.execute(
        "CREATE TABLE C (ID INTEGER PRIMARY KEY, "
        "PK INTEGER REFERENCES P (K), V INTEGER)"
    )
    db.execute("CREATE INDEX IX_C_V ON C (V)")
    for k in range(10):
        db.execute("INSERT INTO P VALUES (?, ?)", (k, f"p{k}"))
    for i in range(200):
        db.execute("INSERT INTO C VALUES (?, ?, ?)", (i, i % 10, i % 50))
    return db


class TestSnapshotIndexLookups:
    POINT = "SELECT ID, PK, V FROM C WHERE ID = ?"
    RANGE = "SELECT ID, PK, V FROM C WHERE V BETWEEN ? AND ?"
    JOIN = "SELECT P.K, C.ID, C.V FROM P JOIN C ON C.PK = P.K WHERE P.K = ?"

    def test_explain_uses_indexes_while_writer_is_open(self):
        db = _churn_db()
        reader, writer = db.connect(), db.connect()
        writer.execute("BEGIN")
        writer.execute("UPDATE C SET V = 99 WHERE ID = 3")

        def plan(sql, params):
            rows = reader.execute("EXPLAIN " + sql, params).rows
            return "\n".join(step for (step,) in rows)

        assert "index lookup C via PK_C" in plan(self.POINT, (3,))
        assert "range scan C via IX_C_V" in plan(self.RANGE, (1, 5))
        assert "index nested-loop join C via" in plan(self.JOIN, (3,))
        # the index paths still read the committed state
        assert reader.execute(self.POINT, (3,)).rows == [(3, 3, 3)]
        assert reader.execute("SELECT ID FROM C WHERE V = 99").rows == []
        assert reader.execute("SELECT ID FROM C WHERE V = 3").rows == [
            (3,), (53,), (103,), (153,)
        ]
        writer.execute("ROLLBACK")

    def test_table_lookups_at_snapshot_recheck_keys(self):
        from repro.sqldb.connection import TableSnapshot

        db = _churn_db()
        table = db.catalog.table("C")
        pk, by_v = table.indexes["PK_C"], table.indexes["IX_C_V"]
        with db._snapshot_scope() as snapshot:
            db.execute("UPDATE C SET V = 99 WHERE ID = 3")
            db.execute("DELETE FROM C WHERE ID = 53")
            db.execute("INSERT INTO C VALUES (500, 1, 3)")
            at = TableSnapshot(table, snapshot)
            assert at.lookup(by_v, (99,)) == []
            assert [row for _rid, row in at.lookup(by_v, (3,))] == [
                (3, 3, 3), (53, 3, 3), (103, 3, 3), (153, 3, 3)
            ]
            assert at.lookup(pk, (500,)) == []
            in_range = at.range_lookup(by_v, (2,), (4,), True, False)
            assert [row[2] for _rid, row in in_range] == [2] * 4 + [3] * 4
        assert [row for _rid, row in table.lookup(by_v, (99,))] == [(3, 3, 99)]

    def test_lookups_under_writer_churn_match_scan_at(self):
        """A writer moves indexed keys (UPDATE of V and of the FK column,
        DELETE, INSERT) while pinned readers run a PK point lookup, a
        sorted-index range scan and an FK index join; each answer must be
        the one computed from the heap's versioned scan at the snapshot."""
        db = _churn_db()
        heap_c = db.catalog.table("C").heap
        heap_p = db.catalog.table("P").heap
        stop = threading.Event()
        writes = []

        def writer():
            rng = random.Random(11)
            conn = db.connect()
            ids, next_id = list(range(200)), 200
            while not stop.is_set():
                op = rng.randrange(4)
                explicit = rng.random() < 0.3
                if explicit:
                    conn.execute("BEGIN")
                if op == 0:
                    conn.execute("UPDATE C SET V = ? WHERE ID = ?",
                                 (rng.randrange(50), rng.choice(ids)))
                elif op == 1:
                    conn.execute("UPDATE C SET PK = ? WHERE ID = ?",
                                 (rng.randrange(10), rng.choice(ids)))
                elif op == 2 and len(ids) > 100:
                    victim = ids.pop(rng.randrange(len(ids)))
                    conn.execute("DELETE FROM C WHERE ID = ?", (victim,))
                else:
                    conn.execute("INSERT INTO C VALUES (?, ?, ?)",
                                 (next_id, rng.randrange(10), rng.randrange(50)))
                    ids.append(next_id)
                    next_id += 1
                if explicit:
                    conn.execute("COMMIT")
                writes.append(op)

        pool = ConnectionPool(db, size=1)
        rng = random.Random(5)
        mismatches, reads = [], 0
        thread = threading.Thread(target=writer)
        thread.start()
        deadline = time.monotonic() + 1.0
        try:
            while time.monotonic() < deadline:
                point = rng.randrange(250)
                low = rng.randrange(50)
                parent = rng.randrange(10)
                with pool.scope() as conn:
                    got = (
                        conn.execute(self.POINT, (point,)).rows,
                        conn.execute(self.RANGE, (low, low + 4)).rows,
                        conn.execute(self.JOIN, (parent,)).rows,
                    )
                    children = sorted(heap_c.scan_at(conn.pinned_snapshot))
                    parents = heap_p.scan_at(conn.pinned_snapshot)
                by_key = sorted(children, key=lambda pair: (pair[1][2], pair[0]))
                want = (
                    [row for _rid, row in children if row[0] == point],
                    [row for _rid, row in by_key if low <= row[2] <= low + 4],
                    [
                        (k, row[0], row[2])
                        for _prid, (k, _name) in parents if k == parent
                        for _rid, row in children if row[1] == k
                    ],
                )
                reads += 1
                if got != want:
                    mismatches.append((got, want))
        finally:
            stop.set()
            thread.join()
        assert mismatches == []
        assert reads >= 10 and len(writes) >= 10


class TestWriterLock:
    def test_lock_timeout_is_typed_and_clean(self):
        db, _ = _transfer_db()
        holder = db.connect()
        holder.execute("BEGIN")
        holder.execute("UPDATE ACCT SET V = 0 WHERE K = 0")
        blocked = db.connect(lock_timeout=0.05)
        with pytest.raises(LockTimeout):
            blocked.execute("INSERT INTO ACCT VALUES (99, 1)")
        # the failed statement had no effect and left no open transaction
        assert not blocked.in_transaction
        holder.execute("ROLLBACK")
        blocked.execute("INSERT INTO ACCT VALUES (99, 1)")
        assert db.execute("SELECT V FROM ACCT WHERE K = 99").scalar() == 1

    def test_lock_released_on_rollback_and_commit(self):
        db, _ = _transfer_db()
        conn = db.connect()
        conn.execute("BEGIN")
        conn.execute("UPDATE ACCT SET V = 1 WHERE K = 0")
        assert db.writer_lock.locked()
        conn.execute("ROLLBACK")
        assert not db.writer_lock.locked()
        conn.execute("BEGIN")
        conn.execute("UPDATE ACCT SET V = 1 WHERE K = 0")
        conn.execute("COMMIT")
        assert not db.writer_lock.locked()

    def test_read_only_transaction_never_takes_lock(self):
        db, _ = _transfer_db()
        c1, c2 = db.connect(), db.connect()
        c1.execute("BEGIN")
        c1.execute("SELECT SUM(V) FROM ACCT")
        # a concurrent writer is not blocked by the read-only transaction
        c2.execute("INSERT INTO ACCT VALUES (99, 1)")
        c1.execute("COMMIT")
        assert not db.writer_lock.locked()

    def test_writes_serialise_and_none_are_lost(self):
        db = Database()
        db.execute("CREATE TABLE C (K INTEGER PRIMARY KEY, V INTEGER)")
        db.execute("INSERT INTO C VALUES (1, 0)")

        def worker():
            conn = db.connect()
            for _ in range(25):
                conn.execute("BEGIN")
                v = conn.execute("SELECT V FROM C WHERE K = 1").scalar()
                conn.execute("UPDATE C SET V = ? WHERE K = 1", (v + 1,))
                conn.execute("COMMIT")

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # BEGIN does not take the lock (reads are lock-free), so increments
        # *can* race between the read and the first write; the invariant the
        # engine promises is serialised, non-torn writes — assert the final
        # value is sane and the lock is free
        final = db.execute("SELECT V FROM C WHERE K = 1").scalar()
        assert 0 < final <= 100
        assert not db.writer_lock.locked()

    def test_metrics_cover_lock_waits(self):
        obs = Observability(enabled=True)
        db = Database(obs=obs)
        db.execute("CREATE TABLE T (K INTEGER PRIMARY KEY)")
        holder = db.connect()
        holder.execute("BEGIN")
        holder.execute("INSERT INTO T VALUES (1)")
        blocked = db.connect(lock_timeout=0.02)
        with pytest.raises(LockTimeout):
            blocked.execute("INSERT INTO T VALUES (2)")
        holder.execute("COMMIT")
        snap = obs.metrics.snapshot()
        assert snap["sqldb.writer_lock.timeouts"]["value"] == 1
        assert snap["sqldb.writer_lock.acquires"]["value"] >= 2
        assert snap["sqldb.writer_lock.wait_seconds"]["count"] >= 1
        assert obs.events.events("sqldb.writer_lock.timeout")


class TestWalUnderConcurrency:
    def _lsns_in_file_order(self, directory):
        lsns = []
        with open(directory / "wal.jsonl", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                _tag, _crc, payload = line.split("|", 2)
                lsns.append(json.loads(payload)["lsn"])
        return lsns

    def test_concurrent_commits_keep_lsns_monotonic(self, tmp_path):
        db, _ = _transfer_db(tmp_path)

        def worker(base):
            conn = db.connect()
            for i in range(20):
                conn.execute(
                    "INSERT INTO ACCT VALUES (?, 1)", (1000 + base * 100 + i,)
                )

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        lsns = self._lsns_in_file_order(tmp_path)
        assert lsns == sorted(lsns)
        assert len(lsns) == len(set(lsns))
        # recovery replays the concurrent workload faithfully
        db2 = Database(str(tmp_path))
        assert db2.execute(
            "SELECT COUNT(*) FROM ACCT WHERE K >= 1000"
        ).scalar() == 80

    def test_crash_during_commit_releases_writer_lock(self, tmp_path):
        db, _ = _transfer_db(tmp_path)
        conn = db.connect()
        with faultinject.inject_crash("wal.append.torn"):
            with pytest.raises(faultinject.InjectedCrash):
                conn.execute("INSERT INTO ACCT VALUES (500, 1)")
        assert not db.writer_lock.locked()
        # the simulated host restarts: the torn record is discarded and
        # the lock-protected engine state is consistent
        db2 = Database(str(tmp_path))
        assert db2.execute(
            "SELECT COUNT(*) FROM ACCT WHERE K = 500"
        ).scalar() == 0
        assert db2.recovery_stats["torn_tail_bytes"] > 0
        db2.execute("INSERT INTO ACCT VALUES (500, 1)")

    def test_crash_after_full_write_is_durable_and_releases_lock(self, tmp_path):
        db, _ = _transfer_db(tmp_path)
        conn = db.connect()
        with faultinject.inject_crash("wal.append.full_write"):
            with pytest.raises(faultinject.InjectedCrash):
                conn.execute("INSERT INTO ACCT VALUES (501, 1)")
        assert not db.writer_lock.locked()
        db2 = Database(str(tmp_path))
        assert db2.execute(
            "SELECT COUNT(*) FROM ACCT WHERE K = 501"
        ).scalar() == 1

    def test_recovered_state_is_first_committed_snapshot(self, tmp_path):
        db, total = _transfer_db(tmp_path)
        del db
        db2 = Database(str(tmp_path))
        # snapshot connections must see the recovered rows immediately
        conn = db2.connect()
        assert conn.execute("SELECT SUM(V) FROM ACCT").scalar() == total

    def test_checkpoint_excludes_no_committed_work(self, tmp_path):
        db, _ = _transfer_db(tmp_path, rows=4)
        stop = threading.Event()
        errors = []

        def writer(base):
            conn = db.connect()
            i = 0
            try:
                while not stop.is_set():
                    conn.execute(
                        "INSERT INTO ACCT VALUES (?, 1)",
                        (2000 + base * 1_000_000 + i,),
                    )
                    i += 1
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(n,)) for n in range(2)]
        for t in threads:
            t.start()
        for _ in range(3):
            time.sleep(0.05)
            db.checkpoint()
        stop.set()
        for t in threads:
            t.join()
        assert errors == []
        expected = db.execute("SELECT COUNT(*) FROM ACCT").scalar()
        db2 = Database(str(tmp_path))
        assert db2.execute("SELECT COUNT(*) FROM ACCT").scalar() == expected


class TestCommitHooks:
    def test_hook_failures_reported_through_obs(self):
        obs = Observability(enabled=True)
        db = Database(obs=obs)
        db.execute("CREATE TABLE T (K INTEGER PRIMARY KEY)")
        conn = db.connect()
        conn.execute("BEGIN")
        conn.execute("INSERT INTO T VALUES (1)")
        txn = conn.txns.active
        txn.on_commit.append(lambda: (_ for _ in ()).throw(RuntimeError("h1")))
        txn.on_commit.append(lambda: (_ for _ in ()).throw(RuntimeError("h2")))
        with pytest.raises(TransactionError, match="commit hooks failed"):
            conn.execute("COMMIT")
        assert not db.writer_lock.locked()
        snap = obs.metrics.snapshot()
        assert snap["sqldb.commit.hook_failures"]["value"] == 2
        events = obs.events.events("sqldb.commit.hook_failure")
        assert len(events) == 2
        assert events[0]["txn_id"] == txn.txn_id
        assert "h1" in events[0]["error"]
        # the data change itself committed (hooks run post-commit-point)
        assert db.execute("SELECT COUNT(*) FROM T").scalar() == 1


class TestConnectionPool:
    def test_scope_installs_thread_connection(self):
        db, _ = _transfer_db()
        pool = ConnectionPool(db, size=2)
        with pool.scope() as conn:
            assert db._connection() is conn
            assert isinstance(conn, Connection)
        assert db._connection() is not conn
        assert pool.in_use == 0

    def test_exhausted_pool_times_out(self):
        db, _ = _transfer_db()
        pool = ConnectionPool(db, size=1, checkout_timeout=0.05)
        held = pool.checkout()
        with pytest.raises(LockTimeout):
            pool.checkout()
        pool.checkin(held)
        again = pool.checkout()
        pool.checkin(again)

    def test_abandoned_transaction_rolled_back_on_checkin(self):
        db, _ = _transfer_db()
        pool = ConnectionPool(db, size=1)
        conn = pool.checkout()
        conn.execute("BEGIN")
        conn.execute("UPDATE ACCT SET V = 0 WHERE K = 0")
        pool.checkin(conn)  # handler died without COMMIT/ROLLBACK
        assert not db.writer_lock.locked()
        assert db.execute("SELECT V FROM ACCT WHERE K = 0").scalar() == 100

    def test_pool_requests_run_concurrently_without_torn_reads(self):
        db, total = _transfer_db()
        pool = ConnectionPool(db, size=4)
        stop = threading.Event()
        bad, lock = [], threading.Lock()

        def writer():
            conn = db.connect()
            while not stop.is_set():
                conn.execute("BEGIN")
                conn.execute("UPDATE ACCT SET V = V - 5 WHERE K = 0")
                conn.execute("UPDATE ACCT SET V = V + 5 WHERE K = 1")
                conn.execute("COMMIT")

        def request():
            for _ in range(30):
                with pool.scope():
                    seen = db.execute("SELECT SUM(V) FROM ACCT").scalar()
                    if seen != total:
                        with lock:
                            bad.append(seen)

        w = threading.Thread(target=writer)
        readers = [threading.Thread(target=request) for _ in range(4)]
        w.start()
        for t in readers:
            t.start()
        for t in readers:
            t.join()
        stop.set()
        w.join()
        assert bad == []


class TestRequestSnapshot:
    def test_request_reads_one_snapshot(self):
        db, _total = _transfer_db()
        pool = ConnectionPool(db, size=1)
        other = db.connect()
        with pool.scope():
            before = db.execute("SELECT COUNT(*) FROM ACCT").scalar()
            other.execute("INSERT INTO ACCT VALUES (100, 1)")
            assert db.execute("SELECT COUNT(*) FROM ACCT").scalar() == before
            assert db.execute("SELECT V FROM ACCT WHERE K = 100").rows == []
        with pool.scope():
            assert db.execute("SELECT COUNT(*) FROM ACCT").scalar() == before + 1
        assert db.snapshot_floor() is None  # every pin released

    def test_request_reads_its_own_writes(self):
        db, _total = _transfer_db()
        pool = ConnectionPool(db, size=1)
        with pool.scope() as conn:
            pinned = conn.pinned_snapshot
            db.execute("INSERT INTO ACCT VALUES (100, 1)")
            assert db.execute("SELECT V FROM ACCT WHERE K = 100").scalar() == 1
            assert conn.pinned_snapshot > pinned
            with db.transaction():
                db.execute("UPDATE ACCT SET V = 2 WHERE K = 100")
            assert db.execute("SELECT V FROM ACCT WHERE K = 100").scalar() == 2
        assert db.snapshot_floor() is None

    def test_search_page_agrees_with_its_footer(self, tmp_path):
        """A commit lands between /search's COUNT and its page query; both
        must still read the request's one snapshot."""
        from repro import EasiaApp, build_turbulence_archive

        archive = build_turbulence_archive(n_simulations=3, timesteps=1, grid=8)
        db = archive.db
        app = EasiaApp(db, archive.linker, archive.document, archive.users,
                       archive.make_engine(str(tmp_path)))
        app.container.use_connection_pool(ConnectionPool(db, size=2))
        session = app.login("turbulence", "consortium")
        other = db.connect()
        execute, injected = db.execute, []

        def execute_then_commit(sql, params=(), **kwargs):
            result = execute(sql, params, **kwargs)
            if sql.startswith("SELECT COUNT(") and not injected:
                injected.append(sql)
                other.execute(
                    "INSERT INTO SIMULATION (SIMULATION_KEY, TITLE) "
                    "VALUES ('S-LATE', 'committed mid-request')"
                )
            return result

        params = {"table": "SIMULATION", "show_TITLE": "on",
                  "page_size": "2", "page": "2"}
        db.execute = execute_then_commit
        try:
            response = app.get("/search", params, session)
        finally:
            del db.execute
        assert injected and response.status == 200
        # page 2 of 2 holds what the footer's total leaves after page 1
        assert "page 2 of 2 (3 rows)" in response.text
        assert response.text.count("<tr>") - 1 == 3 - 2
        after = app.get("/search", params, session).text
        assert "page 2 of 2 (4 rows)" in after
        assert after.count("<tr>") - 1 == 4 - 2


class TestThreadedWebTier:
    @pytest.fixture(scope="class")
    def served(self, tmp_path_factory):
        from repro import EasiaApp, build_turbulence_archive
        from repro.web.wsgi import WsgiAdapter, make_threading_server

        archive = build_turbulence_archive(n_simulations=1, timesteps=1, grid=8)
        engine = archive.make_engine(
            str(tmp_path_factory.mktemp("concurrency-sandbox"))
        )
        app = EasiaApp(
            archive.db, archive.linker, archive.document, archive.users, engine
        )
        pool = ConnectionPool(archive.db, size=4)
        app.container.use_connection_pool(pool)
        httpd = make_threading_server("127.0.0.1", 0, WsgiAdapter(app))
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{httpd.server_address[1]}"
        yield app, pool, base
        httpd.shutdown()
        thread.join(timeout=5)

    def _login(self, base):
        request = urllib.request.Request(
            f"{base}/login",
            data=b"username=guest&password=guest",
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            cookie = response.headers.get("Set-Cookie", "")
        assert cookie.startswith("easia_session=")
        return cookie.split(";")[0]

    def test_cookie_is_samesite_lax(self, served):
        _app, _pool, base = served
        request = urllib.request.Request(
            f"{base}/login",
            data=b"username=guest&password=guest",
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            cookie = response.headers.get("Set-Cookie", "")
        assert "SameSite=Lax" in cookie
        assert "HttpOnly" in cookie

    def test_concurrent_sessions_over_http(self, served):
        _app, pool, base = served
        failures, lock = [], threading.Lock()

        def client():
            try:
                cookie = self._login(base)
                for _ in range(5):
                    request = urllib.request.Request(
                        f"{base}/table?name=SIMULATION",
                        headers={"Cookie": cookie},
                    )
                    with urllib.request.urlopen(request, timeout=10) as resp:
                        body = resp.read()
                        if resp.status != 200 or b"SIMULATION" not in body:
                            with lock:
                                failures.append(resp.status)
            except Exception as exc:
                with lock:
                    failures.append(repr(exc))

        threads = [threading.Thread(target=client) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert failures == []
        assert pool.in_use == 0
        assert pool.checkouts >= 6

    def test_pool_exhaustion_maps_to_503(self, served):
        app, _pool, base = served
        cookie = self._login(base)
        tiny = ConnectionPool(app.db, size=1, checkout_timeout=0.05)
        app.container.use_connection_pool(tiny)
        held = tiny.checkout()
        try:
            request = urllib.request.Request(
                f"{base}/table?name=SIMULATION", headers={"Cookie": cookie}
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            assert excinfo.value.code == 503
        finally:
            tiny.checkin(held)
            app.container.use_connection_pool(_pool)

    def test_oversized_body_is_413(self, served):
        from io import BytesIO

        from repro.web.wsgi import WsgiAdapter

        app, _pool, _base = served
        adapter = WsgiAdapter(app, max_content_length=128)
        captured = {}

        def start_response(status, headers):
            captured["status"] = status

        body = adapter(
            {
                "PATH_INFO": "/login",
                "REQUEST_METHOD": "POST",
                "QUERY_STRING": "",
                "CONTENT_LENGTH": "1024",
                "CONTENT_TYPE": "application/x-www-form-urlencoded",
                "wsgi.input": BytesIO(b"u" * 1024),
            },
            start_response,
        )
        assert captured["status"].startswith("413")
        assert b"too large" in b"".join(body)
