"""In-memory span recorder for the traced benchmark run.

The benchmark wraps public functions at each layer boundary of the
program from here, in its own files, so the program itself is unchanged.
Every call of a wrapped function becomes one span: layer name, start,
end, parent span and the id of the benchmark operation (request) that
caused it.  Spans stay in memory until the run ends; :meth:`Tracer.dump`
writes them out.

A layer's self time is the duration of its spans minus the time their
child spans cover.  Each benchmark operation is a root span, so the root's
self time is the part of the end-to-end time no layer claims
(``unattributed_ms``).

Fine-grained per-row functions (XUIS conditions) are counted, not timed,
so that tracing them does not swamp the layers they sit in.
"""

from __future__ import annotations

import gzip
import importlib
import json
import os
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

ROOT = "bench.op"


def _resolve(module_name: str, dotted: str):
    """(owner, attribute name) for ``module:Class.attr`` or ``module:fn``;
    None when the target no longer exists."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


def _sql_kind(args, kwargs) -> str:
    sql = args[1] if len(args) > 1 else kwargs.get("sql", "")
    return "sqldb.read" if sql.lstrip()[:6].upper() == "SELECT" else "sqldb.dml"


def _wal_size(wal) -> int:
    try:
        return os.path.getsize(wal.path)
    except OSError:
        return 0


#: (span name, module, attribute).  The span name may be a function of the
#: call's arguments: statements split into reads and writes (DML) by SQL.
SPAN_TARGETS = [
    ("web.http", "repro.web.http", "ServletContainer.dispatch"),
    ("web.qbe", "repro.web.app", "build_query_from_params"),
    ("web.qbe", "repro.web.qbe", "QbeQuery.to_sql"),
    ("web.qbe", "repro.web.qbe", "QbeQuery.count_sql"),
    ("web.render", "repro.web.app", "render_result_table"),
    ("sqldb.connection", "repro.sqldb.connection", "ConnectionPool.checkout"),
    ("sqldb.connection", "repro.sqldb.connection", "ConnectionPool.checkin"),
    (_sql_kind, "repro.sqldb.database", "Database.execute"),
    (_sql_kind, "repro.sqldb.connection", "Connection.execute"),
    ("sqldb.parser", "repro.sqldb.database", "parse_sql"),
    ("sqldb.executor", "repro.sqldb.executor", "Executor.execute_select"),
    ("sqldb.wal.append", "repro.sqldb.wal", "WriteAheadLog.append_transaction"),
    ("sqldb.wal.checkpoint", "repro.sqldb.database", "Database.checkpoint"),
    ("datalink.decorate", "repro.datalink.linker", "DataLinker.decorate"),
    ("datalink.link", "repro.datalink.linker", "DataLinker.on_insert_link"),
    ("datalink.link", "repro.datalink.linker", "DataLinker.on_remove_link"),
    ("datalink.download", "repro.datalink.linker", "DataLinker.download"),
    ("fileserver.serve", "repro.fileserver.server", "FileServer.serve"),
    ("fileserver.put", "repro.fileserver.server", "FileServer.put"),
    ("fileserver.dl_link", "repro.fileserver.server", "FileServer.dl_link"),
    ("fileserver.dl_link", "repro.fileserver.server", "FileServer.dl_unlink"),
    ("replication", "repro.replication.replicaset", "ReplicaSet.serve"),
    ("replication", "repro.replication.replicaset", "ReplicaSet.put"),
    ("replication", "repro.replication.replicaset", "ReplicaSet.dl_link"),
    ("replication", "repro.replication.replicaset", "ReplicaSet.dl_unlink"),
    ("replication.pump", "repro.replication.manager", "ReplicationManager.pump"),
    ("operations", "repro.operations.executor", "OperationEngine.invoke"),
    ("operations.sandbox", "repro.operations.sandbox", "Sandbox.run_source"),
]

#: counted, not timed: (counter, module, attribute, amount per call)
COUNT_TARGETS = [
    ("xuis.conditions_evaluated", "repro.xuis.model", "Condition.matches",
     None),
    ("web.render.rows", "repro.web.app", "render_result_table",
     lambda args, kwargs: len(args[3].rows)),
]


class Tracer:
    """Records spans from wrapped functions into one in-memory list."""

    def __init__(self) -> None:
        #: span records: [name, start, end, parent record or None, op id]
        self.spans: list[list] = []
        #: counted calls, and the WAL's byte and row totals
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._tls = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self._next_op = 0
        self._op_lock = threading.Lock()

    # -- recording -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _open(self, name: str) -> list:
        stack = self._stack()
        record = [name, 0.0, 0.0, stack[-1] if stack else None,
                  getattr(self._tls, "op", 0)]
        self.spans.append(record)
        stack.append(record)
        record[1] = perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[2] = perf_counter()
        self._tls.stack.pop()

    @contextmanager
    def root(self):
        """One benchmark operation: the root span its layer spans nest in."""
        with self._op_lock:
            self._next_op += 1
            self._tls.op = self._next_op
        record = self._open(ROOT)
        try:
            yield
        finally:
            self._close(record)

    # -- wrapping ----------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target that exists in the program under test."""
        for name, module, attr in SPAN_TARGETS:
            self._patch(module, attr, self._span_wrapper, name)
        for counter, module, attr, amount in COUNT_TARGETS:
            self._patch(module, attr, self._count_wrapper, (counter, amount))
        self._patch("repro.sqldb.wal", "WriteAheadLog.append_transaction",
                    self._wal_bytes_wrapper, None)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            if original is None:
                delattr(owner, attr)  # was inherited: unshadow the base
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, module: str, attr: str, make, arg) -> None:
        target = _resolve(module, attr)
        if target is None:
            self.missing.append(f"{module}:{attr}")
            return
        owner, name = target
        original = owner.__dict__.get(name)
        self._patched.append((owner, name, original))
        setattr(owner, name, make(getattr(owner, name), arg))

    def _span_wrapper(self, fn, name):
        tracer = self
        naming = name if callable(name) else None

        def wrapper(*args, **kwargs):
            record = tracer._open(naming(args, kwargs) if naming else name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(record)

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, fn, spec):
        counts = self.counts
        counter, amount = spec

        def wrapper(*args, **kwargs):
            counts[counter] += 1 if amount is None else amount(args, kwargs)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wal_bytes_wrapper(self, fn, _arg):
        """Bytes the WAL grows per logged row (outside the append span)."""
        counts = self.counts

        def wrapper(wal, txn_id, records, *args, **kwargs):
            before = _wal_size(wal)
            lsn = fn(wal, txn_id, records, *args, **kwargs)
            counts["sqldb.wal.bytes"] += _wal_size(wal) - before
            counts["sqldb.wal.rows"] += len(records)
            return lsn

        wrapper.__wrapped__ = fn
        return wrapper

    # -- analysis ------------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], float, int]:
        """(layer -> summed self seconds, summed root seconds, root count)."""
        child = defaultdict(float)
        for record in self.spans:
            parent = record[3]
            if parent is not None:
                child[id(parent)] += record[2] - record[1]
        layers: dict[str, float] = defaultdict(float)
        total = 0.0
        roots = 0
        for record in self.spans:
            duration = record[2] - record[1]
            layers[record[0]] += duration - child[id(record)]
            if record[3] is None and record[0] == ROOT:
                total += duration
                roots += 1
        return dict(layers), total, roots

    def dump(self, path: str) -> None:
        """Write every span as one JSON line: id, parent id, op id, name,
        start and end in microseconds from the first span."""
        ids = {id(record): i for i, record in enumerate(self.spans)}
        origin = self.spans[0][1] if self.spans else 0.0
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps([
                    i, ids.get(id(parent)) if parent is not None else None, op,
                    name, round((start - origin) * 1e6, 1),
                    round((end - origin) * 1e6, 1),
                ]) + "\n")
