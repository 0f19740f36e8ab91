"""Runs one workload and turns what it measured into named metrics.

Untraced runs give the end-to-end metrics; a traced run gives the
per-layer ones (see :mod:`perfbench.tracing`).  ``END_TO_END`` and
``PER_LAYER`` are the metric tables ``BENCHMARK.json`` lists; the last
field of each ``PER_LAYER`` row names the end-to-end metric and workload
a change in that layer should move.
"""

from __future__ import annotations

import gc
import os
import random
import resource
import shutil
import statistics
from time import perf_counter

import repro.obs
from perfbench.fixtures import check_table1
from perfbench.tracing import ROOT, Tracer
from perfbench.workloads import Ingest, Mixed, Portal, Postprocess, Recorder

WORKLOADS = {w.name: w for w in (Portal, Ingest, Mixed, Postprocess)}

#: set-ups per untraced run, whatever the machine's speed; ``setup_s`` is
#: their median (a traced run sets up once)
SETUPS = 5
#: seconds of unmeasured operations before the timer starts (caches fill)
WARMUP_SECONDS = 2.0

#: (name, unit, better, bound).  Runs on a shared two-core machine
#: differ by about 10% in speed from one process to the next, whatever the
#: seed; the time bounds sit above that.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("p50_ms", "ms", "lower", 0.25),
    ("p99_ms", "ms", "lower", 0.25),
]

#: operation-kind latencies, printed with their sample counts where the
#: workload issues that kind: (name, kinds, percentile).  They are not in
#: BENCHMARK.json, whose end-to-end metrics every workload must report.
KIND_METRICS = [
    ("search_p50_ms", ("search",), 50),
    ("search_p99_ms", ("search",), 99),
    ("like_search_p50_ms", ("like_search",), 50),
    ("browse_p50_ms", ("browse_pk", "browse_fk"), 50),
    ("browse_p99_ms", ("browse_pk", "browse_fk"), 99),
    ("download_p50_ms", ("download",), 50),
    ("failover_download_p50_ms", ("failover_download",), 50),
    ("insert_p50_ms", ("insert",), 50),
    ("insert_p99_ms", ("insert",), 99),
    ("operation_p50_ms", ("operation",), 50),
]

#: layer self times: metric -> span name (ms per operation)
LAYER_SPANS = {
    "web.http.self_ms": "web.http",
    "web.qbe.ms": "web.qbe",
    "web.render.self_ms": "web.render",
    "sqldb.parse.ms": "sqldb.parser",
    "sqldb.execute.ms": "sqldb.executor",
    "sqldb.read.self_ms": "sqldb.read",
    "sqldb.connection.self_ms": "sqldb.connection",
    "sqldb.dml.ms": "sqldb.dml",
    "sqldb.wal.append.ms": "sqldb.wal.append",
    "sqldb.wal.checkpoint.ms": "sqldb.wal.checkpoint",
    "datalink.decorate.ms": "datalink.decorate",
    "datalink.link.ms": "datalink.link",
    "datalink.download.self_ms": "datalink.download",
    "fileserver.serve.ms": "fileserver.serve",
    "fileserver.put.ms": "fileserver.put",
    "fileserver.dl_link.ms": "fileserver.dl_link",
    "replication.self_ms": "replication",
    "replication.pump.ms": "replication.pump",
    "operations.invoke.ms": "operations",
    "operations.sandbox.ms": "operations.sandbox",
    "unattributed_ms": ROOT,
}

_SEARCH = "search_p50_ms on portal"
#: (name, unit, better, what it should move)
PER_LAYER = [
    ("web.http.self_ms", "ms/op", "lower", "p50_ms on portal"),
    ("web.qbe.ms", "ms/op", "lower", _SEARCH),
    ("web.render.self_ms", "ms/op", "lower", "search_p50_ms and browse_p50_ms on portal"),
    ("web.render.rows", "rows/op", "lower", _SEARCH),
    ("xuis.conditions_evaluated", "1/op", "lower", _SEARCH),
    ("sqldb.parse.ms", "ms/op", "lower", "p50_ms on portal"),
    ("sqldb.statement_cache.hit_ratio", "ratio", "higher", "p50_ms on portal"),
    ("sqldb.execute.ms", "ms/op", "lower", "like_search_p50_ms and search_p50_ms on portal"),
    ("sqldb.rows_scanned_per_returned", "ratio", "lower", "like_search_p50_ms and search_p50_ms on portal"),
    ("sqldb.read.self_ms", "ms/op", "lower", "p50_ms on portal; browse_p99_ms on mixed"),
    ("sqldb.connection.self_ms", "ms/op", "lower", "p50_ms on mixed"),
    ("sqldb.snapshot.retry_ratio", "ratio", "lower", "browse_p99_ms and search_p99_ms on mixed"),
    ("sqldb.snapshot.age_commits_p99", "commits", "lower", "browse_p99_ms and search_p99_ms on mixed"),
    ("sqldb.writer_lock.wait_ms", "ms/op", "lower", "insert_p99_ms on mixed"),
    ("sqldb.pool.checkout_wait_ms", "ms/op", "lower", "browse_p99_ms on mixed"),
    ("sqldb.dml.ms", "ms/op", "lower", "insert_p50_ms on ingest"),
    ("sqldb.wal.append.ms", "ms/op", "lower", "insert_p50_ms on ingest; insert_p99_ms on mixed"),
    ("sqldb.wal.fsyncs", "1/op", "lower", "insert_p99_ms on mixed"),
    ("sqldb.wal.bytes_per_row", "B/row", "lower", "insert_p50_ms on ingest"),
    ("sqldb.wal.checkpoint.ms", "ms/op", "lower", "p99_ms on ingest"),
    ("datalink.decorate.ms", "ms/op", "lower", "search_p50_ms and download_p50_ms on portal"),
    ("datalink.link.ms", "ms/op", "lower", "insert_p50_ms on ingest"),
    ("datalink.download.self_ms", "ms/op", "lower", "download_p50_ms on portal"),
    ("datalink.tokens.issued", "1/op", "lower", _SEARCH),
    ("datalink.tokens.validated", "1/op", "lower", "download_p50_ms on portal"),
    ("datalink.links_applied", "1/op", "lower", "insert_p50_ms on ingest"),
    ("datalink.unlinks_applied", "1/op", "lower", "insert_p50_ms on ingest"),
    ("fileserver.serve.ms", "ms/op", "lower", "download_p50_ms on portal"),
    ("fileserver.bytes_served", "B/op", "lower", "download_p50_ms on portal"),
    ("fileserver.put.ms", "ms/op", "lower", "insert_p50_ms on ingest"),
    ("fileserver.dl_link.ms", "ms/op", "lower", "insert_p50_ms on ingest"),
    ("replication.self_ms", "ms/op", "lower", "failover_download_p50_ms on portal"),
    ("replication.failovers", "1/op", "lower", "failover_download_p50_ms on portal"),
    ("replication.pump.ms", "ms/op", "lower", "ops_per_s on ingest"),
    ("replication.ops_applied", "1/op", "lower", "ops_per_s on ingest"),
    ("replication.max_lag", "ops", "lower", "ops_per_s on ingest"),
    ("replication.retries", "1/op", "lower", "ops_per_s on ingest"),
    ("operations.invoke.ms", "ms/op", "lower", "operation_p50_ms and p99_ms on postprocess"),
    ("operations.cache.hit_ratio", "ratio", "higher", "operation_p50_ms on postprocess"),
    ("operations.sandbox.ms", "ms/op", "lower", "operation_p50_ms and p99_ms on postprocess"),
    ("operations.output_bytes", "B/op", "lower", "p99_ms on postprocess"),
    ("unattributed_ms", "ms/op", "lower", "coverage of the layer breakdown"),
    ("attributed_share", "ratio", "higher", "coverage of the layer breakdown"),
    ("trace_overhead_ratio", "ratio", "lower", "cost of the traced run"),
    ("generator_late_ms", "ms", "lower", "open-loop writer on mixed"),
]


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _closed_loop(workload, rec: Recorder) -> list[float]:
    """The latencies of the workload's closed-loop client.  An open-loop
    generator's operations run at a fixed rate and are timed from when
    they fell due; pooled with the client's, the share of each in the
    percentiles would follow the client's speed."""
    return [
        v for kind, values in rec.samples.items()
        if kind not in workload.OPEN_LOOP for v in values
    ]


def program_counters(workload) -> dict[str, float]:
    """The program's own running counters, read before and after the
    traced window."""
    db, linker, engine = workload.program()
    servers, sets = [], []
    for server in linker.servers():
        replicas = getattr(server, "replicas", None)
        if replicas is None:
            servers.append(server)
        else:
            sets.append(server)
            servers.extend(replica.server for replica in replicas)
    return {
        "statement_cache.hits": db.statement_cache_hits,
        "statement_cache.misses": db.statement_cache_misses,
        "tokens.issued": linker.tokens.issued_count,
        "tokens.validated": linker.tokens.validated_count,
        "links_applied": linker.links_applied,
        "unlinks_applied": linker.unlinks_applied,
        "bytes_served": sum(s.bytes_served for s in servers),
        "failovers": sum(s.failovers for s in sets),
        "ops_applied": sum(s.queue.ops_applied for s in sets),
        "retries": sum(s.queue.retries for s in sets),
        "max_lag": max((s.queue.max_lag() for s in sets), default=0),
        "operation_cache.hits": engine.cache.hits if engine else 0,
        "operation_cache.misses": engine.cache.misses if engine else 0,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, obs, before: dict, after: dict,
                  p50_untraced_ms: float, p50_traced_ms: float,
                  late_s: list[float]) -> dict[str, float]:
    """Per-layer metrics of one traced window."""
    self_s, root_s, ops = tracer.self_times()
    delta = {k: after[k] - before[k] for k in before}
    per_op = 1.0 / ops if ops else 0.0
    metrics = {
        name: 1e3 * per_op * self_s.get(span, 0.0)
        for name, span in LAYER_SPANS.items()
    }
    counter = lambda name: obs.metrics.counter(name).value  # noqa: E731
    histogram = obs.metrics.histogram
    metrics.update({
        "web.render.rows": per_op * tracer.counts["web.render.rows"],
        "xuis.conditions_evaluated": per_op * tracer.counts["xuis.conditions_evaluated"],
        "sqldb.statement_cache.hit_ratio": _ratio(
            delta["statement_cache.hits"],
            delta["statement_cache.hits"] + delta["statement_cache.misses"],
        ),
        "sqldb.rows_scanned_per_returned": _ratio(
            counter("sql.rows_scanned"), counter("sql.rows_returned")
        ),
        "sqldb.snapshot.retry_ratio": _ratio(
            counter("sqldb.snapshot.retries"), counter("sqldb.snapshot.reads")
        ),
        "sqldb.snapshot.age_commits_p99":
            histogram("sqldb.snapshot.age_commits").quantile(0.99),
        "sqldb.writer_lock.wait_ms":
            1e3 * per_op * histogram("sqldb.writer_lock.wait_seconds").total,
        "sqldb.pool.checkout_wait_ms":
            1e3 * per_op * histogram("sqldb.pool.checkout_wait_seconds").total,
        "sqldb.wal.fsyncs": per_op * counter("wal.append.fsync"),
        "sqldb.wal.bytes_per_row": _ratio(
            tracer.counts["sqldb.wal.bytes"], tracer.counts["sqldb.wal.rows"]
        ),
        "datalink.tokens.issued": per_op * delta["tokens.issued"],
        "datalink.tokens.validated": per_op * delta["tokens.validated"],
        "datalink.links_applied": per_op * delta["links_applied"],
        "datalink.unlinks_applied": per_op * delta["unlinks_applied"],
        "fileserver.bytes_served": per_op * delta["bytes_served"],
        "replication.failovers": per_op * delta["failovers"],
        "replication.ops_applied": per_op * delta["ops_applied"],
        "replication.max_lag": after["max_lag"],
        "replication.retries": per_op * delta["retries"],
        "operations.cache.hit_ratio": _ratio(
            delta["operation_cache.hits"],
            delta["operation_cache.hits"] + delta["operation_cache.misses"],
        ),
        "operations.output_bytes":
            per_op * histogram("operation.output_bytes").total,
        "attributed_share": 1.0 - _ratio(self_s.get(ROOT, 0.0), root_s),
        "trace_overhead_ratio": _ratio(p50_traced_ms, p50_untraced_ms),
        "generator_late_ms": 1e3 * statistics.fmean(late_s) if late_s else 0.0,
    })
    return metrics


class Outcome:
    """What one run measured: metrics, counts and a printable report."""

    def __init__(self) -> None:
        self.metrics: dict[str, tuple[float, str]] = {}
        #: sample counts behind the latency metrics
        self.samples: dict[str, int] = {}
        self.rec = Recorder()
        self.lines: list[str] = []
        #: layer functions the traced run could not wrap
        self.missing: list[str] = []

    @property
    def correct(self) -> bool:
        return self.rec.failed == 0

    def result(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": max(1, self.rec.attempted),
            "failed": self.rec.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


def _kind_lines(rec: Recorder) -> list[str]:
    lines = []
    for name, kinds, q in KIND_METRICS:
        values = [v for kind in kinds for v in rec.samples.get(kind, ())]
        if values:
            lines.append(
                f"  {name:<28} {1e3 * percentile(values, q):10.4f} ms"
                f"  (n={len(values)})"
            )
    return lines


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        base_dir: str, size: str = "full", prepare=None) -> Outcome:
    """Set up, warm up, measure and verify one workload.

    ``prepare(workload)`` runs after set-up, before any operation; the
    self-test uses it to inject faults.
    """
    workdir = os.path.join(base_dir, f"work-{workload_name}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    workload = WORKLOADS[workload_name](seed, workdir, size)
    outcome = Outcome()
    try:
        setups: list[float] = []
        for _ in range(1 if trace else SETUPS):
            started = perf_counter()
            workload.setup()
            table1 = check_table1()
            setups.append(perf_counter() - started)
        outcome.rec.check("; ".join(table1) or None, "Table 1 exact")
        if prepare is not None:
            prepare(workload)
        gc.collect()  # the set-ups' garbage is not the workload's
        warm = Recorder()
        workload.run(min(WARMUP_SECONDS, seconds), warm, random.Random(seed + 1))
        if warm.failed:
            outcome.rec.check(f"{warm.failed} failed: {warm.errors}", "warm-up")
        rng = random.Random(seed)
        if trace:
            _traced(workload, outcome, seconds, rng, base_dir, seed)
        else:
            _untraced(workload, outcome, seconds, rng, setups)
        workload.verify(outcome.rec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    rec = outcome.rec
    outcome.lines.append(
        f"{workload_name}: seed {seed}, {rec.attempted} attempted, "
        f"{rec.failed} failed (error_rate {_ratio(rec.failed, rec.attempted):.4g})"
    )
    outcome.lines.extend(f"  error: {e}" for e in rec.errors)
    outcome.lines.extend(
        f"  known defect, not counted as failed: {defect} ({n} times)"
        for defect, n in rec.known.items()
    )
    outcome.lines.extend(_kind_lines(rec))
    late = getattr(workload, "late", None)
    if late:
        outcome.lines.append(
            f"  writer started late by {1e3 * statistics.fmean(late):.4f} ms"
            f" on average, {1e3 * max(late):.4f} ms at most (n={len(late)})"
        )
    for name, (value, unit) in outcome.metrics.items():
        n = outcome.samples.get(name)
        outcome.lines.append(
            f"  {name:<34} {value:12.6g} {unit}" + (f"  (n={n})" if n else "")
        )
    return outcome


def _untraced(workload, outcome: Outcome, seconds: float, rng,
              setups: list[float]) -> None:
    started = perf_counter()
    workload.run(seconds, outcome.rec, rng)
    elapsed = perf_counter() - started
    samples = _closed_loop(workload, outcome.rec)
    outcome.metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
        "ops_per_s": (len(samples) / elapsed, "1/s"),
        "p50_ms": (1e3 * percentile(samples, 50), "ms"),
        "p99_ms": (1e3 * percentile(samples, 99), "ms"),
    }
    outcome.samples = {"p50_ms": len(samples), "p99_ms": len(samples)}


def _traced(workload, outcome: Outcome, seconds: float, rng, base_dir: str,
            seed: int) -> None:
    """Half the time untraced, half traced: the two p50s give the
    tracing overhead, the traced half gives the layer breakdown."""
    plain = Recorder()
    workload.run(seconds / 2, plain, rng)
    outcome.rec.merge(plain)
    tracer = Tracer()
    obs = repro.obs.enable()
    tracer.install()
    try:
        before = program_counters(workload)
        traced = Recorder()
        workload.run(seconds / 2, traced, rng, tracer)
        after = program_counters(workload)
    finally:
        tracer.uninstall()
        repro.obs.disable()
    outcome.rec.merge(traced)
    # a wrapped function the program no longer has: its time shows up in
    # the caller's layer, and its layer metric reads 0
    outcome.missing = list(tracer.missing)
    outcome.lines.extend(f"  not traced: {t}" for t in tracer.missing)
    late = list(getattr(workload, "late", ()))
    metrics = layer_metrics(
        tracer, obs, before, after,
        1e3 * percentile(_closed_loop(workload, plain), 50),
        1e3 * percentile(_closed_loop(workload, traced), 50),
        late,
    )
    units = {name: unit for name, unit, _better, _moves in PER_LAYER}
    outcome.metrics = {name: (metrics[name], units[name]) for name, *_ in PER_LAYER}
    tracer.dump(os.path.join(base_dir, f"trace-{workload.name}-{seed}.jsonl.gz"))
