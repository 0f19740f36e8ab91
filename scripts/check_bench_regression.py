#!/usr/bin/env python3
"""Compare a pytest-benchmark JSON run against a committed baseline.

Usage:
    python scripts/check_bench_regression.py BASELINE CURRENT [--max-ratio 2.0]
    python scripts/check_bench_regression.py --concurrency BENCH_concurrency.json
    python scripts/check_bench_regression.py --replication BENCH_replication.json

Benchmarks whose name contains one of the guarded keywords (point lookups,
joins, the QBE wildcard scan, top-N pagination and the end-to-end web
search — the query engine's hot paths) fail the check when their median
exceeds ``max-ratio`` times the baseline median.  Other benchmarks are
reported but never fail: absolute CI-runner speed varies, so only the
guarded set is enforced, and only by ratio.

``--concurrency`` validates the concurrency benchmark's result file
(produced by benchmarks/test_bench_concurrency.py) instead of or in
addition to the median comparison: torn_reads must be exactly 0 and the
snapshot-vs-serialized speedup must meet ``--min-speedup`` (default 4.0).

``--replication`` validates the failover benchmark's result file
(produced by benchmarks/test_bench_replication.py): failover_errors must
be exactly 0, the anti-entropy repair must end checksum-clean, and the
degraded/healthy download-time ratio must stay under ``--max-overhead``
(default 5.0).

Exit status: 0 when every enforced gate holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys

#: benchmarks whose median regressing past the ratio fails the gate
GUARDED_KEYWORDS = (
    "lookup", "join", "wildcard_scan", "topn", "full_web_search",
)


def load_medians(path: str) -> dict[str, float]:
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    return {
        bench["name"]: bench["stats"]["median"]
        for bench in payload.get("benchmarks", [])
    }


def check_medians(baseline_path: str, current_path: str,
                  max_ratio: float) -> list[str]:
    baseline = load_medians(baseline_path)
    current = load_medians(current_path)

    failures: list[str] = []
    for name, median in sorted(current.items()):
        reference = baseline.get(name)
        if reference is None or reference <= 0.0:
            print(f"  new       {name}: {median * 1e6:.1f} us (no baseline)")
            continue
        ratio = median / reference
        guarded = any(keyword in name.lower() for keyword in GUARDED_KEYWORDS)
        status = "ok"
        if ratio > max_ratio and guarded:
            status = "REGRESSED"
            failures.append(
                f"{name}: median {median * 1e6:.1f} us vs baseline "
                f"{reference * 1e6:.1f} us ({ratio:.2f}x > {max_ratio}x)"
            )
        elif ratio > max_ratio:
            status = "slower (unguarded)"
        print(
            f"  {status:<18} {name}: {median * 1e6:.1f} us "
            f"({ratio:.2f}x baseline)"
        )

    missing = sorted(set(baseline) - set(current))
    for name in missing:
        print(f"  missing   {name}: present in baseline but not in this run")
    return failures


def check_concurrency(path: str, min_speedup: float) -> list[str]:
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)

    failures: list[str] = []
    torn = payload.get("torn_reads")
    speedup = payload.get("speedup")
    if torn is None or speedup is None:
        return [f"{path}: missing torn_reads/speedup keys"]
    if torn != 0:
        failures.append(
            f"{path}: {torn} torn read(s) observed — isolation is broken"
        )
    if speedup < min_speedup:
        failures.append(
            f"{path}: snapshot-read speedup {speedup:.2f}x below the "
            f"{min_speedup:g}x floor"
        )
    print(
        f"  concurrency: {payload.get('snapshot_reads', '?')} snapshot reads "
        f"vs {payload.get('serialized_reads', '?')} serialized "
        f"({speedup:.2f}x, {torn} torn)"
    )
    return failures


def check_replication(path: str, max_overhead: float) -> list[str]:
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)

    failures: list[str] = []
    errors = payload.get("failover_errors")
    overhead = payload.get("overhead_ratio")
    clean = payload.get("repair_clean")
    if errors is None or overhead is None or clean is None:
        return [f"{path}: missing failover_errors/overhead_ratio/repair_clean keys"]
    if errors != 0:
        failures.append(
            f"{path}: {errors} download(s) failed with a replica dead — "
            f"failover must be invisible to users"
        )
    if overhead > max_overhead:
        failures.append(
            f"{path}: degraded downloads {overhead:.2f}x slower than "
            f"healthy, above the {max_overhead:g}x ceiling"
        )
    if not clean:
        failures.append(
            f"{path}: anti-entropy repair did not converge to a "
            f"checksum-clean replica set"
        )
    print(
        f"  replication: {payload.get('failovers', '?')} failover(s), "
        f"{errors} error(s), {overhead:.2f}x overhead, "
        f"repair {'clean' if clean else 'DIVERGED'}"
    )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", nargs="?", help="committed baseline JSON")
    parser.add_argument("current", nargs="?", help="freshly generated JSON")
    parser.add_argument(
        "--max-ratio", type=float, default=2.0,
        help="fail when current/baseline median exceeds this (default 2.0)",
    )
    parser.add_argument(
        "--concurrency", metavar="PATH",
        help="validate a BENCH_concurrency.json result file",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=4.0,
        help="concurrency gate: snapshot reads must beat serialized reads "
             "by at least this factor (default 4.0)",
    )
    parser.add_argument(
        "--replication", metavar="PATH",
        help="validate a BENCH_replication.json result file",
    )
    parser.add_argument(
        "--max-overhead", type=float, default=5.0,
        help="replication gate: degraded/healthy download-time ratio "
             "ceiling (default 5.0)",
    )
    args = parser.parse_args(argv)

    if not args.concurrency and not args.replication and not (
        args.baseline and args.current
    ):
        parser.error(
            "need BASELINE CURRENT, --concurrency PATH, --replication PATH, "
            "or a combination"
        )
    if (args.baseline is None) != (args.current is None):
        parser.error("BASELINE and CURRENT must be given together")

    failures: list[str] = []
    if args.baseline and args.current:
        failures += check_medians(args.baseline, args.current, args.max_ratio)
    if args.concurrency:
        failures += check_concurrency(args.concurrency, args.min_speedup)
    if args.replication:
        failures += check_replication(args.replication, args.max_overhead)

    if failures:
        print("\nperformance regression gate FAILED:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print("\nperformance regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
