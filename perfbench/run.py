"""End-to-end benchmark of the EASIA archive.

Run from the root of a checkout of the repository::

    python3 perfbench/run.py --workload portal --seed 1 --seconds 15 --trace 0

Workloads: ``portal``, ``ingest``, ``mixed``, ``postprocess`` (see
``perfbench/workloads.py``).  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` runs the same workload with the layer boundaries
wrapped and reports the per-layer breakdown.  A readable report goes to
standard output; its last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every output check passed.

The program under test is imported from ``src/`` next to this directory;
scratch files and span dumps go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    # a terminated run still removes its scratch directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    from perfbench import bench

    if args.workload not in bench.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    outcome = bench.run(
        args.workload, args.seed, args.seconds, bool(args.trace), OUT
    )
    print("\n".join(outcome.lines))
    print(json.dumps(outcome.result()))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
