"""Self-test of the benchmark itself, at tiny sizes.

Run from the root of the checkout::

    python3 -m pytest perfbench -q

Every workload, untraced and traced, must emit every metric it promises
with a unit, and the traced breakdown must cover at least 90% of the
end-to-end time.  Negative controls corrupt a follower replica and show
that the output checks catch it.
"""

from __future__ import annotations

import json
import os
import random
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import bench  # noqa: E402
from perfbench.workloads import SEARCH_SNAPSHOT_SPLIT, Recorder  # noqa: E402

SECONDS = 0.6


def _run(tmp_path, workload, trace=False, prepare=None):
    return bench.run(workload, 3, SECONDS, trace, str(tmp_path), "tiny",
                     prepare=prepare)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_every_metric_is_emitted_with_a_unit(tmp_path, workload, trace):
    outcome = _run(tmp_path, workload, trace)
    result = outcome.result()
    assert result["correct"], "\n".join(outcome.lines)
    assert result["failed"] == 0 and result["attempted"] > 0
    table = bench.PER_LAYER if trace else bench.END_TO_END
    assert list(result["metrics"]) == [row[0] for row in table]
    for row in table:
        metric = result["metrics"][row[0]]
        assert metric["unit"] == row[1]
        assert isinstance(metric["value"], (int, float))
    if trace:
        assert outcome.missing == []
        assert result["metrics"]["attributed_share"]["value"] >= 0.9
        assert os.path.exists(tmp_path / f"trace-{workload}-3.jsonl.gz")
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_lists_the_same_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in spec["end_to_end"]
    ] == bench.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        row[:3] for row in bench.PER_LAYER
    ]


def _corrupt_follower(replica_set) -> None:
    follower = replica_set.followers[0].server
    for path in follower.manifest():
        follower.filesystem.dl_put(path, b"bit-rot")


def test_corrupt_follower_fails_failover_downloads(tmp_path):
    """With the primary down, downloads come from the corrupted follower:
    the sha256 check must count them as failed."""
    outcome = _run(
        tmp_path, "portal",
        prepare=lambda w: _corrupt_follower(w.fixture.archive.servers[0]),
    )
    assert not outcome.correct
    assert outcome.rec.failed > 0
    assert any("sha256 mismatch" in e for e in outcome.rec.errors)


def test_corrupt_follower_fails_the_replica_check(tmp_path):
    """Followers corrupted after the writes: the end-of-run check of the
    ingest workload must count the divergence as failed."""
    workload = bench.WORKLOADS["ingest"](3, str(tmp_path), "tiny")
    workload.setup()
    rec = Recorder()
    workload.run(SECONDS, rec, random.Random(3))
    assert rec.failed == 0
    _corrupt_follower(workload.archive.servers[1])
    workload.verify(rec)
    assert rec.failed > 0
    assert any("replicas caught up" in e for e in rec.errors)


def _page(rows: int, total: int) -> tuple:
    body = "<tr>" * (rows + 1) + f"<p>page 1 of 1 ({total} rows)</p>"
    return 200, [], body.encode()


def test_mixed_page_check_tells_the_known_defect_from_a_failure(tmp_path):
    """A page that disagrees with its own footer is the known two-snapshot
    defect only if a write was in flight, and only by that many rows."""
    workload = bench.WORKLOADS["mixed"](3, str(tmp_path), "tiny")
    workload.setup()
    everything = range(workload.size["simulations"])
    total = workload._count(everything)

    assert workload._racing(everything, 1)(_page(total, total)) is None
    quiet = workload._racing(everything, 1)
    assert quiet(_page(total - 1, total)) == f"{total - 1} rows on page 1, footer says {total}"

    racing = workload._racing(everything, 1)
    workload.writer.started += 1  # a write begins during the request
    assert racing(_page(total - 1, total)) is SEARCH_SNAPSHOT_SPLIT
    assert racing(_page(total - 2, total)) == f"{total - 2} rows on page 1, footer says {total}"
    assert racing(_page(total, total + 2)).startswith("total ")
