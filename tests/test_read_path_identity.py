"""The optimised read path against the frozen oracle.

``tests/reference_read_path.py`` holds the recomputing bodies the read
path had before; here they are patched under a live deployment and the
optimised path must answer deeply equal — status, every span, every
segment and their order — on three workloads across a single engine,
two shards, a sealed cold tier, and an elastic crash read taken
mid-outage and again after recovery.
"""

from __future__ import annotations

import pytest
import reference_read_path

from repro.cold import ColdPolicy
from repro.elastic.chaos import SHARD_CHAOS_PROFILES, fit_outages
from repro.framework import MintFramework
from repro.query import QuerySpec
from repro.sim.experiment import drive, generate_stream
from repro.transport.deployment import Deployment
from repro.workloads import build_dataset, build_onlineboutique, build_trainticket

WORKLOADS = {
    "trainticket": build_trainticket,
    "onlineboutique": build_onlineboutique,
    "dataset-A": lambda: build_dataset("A"),
}


def deep(result):
    """Everything an answer carries, as plain comparable data."""
    exact = approximate = None
    if result.trace is not None:
        exact = [
            (
                span.span_id,
                span.parent_id,
                span.trace_id,
                span.name,
                span.service,
                span.kind,
                span.status,
                span.node,
                span.start_time,
                span.duration,
                dict(span.attributes),
            )
            for span in result.trace.spans
        ]
    if result.approximate is not None:
        approximate = [
            (
                seg.topo_pattern_id,
                list(seg.nodes_reporting),
                [dict(view, attributes=dict(view["attributes"])) for view in seg.spans],
                list(seg.entry_ops),
                list(seg.exit_ops),
            )
            for seg in result.approximate.segments
        ]
    return (result.trace_id, result.status, exact, approximate)


def answers(framework, ids):
    """Point lookups, one batch (with repeats) and a predicate sweep."""
    topo_ids = sorted(framework.backend.storage.topo_patterns)
    specs = [QuerySpec.where(candidates=ids, error_only=True)]
    if topo_ids:
        specs.append(QuerySpec.where(candidates=ids, topo_pattern_id=topo_ids[0]))
    return (
        [deep(framework.query(trace_id)) for trace_id in ids],
        [deep(r) for r in framework.query_many(ids + ids[:10])],
        [[deep(r) for r in framework.execute(spec)] for spec in specs],
    )


def assert_identical_to_oracle(framework, ids):
    got = answers(framework, ids)
    with pytest.MonkeyPatch.context() as patch:
        reference_read_path.install(patch)
        want = answers(framework, ids)
    assert got == want
    return got


def statuses(got):
    return {status for _, status, _, _ in got[0]}


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def stream(request):
    workload = WORKLOADS[request.param]()
    traces, _ = generate_stream(workload, 260, abnormal_rate=0.1, seed=9)
    ids = [trace.trace_id for _, trace in traces[60:]] + ["no-such-trace"]
    return traces, ids


@pytest.mark.parametrize("shards", [1, 2], ids=["single", "sharded-2"])
def test_hot_and_sealed_answers_equal_the_oracle(stream, shards):
    traces, ids = stream
    deployment = Deployment.single() if shards == 1 else Deployment.sharded(shards)
    framework = MintFramework(deployment=deployment)
    framework.warm_up([trace for _, trace in traces[:60]])
    drive(framework, traces[60:])
    hot = assert_identical_to_oracle(framework, ids)
    assert statuses(hot) == {"exact", "partial", "miss"}
    framework.compact(ColdPolicy(keep_hot_traces=5))
    assert framework.cold_stats()["sealed_blocks"] > 0
    assert assert_identical_to_oracle(framework, ids) == hot
    framework.close()


def test_elastic_crash_read_mid_outage_and_after_recovery(stream):
    traces, ids = stream
    online = traces[60:]
    chaos = fit_outages(SHARD_CHAOS_PROFILES["crash_restart"], online[-1][0])
    window = next(o for o in chaos.outages if o.mode == "crash")
    probe_at = (window.start_s + window.end_s) / 2.0
    framework = MintFramework(
        deployment=Deployment.sharded(2, shard_chaos=chaos)
    )
    framework.warm_up([trace for _, trace in traces[:60]])
    mid = None
    for now, trace in online:
        framework.process_trace(trace, now)
        if mid is None and now >= probe_at:
            assert framework.backend.down_shards()
            mid = assert_identical_to_oracle(framework, ids)
    framework.finalize(online[-1][0])
    assert mid is not None and not framework.backend.down_shards()
    healthy = assert_identical_to_oracle(framework, ids)
    assert healthy != mid
    framework.close()
