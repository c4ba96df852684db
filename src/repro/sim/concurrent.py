"""Concurrent-ingest harness: mid-run reads against live lanes.

:func:`run_snapshot_experiment` interleaves ingest with mid-run queries
and pattern-plane snapshot reads, checking that snapshots are versioned
monotonically, never lose patterns, and that mid-run answers match the
sequential run's at the same prefix.  It returns violations instead of
asserting, so callers decide how to fail.  Worker-count invariance of
finished runs is not checked here: the concurrent gate
(``benchmarks/perf/run.py concurrent --check``) and the test suite diff
each parallel run against the identity oracle (:mod:`repro.verify`).
"""

from __future__ import annotations

from repro.framework import MintFramework
from repro.sim.experiment import generate_stream
from repro.transport import Deployment
from repro.workloads.specs import Workload


def _deployment(num_shards: int, workers: int, mode: str, epoch: int) -> Deployment:
    if num_shards > 0:
        return Deployment.sharded(
            num_shards, workers=workers, worker_mode=mode, ingest_epoch=epoch
        )
    return Deployment.single(workers=workers, worker_mode=mode, ingest_epoch=epoch)


def run_snapshot_experiment(
    workload: Workload,
    num_traces: int = 240,
    warmup_traces: int = 80,
    workers: int = 3,
    num_shards: int = 0,
    mode: str = "thread",
    ingest_epoch: int = 16,
    probe_every: int = 40,
    seed: int = 17,
) -> list[str]:
    """Mid-run reads against a live parallel deployment.

    Every ``probe_every`` traces the harness queries the just-ingested
    trace on both the parallel deployment and a sequential twin driven
    in lockstep, and reads the published pattern snapshot.  Checks:
    identical mid-run answers, monotonically non-decreasing snapshot
    versions and pattern counts, and a final snapshot that matches the
    backend store exactly.
    """
    stream, _ = generate_stream(workload, num_traces, abnormal_rate=0.02, seed=seed)
    violations: list[str] = []
    parallel = MintFramework(
        auto_warmup_traces=warmup_traces,
        deployment=_deployment(num_shards, workers, mode, ingest_epoch),
    )
    twin = MintFramework(
        auto_warmup_traces=warmup_traces,
        deployment=_deployment(num_shards, 0, "thread", ingest_epoch),
    )
    try:
        last_version = -1
        last_count = 0
        last_now = 0.0
        for index, (now, trace) in enumerate(stream):
            parallel.process_trace(trace, now)
            twin.process_trace(trace, now)
            last_now = now
            if (index + 1) % probe_every:
                continue
            ours = parallel.query(trace.trace_id)
            theirs = twin.query(trace.trace_id)
            if (ours.status, ours.trace_id) != (theirs.status, theirs.trace_id):
                violations.append(
                    f"trace {index}: mid-run answer {ours.status} != "
                    f"sequential {theirs.status}"
                )
            snapshot = parallel.pattern_snapshot()
            if snapshot.version < last_version:
                violations.append(
                    f"trace {index}: snapshot version went backwards "
                    f"({last_version} -> {snapshot.version})"
                )
            if len(snapshot) < last_count:
                violations.append(
                    f"trace {index}: snapshot lost patterns "
                    f"({last_count} -> {len(snapshot)})"
                )
            last_version, last_count = snapshot.version, len(snapshot)
        parallel.finalize(last_now)
        twin.finalize(last_now)
        snapshot = parallel.pattern_snapshot()
        storage = parallel.backend.storage
        if set(snapshot.span_patterns) != set(storage.span_patterns) or set(
            snapshot.topo_patterns
        ) != set(storage.topo_patterns):
            violations.append("final snapshot does not match the backend store")
        if snapshot.pattern_bytes != storage.pattern_bytes:
            violations.append(
                f"final snapshot pattern bytes {snapshot.pattern_bytes} != "
                f"store {storage.pattern_bytes}"
            )
    finally:
        parallel.close()
        twin.close()
    return violations
