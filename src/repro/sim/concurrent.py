"""Concurrent-ingest harnesses: worker-count invariance and mid-run reads.

Two experiment modes over the same deterministic streams every other
harness uses:

* :func:`run_concurrent_experiment` — drive one stream through a
  sequential reference and through parallel deployments at several
  worker counts (thread or process lanes), fingerprint each run with
  the shared oracle (:mod:`repro.concurrent.verify`) and return the
  violations — empty means bit-identical byte tables, meter series,
  shard ledgers, query signatures and stored-trace sets;
* :func:`run_snapshot_experiment` — interleave ingest with mid-run
  queries and pattern-plane snapshot reads, checking that snapshots
  are versioned monotonically, never lose patterns, and that mid-run
  answers match the sequential run's at the same prefix.

Every function returns violations instead of asserting, so the bench
gate (``benchmarks/perf/run.py concurrent --check``) and the unit
tests share one implementation of the checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.concurrent.verify import compare_fingerprints, fingerprint
from repro.framework import MintFramework
from repro.sim.experiment import drive, generate_stream
from repro.transport import Deployment
from repro.workloads.specs import Workload

DEFAULT_WORKER_COUNTS = (1, 2, 4)


@dataclass
class ConcurrentExperimentResult:
    """Everything one invariance experiment produced."""

    workload: str
    deployment_label: str
    worker_counts: tuple[int, ...]
    mode: str
    violations: list[str] = field(default_factory=list)
    epochs_applied: dict[int, int] = field(default_factory=dict)

    @property
    def identical(self) -> bool:
        """True when every parallel run matched the reference bit-for-bit."""
        return not self.violations


def _deployment(num_shards: int, workers: int, mode: str, epoch: int) -> Deployment:
    if num_shards > 0:
        return Deployment.sharded(
            num_shards, workers=workers, worker_mode=mode, ingest_epoch=epoch
        )
    return Deployment.single(workers=workers, worker_mode=mode, ingest_epoch=epoch)


def run_concurrent_experiment(
    workload: Workload,
    num_traces: int = 300,
    warmup_traces: int = 100,
    worker_counts: tuple[int, ...] = DEFAULT_WORKER_COUNTS,
    num_shards: int = 0,
    mode: str = "thread",
    ingest_epoch: int = 32,
    abnormal_rate: float = 0.02,
    seed: int = 17,
) -> ConcurrentExperimentResult:
    """Worker-count invariance over one workload and topology.

    The reference is the *same topology at workers=0* (the classic
    single-threaded loop), so the experiment isolates exactly what this
    plane changes; the sharded topology's own equivalence to the single
    backend is pinned separately by the sharded gate.
    """
    stream, _ = generate_stream(
        workload, num_traces, abnormal_rate=abnormal_rate, seed=seed
    )
    reference = MintFramework(
        auto_warmup_traces=warmup_traces,
        deployment=_deployment(num_shards, 0, "thread", ingest_epoch),
    )
    drive(reference, stream)
    reference_print = fingerprint(reference, stream)

    result = ConcurrentExperimentResult(
        workload=workload.name,
        deployment_label=reference.deployment.describe(),
        worker_counts=tuple(worker_counts),
        mode=mode,
    )
    for workers in worker_counts:
        framework = MintFramework(
            auto_warmup_traces=warmup_traces,
            deployment=_deployment(num_shards, workers, mode, ingest_epoch),
        )
        try:
            drive(framework, stream)
            candidate_print = fingerprint(framework, stream)
            result.violations.extend(
                compare_fingerprints(
                    reference_print, candidate_print, label=f"workers={workers}"
                )
            )
            if framework._plane is not None:
                result.epochs_applied[workers] = framework._plane.epochs_applied
        finally:
            framework.close()
    return result


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
