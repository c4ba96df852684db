"""The concurrent ingest plane: lanes, proxies, barriers, snapshots.

The load-bearing contract here is worker-count invariance — a parallel
deployment at ANY worker count, in EITHER lane mode, must be
bit-identical to the single-threaded run of the same topology: byte
tables, per-minute meter series, per-shard charge attribution, query
signatures and stored-trace sets.  The race/stress CI lane reruns this
module 20x with randomized worker counts, so anything order- or
timing-dependent that slips past the design will flake there loudly.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.concurrent.lanes import LaneError, ProcessLane, ThreadLane, make_lane
from repro.concurrent.snapshot import PatternPlaneSnapshot
from repro.framework import MintFramework
from repro.sim.concurrent import run_snapshot_experiment
from repro.sim.experiment import drive as sim_drive
from repro.sim.experiment import generate_stream
from repro.transport import Deployment
from repro.verify import compare_fingerprints, fingerprint

NUM_TRACES = 160
WARMUP = 60

# The stress lane exports a randomized count; default exercises 3 (an
# uneven fleet split, the interesting case between 1 and powers of two).
STRESS_WORKERS = int(os.environ.get("CONCURRENT_STRESS_WORKERS", "3"))


@pytest.fixture(scope="module")
def stream(boutique_workload):
    stream, _ = generate_stream(
        boutique_workload, NUM_TRACES, abnormal_rate=0.02, seed=17
    )
    return stream


def drive(framework, stream):
    sim_drive(framework, stream)
    return framework


@pytest.fixture(scope="module")
def reference_print(stream):
    framework = drive(MintFramework(auto_warmup_traces=WARMUP), stream)
    return fingerprint(framework, stream)


class TestWorkerCountInvariance:
    @pytest.mark.parametrize("workers", [1, 2, STRESS_WORKERS, 8])
    def test_thread_lanes_bit_identical_to_sequential(
        self, stream, reference_print, workers
    ):
        framework = drive(
            MintFramework(
                auto_warmup_traces=WARMUP,
                deployment=Deployment.single(workers=workers),
            ),
            stream,
        )
        try:
            violations = compare_fingerprints(
                reference_print, fingerprint(framework, stream)
            )
            assert violations == []
        finally:
            framework.close()

    def test_process_lanes_bit_identical_to_sequential(
        self, stream, reference_print
    ):
        framework = drive(
            MintFramework(
                auto_warmup_traces=WARMUP,
                deployment=Deployment.single(workers=2, worker_mode="process"),
            ),
            stream,
        )
        try:
            violations = compare_fingerprints(
                reference_print, fingerprint(framework, stream)
            )
            assert violations == []
        finally:
            framework.close()

    def test_sharded_parallel_matches_sharded_sequential(self, stream):
        for shards, worker_counts in ((4, (4,)), (2, (1, STRESS_WORKERS))):
            sequential = drive(
                MintFramework(
                    auto_warmup_traces=WARMUP, deployment=Deployment.sharded(shards)
                ),
                stream,
            )
            sequential_print = fingerprint(sequential, stream)
            epochs_applied = set()
            for workers in worker_counts:
                framework = drive(
                    MintFramework(
                        auto_warmup_traces=WARMUP,
                        deployment=Deployment.sharded(shards, workers=workers),
                    ),
                    stream,
                )
                try:
                    violations = compare_fingerprints(
                        sequential_print, fingerprint(framework, stream)
                    )
                    assert violations == [], (shards, workers)
                    epochs_applied.add(framework._plane.epochs_applied)
                finally:
                    framework.close()
            # Epoch application is worker-count independent by design.
            assert len(epochs_applied) == 1, shards

    def test_host_first_seen_mid_epoch(self, boutique_workload):
        # Warm-up 20 < epoch 32: ob-node-3 first shows in trace 22, so
        # its collector must join the notification fan-out at that
        # trace's turn in the epoch replay, not when it was submitted.
        stream, _ = generate_stream(boutique_workload, 60, seed=17)
        reference = fingerprint(drive(MintFramework(auto_warmup_traces=20), stream), stream)
        for deployment in (
            Deployment.single(workers=1),
            Deployment.single(workers=2, worker_mode="process"),
        ):
            framework = drive(
                MintFramework(auto_warmup_traces=20, deployment=deployment), stream
            )
            try:
                violations = compare_fingerprints(reference, fingerprint(framework, stream))
                assert violations == [], deployment.describe()
            finally:
                framework.close()

    def test_epoch_size_does_not_change_results(self, stream, reference_print):
        # The epoch is a latency/throughput knob, never a results knob.
        for epoch in (1, 7, 256):
            framework = drive(
                MintFramework(
                    auto_warmup_traces=WARMUP,
                    deployment=Deployment.single(workers=2, ingest_epoch=epoch),
                ),
                stream,
            )
            try:
                assert (
                    compare_fingerprints(
                        reference_print, fingerprint(framework, stream)
                    )
                    == []
                ), f"ingest_epoch={epoch} diverged"
            finally:
                framework.close()

    def test_randomized_worker_counts_and_epochs(self, stream, reference_print):
        # The stress lane's core: every (workers, epoch) draw must agree.
        rng = random.Random()  # deliberately unseeded; CI reruns 20x
        for _ in range(2):
            workers = rng.randint(1, 9)
            epoch = rng.choice([1, 3, 16, 64])
            framework = drive(
                MintFramework(
                    auto_warmup_traces=WARMUP,
                    deployment=Deployment.single(
                        workers=workers, ingest_epoch=epoch
                    ),
                ),
                stream,
            )
            try:
                assert (
                    compare_fingerprints(
                        reference_print, fingerprint(framework, stream)
                    )
                    == []
                ), f"workers={workers} ingest_epoch={epoch} diverged"
            finally:
                framework.close()


class TestHarness:
    def test_run_snapshot_experiment_clean(self, boutique_workload):
        violations = run_snapshot_experiment(
            boutique_workload, num_traces=120, warmup_traces=50, workers=2
        )
        assert violations == []


class TestMidRunReads:
    def test_queries_quiesce_partial_epochs(self, stream):
        parallel = MintFramework(
            auto_warmup_traces=WARMUP,
            deployment=Deployment.single(workers=STRESS_WORKERS, ingest_epoch=64),
        )
        twin = MintFramework(auto_warmup_traces=WARMUP)
        try:
            for now, trace in stream[:100]:
                parallel.process_trace(trace, now)
                twin.process_trace(trace, now)
            probe = stream[99][1].trace_id
            ours, theirs = parallel.query(probe), twin.query(probe)
            assert ours.status == theirs.status
            assert parallel.stored_trace_ids() == twin.stored_trace_ids()
        finally:
            parallel.close()
            twin.close()

    def test_pull_params_round_trip(self, stream):
        from repro.query.spec import QuerySpec

        parallel = MintFramework(
            auto_warmup_traces=WARMUP,
            deployment=Deployment.single(workers=2),
        )
        twin = MintFramework(auto_warmup_traces=WARMUP)
        try:
            for now, trace in stream[:120]:
                parallel.process_trace(trace, now)
                twin.process_trace(trace, now)
            probe = stream[110][1].trace_id
            ours = parallel.execute(QuerySpec.point(probe, pull_params=True)).one()
            theirs = twin.execute(QuerySpec.point(probe, pull_params=True)).one()
            assert ours.status == theirs.status
        finally:
            parallel.close()
            twin.close()


class TestSnapshots:
    def test_snapshot_is_immutable_and_versioned(self, stream):
        framework = drive(
            MintFramework(
                auto_warmup_traces=WARMUP, deployment=Deployment.single(workers=2)
            ),
            stream,
        )
        try:
            snapshot = framework.pattern_snapshot()
            assert snapshot.version >= 1
            assert len(snapshot) > 0
            with pytest.raises(TypeError):
                snapshot.span_patterns["boom"] = None  # type: ignore[index]
            some_id = snapshot.pattern_ids()[0]
            assert snapshot.get(some_id) is not None
            assert snapshot.get("missing") is None
        finally:
            framework.close()

    def test_empty_snapshot(self):
        snapshot = PatternPlaneSnapshot.empty()
        assert snapshot.version == 0
        assert len(snapshot) == 0
        assert snapshot.pattern_ids() == ()

    def test_sequential_deployment_has_no_snapshot(self):
        framework = MintFramework()
        assert framework.pattern_snapshot() is None
        framework.close()  # no-op, must not raise


class TestLanes:
    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_lane_error_propagates_with_traceback(self, mode):
        from repro.agent.config import MintConfig

        lane = make_lane(mode, 0, MintConfig())
        try:
            lane.post(("no_such_command",))
            lane.post(("barrier",))
            with pytest.raises(LaneError, match="no_such_command"):
                lane.collect()
        finally:
            lane.stop()

    def test_make_lane_rejects_unknown_mode(self):
        from repro.agent.config import MintConfig

        with pytest.raises(ValueError, match="unknown worker mode"):
            make_lane("fiber", 0, MintConfig())

    @pytest.mark.parametrize("kind", [ThreadLane, ProcessLane])
    def test_stop_is_idempotent(self, kind):
        from repro.agent.config import MintConfig

        lane = kind(0, MintConfig())
        lane.stop()
        lane.stop()

    def test_shutdown_and_close_idempotent(self, stream):
        framework = drive(
            MintFramework(
                auto_warmup_traces=WARMUP, deployment=Deployment.single(workers=2)
            ),
            stream[:40],
        )
        framework.close()
        framework.close()


class TestDeploymentDescriptor:
    def test_parallel_descriptor_validation(self):
        with pytest.raises(ValueError, match="workers must be >= 0"):
            Deployment(workers=-1)
        with pytest.raises(ValueError, match="worker_mode"):
            Deployment(workers=2, worker_mode="fiber")
        with pytest.raises(ValueError, match="ingest_epoch"):
            Deployment(workers=2, ingest_epoch=0)
        with pytest.raises(ValueError, match="resharding or shard chaos"):
            Deployment(num_shards=2, reshard_to=4, workers=2)

    def test_parallel_descriptor_describe(self):
        dep = Deployment.sharded(4, workers=2, worker_mode="process")
        assert dep.is_parallel
        assert "2w-process" in dep.describe()
        assert not Deployment.sharded(4).is_parallel

    def test_parallel_framework_name(self):
        framework = MintFramework(deployment=Deployment.single(workers=2))
        try:
            assert "2w-thread" in framework.name
        finally:
            framework.close()
