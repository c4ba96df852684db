"""In-epoch params-buffer overflow detection on ingest lanes (PR 7 bound).

A sequential run uploads a sampled trace's params on the backend's
mid-epoch ``mark_sampled`` round-trip, freeing buffer space; a lane
defers every mark to the apply barrier.  With a buffer too small for
one epoch's parameters, the lane evicts records the sequential run
would have kept — a silent bit-identity break.  The plane now detects
the eviction delta at the barrier and raises a ``LaneError`` naming
the lane, the epoch and the buffered bytes, *before* replaying the
epoch's reports, instead of diverging quietly.
"""

from __future__ import annotations

import os

import pytest

from repro.agent.config import MintConfig
from repro.concurrent.lanes import LaneError
from repro.framework import MintFramework
from repro.sim.experiment import drive as sim_drive
from repro.sim.experiment import generate_stream
from repro.transport import Deployment

NUM_TRACES = 96
WARMUP = 24
#: Big enough to survive warm-up uploads, far too small for an epoch's
#: buffered parameters once sampling marks are deferred to the barrier.
TINY_BUFFER = 2048
# The race/stress CI lane exports a randomized worker count.
STRESS_WORKERS = int(os.environ.get("CONCURRENT_STRESS_WORKERS", "3"))


@pytest.fixture(scope="module")
def stream(boutique_workload):
    stream, _ = generate_stream(
        boutique_workload, NUM_TRACES, abnormal_rate=0.02, seed=17
    )
    return stream


def drive(framework, stream):
    try:
        sim_drive(framework, stream)
    finally:
        framework.close()
    return framework


class TestLaneOverflowDetection:
    def test_overflow_within_one_epoch_raises_before_replay(self, stream):
        framework = MintFramework(
            config=MintConfig(params_buffer_bytes=TINY_BUFFER),
            auto_warmup_traces=WARMUP,
            deployment=Deployment.single(workers=2, ingest_epoch=64),
        )
        with pytest.raises(LaneError) as excinfo:
            drive(framework, stream)
        message = str(excinfo.value)
        # Deterministic, actionable naming: the lane, the epoch, the
        # buffered bytes and both remedies.
        assert "params buffer overflowed within ingest epoch" in message
        assert "lane " in message and "node " in message
        assert "bytes still buffered" in message
        assert "params_buffer_bytes" in message
        assert "ingest_epoch" in message

    def test_detection_is_deterministic_across_worker_counts(self, stream):
        for workers in (2, 4, STRESS_WORKERS):
            framework = MintFramework(
                config=MintConfig(params_buffer_bytes=TINY_BUFFER),
                auto_warmup_traces=WARMUP,
                deployment=Deployment.single(workers=workers, ingest_epoch=64),
            )
            with pytest.raises(LaneError):
                drive(framework, stream)

    def test_sequential_run_with_the_same_tiny_buffer_is_legal(self, stream):
        # Eviction in a sequential run is ordinary behaviour (retroactive
        # pulls degrade gracefully) — only lanes must refuse.
        framework = MintFramework(
            config=MintConfig(params_buffer_bytes=TINY_BUFFER),
            auto_warmup_traces=WARMUP,
        )
        drive(framework, stream)
        assert framework.storage_bytes > 0

    def test_roomy_buffer_keeps_lanes_bit_identical(self, stream):
        # The detector must not fire when the buffer fits an epoch.
        reference = drive(MintFramework(auto_warmup_traces=WARMUP), stream)
        parallel = drive(
            MintFramework(
                auto_warmup_traces=WARMUP,
                deployment=Deployment.single(workers=2, ingest_epoch=32),
            ),
            stream,
        )
        assert parallel.storage_bytes == reference.storage_bytes
        assert parallel.network_bytes == reference.network_bytes
