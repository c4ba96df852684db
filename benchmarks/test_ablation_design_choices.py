"""Ablation benches for design choices beyond the paper's tables.

DESIGN.md calls out three tunables worth sweeping:

* Bloom filter false-positive probability — metadata storage cost vs
  query precision;
* Params Buffer capacity — how much parameter history survives until a
  retroactive sampling decision arrives;
* bucketing precision alpha — approximate-value error vs bucket count.
"""

from __future__ import annotations

import pytest
from bench_helpers import emit, once

from repro.agent.config import MintConfig
from repro.analysis import render_table
from repro.framework import MintFramework
from repro.parsing.numeric_buckets import NumericBucketer
from repro.sim.experiment import generate_stream
from repro.workloads import build_onlineboutique


def bloom_fpp_sweep() -> list[list]:
    workload = build_onlineboutique()
    stream, _ = generate_stream(workload, 600, abnormal_rate=0.05, seed=71)
    rows = []
    for fpp in (0.001, 0.01, 0.1):
        # Small filter buffers so filters reach capacity and flush at
        # their designed load (the regime where fpp is a live tradeoff).
        mint = MintFramework(
            config=MintConfig(bloom_fpp=fpp, bloom_buffer_bytes=256),
            auto_warmup_traces=40,
        )
        for now, trace in stream:
            mint.process_trace(trace, now)
        mint.finalize(stream[-1][0])
        # False-positive rate measured against never-ingested ids.
        probes = [f"{i:031x}f" for i in range(2000)]
        false_hits = sum(
            1 for p in probes if mint.backend.storage.patterns_matching_trace(p)
        )
        rows.append(
            [
                fpp,
                round(mint.backend.storage.bloom_bytes / 1024, 1),
                round(false_hits / len(probes), 4),
            ]
        )
    return rows


def buffer_capacity_sweep() -> list[list]:
    workload = build_onlineboutique()
    stream, _ = generate_stream(workload, 400, abnormal_rate=0.0, seed=72)
    rows = []
    for capacity_kb in (16, 64, 1024):
        mint = MintFramework(
            config=MintConfig(
                params_buffer_bytes=capacity_kb * 1024, edge_case_base_rate=0.0
            ),
            auto_warmup_traces=40,
        )
        for now, trace in stream:
            mint.process_trace(trace, now)
        # Retroactively request the params of the oldest 100 traces:
        # small buffers will have evicted them.  A hit means the backend
        # ends up holding the trace's parameters (whether they were just
        # pulled from a buffer or had been uploaded earlier).
        hits = 0
        for _, trace in stream[:100]:
            for collector in mint._collectors.values():
                collector.request_params(trace.trace_id)
            if mint.backend.storage.has_params(trace.trace_id):
                hits += 1
        evicted = sum(
            c.agent.params_buffer.evicted_blocks
            for c in mint._collectors.values()
        )
        rows.append([capacity_kb, hits, evicted])
    return rows


def alpha_sweep() -> list[list]:
    values = [1.7, 9.0, 42.0, 730.0, 12345.0]
    rows = []
    for alpha in (0.1, 0.3, 0.5, 0.8):
        bucketer = NumericBucketer(alpha=alpha)
        worst = max(
            abs(bucketer.bucket_of(v).midpoint - v) / v for v in values
        )
        buckets_to_1e6 = bucketer.index_of(1e6)
        rows.append([alpha, round(bucketer.gamma, 2), round(worst, 4), buckets_to_1e6])
    return rows


@pytest.mark.benchmark(group="ablation")
def test_ablation_bloom_fpp(benchmark):
    rows = once(benchmark, bloom_fpp_sweep)
    emit(
        "ablation_bloom_fpp",
        render_table(
            ["fpp", "bloom storage KB", "measured fp rate"],
            rows,
            title="Ablation — Bloom filter fpp vs storage and precision",
        ),
    )
    # Tighter fpp costs more storage; measured fp rate tracks the target.
    assert rows[0][1] >= rows[-1][1]
    for fpp, _, measured in rows:
        assert measured <= fpp * 12 + 0.01


@pytest.mark.benchmark(group="ablation")
def test_ablation_buffer_capacity(benchmark):
    rows = once(benchmark, buffer_capacity_sweep)
    emit(
        "ablation_buffer_capacity",
        render_table(
            ["capacity KB", "retro-sample hits (of 100)", "evicted blocks"],
            rows,
            title="Ablation — Params Buffer capacity vs retroactive hits",
        ),
    )
    # Bigger buffers keep more history available for late sampling.
    hits = [row[1] for row in rows]
    assert hits[-1] >= hits[0]
    assert rows[-1][1] >= 95  # 1 MB holds the full window here
    assert rows[0][2] > 0  # 16 KB must have evicted something


@pytest.mark.benchmark(group="ablation")
def test_ablation_alpha(benchmark):
    rows = once(benchmark, alpha_sweep)
    emit(
        "ablation_alpha",
        render_table(
            ["alpha", "gamma", "worst midpoint rel. error", "buckets to 1e6"],
            rows,
            title="Ablation — bucketing precision alpha",
        ),
    )
    for alpha, _, worst, _ in rows:
        assert worst <= alpha + 1e-9
    # Coarser alpha -> fewer buckets.
    bucket_counts = [row[3] for row in rows]
    assert bucket_counts == sorted(bucket_counts, reverse=True)
