"""Fig. 14 — tracing overhead during 14 load tests.

Paper: three replicas of a production system (no tracing, OT-Head at
10 %, Mint at the same rate) take 14 load tests with varying QPS and
API mixes.  Ingress traffic is identical across replicas; Mint's egress
grows only 2.88 % over no-tracing vs OT-Head's 19.35 %; Mint's CPU and
memory overheads are small.

Here: the same 14 (QPS, API-count) tests drive three simulated
replicas; egress, CPU (measured wall-clock of the tracing pipeline) and
resident tracing memory are reported per test.
"""

from __future__ import annotations

import pytest
from bench_helpers import emit, once

from repro.agent.samplers import HeadSampler
from repro.analysis import render_table
from repro.baselines import OTHead
from repro.framework import MintFramework
from repro.sim.loadtest import FIG14_LOAD_TESTS, run_load_test
from repro.workloads import build_trainticket

HEAD_RATE = 0.10


def mint_factory():
    # Same sampling rate as the OT-Head replica, per the paper's setup.
    return MintFramework(
        auto_warmup_traces=30,
        extra_sampler_factories=[lambda: HeadSampler(rate=HEAD_RATE, seed=5)],
    )


def run() -> list[list]:
    workload = build_trainticket()
    rows = []
    for spec in FIG14_LOAD_TESTS:
        none = run_load_test(spec, workload, None, "No-Tracing")
        head = run_load_test(
            spec, workload, lambda: OTHead(rate=HEAD_RATE), "OT-Head"
        )
        mint = run_load_test(spec, workload, mint_factory, "Mint")
        rows.append(
            [
                spec.name,
                spec.qps,
                spec.api_count,
                round(none.ingress_bytes / 1024, 0),
                round(head.egress_bytes / 1024, 0),
                round(mint.egress_bytes / 1024, 0),
                round(head.cpu_seconds, 3),
                round(mint.cpu_seconds, 3),
                round(mint.memory_bytes / 1024, 0),
            ]
        )
    return rows


@pytest.mark.benchmark(group="fig14")
def test_fig14_load_tests(benchmark):
    rows = once(benchmark, run)
    # Only the deterministic columns are committed under results/; the
    # wall-clock ones go to stdout, so verifying never dirties the tree.
    emit(
        "fig14_load_tests",
        render_table(
            ["test", "QPS", "APIs", "ingress KB", "egress KB (OT-Head)",
             "egress KB (Mint)", "Mint tracing mem KB"],
            [row[:6] + row[8:] for row in rows],
            title="Fig. 14 — 14 load tests, three replicas",
        ),
    )
    print(
        render_table(
            ["test", "CPU s (OT-Head)", "CPU s (Mint)"],
            [[row[0], row[6], row[7]] for row in rows],
            title="Fig. 14 — tracing pipeline wall clock (this machine)",
        )
    )
    for row in rows:
        _, qps, apis, ingress, head_egress, mint_egress, _, _, mint_mem = row
        # Mint's egress stays well below OT-Head's (paper: 2.88 % vs
        # 19.35 % bandwidth increase over no tracing).
        assert mint_egress < head_egress, row
        # Egress is a small fraction of the ingress traffic for Mint.
        assert mint_egress < ingress * 0.30, row
        # Resident tracing state stays bounded (pattern libraries
        # converge; buffers are fixed-size).
        assert mint_mem < 6 * 1024, row
    # Ingress scales with QPS across tests (sanity of the sweep).
    ingress_by_qps = {}
    for row in rows:
        ingress_by_qps.setdefault(row[1], []).append(row[3])
    if 200 in ingress_by_qps and 1000 in ingress_by_qps:
        assert max(ingress_by_qps[1000]) > max(ingress_by_qps[200])
