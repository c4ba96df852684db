"""Table 1 — occurrence and proportion of commonality in trace pairs.

Paper: across three services, 34-56 % of inter-trace pairs and 25-45 %
of inter-span pairs share a common pattern.  Here: three workloads play
the three services; the same pair statistics are computed exactly.
"""

from __future__ import annotations

import pytest
from bench_helpers import emit, once

from repro.analysis import inter_span_commonality, inter_trace_commonality, render_table
from repro.sim.experiment import generate_stream
from repro.workloads import build_dataset, build_onlineboutique, build_trainticket

TRACES_PER_SERVICE = 400


def run() -> list[list]:
    services = {
        "Service A (OnlineBoutique)": build_onlineboutique(),
        "Service B (TrainTicket)": build_trainticket(),
        "Service C (Dataset D)": build_dataset("D"),
    }
    rows = []
    for name, workload in services.items():
        stream, _ = generate_stream(
            workload, TRACES_PER_SERVICE, abnormal_rate=0.02, seed=7
        )
        traces = [trace for _, trace in stream]
        trace_stats = inter_trace_commonality(traces)
        span_stats = inter_span_commonality(traces)
        rows.append(
            [
                name,
                trace_stats.pairs_with_commonality,
                round(100 * trace_stats.proportion, 2),
                span_stats.pairs_with_commonality,
                round(100 * span_stats.proportion, 2),
            ]
        )
    return rows


@pytest.mark.benchmark(group="table1")
def test_table1_commonality(benchmark):
    rows = once(benchmark, run)
    emit(
        "table1_commonality",
        render_table(
            [
                "service",
                "inter-trace #",
                "inter-trace %",
                "inter-span #",
                "inter-span %",
            ],
            rows,
            title="Table 1 — commonality in trace/span pairs",
        ),
    )
    # Shape: commonality is abundant at both levels (tens of percent),
    # never total, never negligible.
    for _, trace_pairs, trace_pct, span_pairs, span_pct in rows:
        assert trace_pairs > 0 and span_pairs > 0
        assert 5.0 < trace_pct < 95.0
        assert 5.0 < span_pct < 95.0
