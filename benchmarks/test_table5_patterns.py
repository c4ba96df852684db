"""Table 5 — pattern extraction on five Alibaba Cloud sub-services.

Paper: 79k-147k raw traces per sub-service collapse to 7-14 span-level
patterns and 3-8 trace-level patterns; the raw-to-pattern compression
ratio runs to four or five figures.

Here: the same five sub-services (S1-S5) at scaled trace counts run
through the Span Parser and Trace Parser; pattern counts must stay in
the paper's dozens-at-most band regardless of corpus size.
"""

from __future__ import annotations

import pytest
from bench_helpers import emit, once

from repro.analysis import render_table
from repro.framework import MintFramework
from repro.workloads import SUBSERVICE_SPECS, WorkloadDriver, build_subservice

SCALED_TRACES = 600


def run() -> list[list]:
    rows = []
    for name, spec in SUBSERVICE_SPECS.items():
        workload = build_subservice(name)
        driver = WorkloadDriver(workload, seed=51)
        mint = MintFramework(auto_warmup_traces=60)
        last = 0.0
        for now, trace in driver.traces(SCALED_TRACES):
            mint.process_trace(trace, now)
            last = now
        mint.finalize(last)
        span_patterns = len(mint.backend.storage.span_patterns)
        topo_patterns = len(mint.backend.storage.topo_patterns)
        rows.append(
            [
                name,
                spec.raw_trace_number,
                SCALED_TRACES,
                span_patterns,
                topo_patterns,
                round(SCALED_TRACES / max(1, topo_patterns), 1),
            ]
        )
    return rows


@pytest.mark.benchmark(group="table5")
def test_table5_pattern_extraction(benchmark):
    rows = once(benchmark, run)
    emit(
        "table5_patterns",
        render_table(
            ["sub-service", "paper traces", "scaled traces",
             "span patterns", "topo patterns", "traces per topo pattern"],
            rows,
            title="Table 5 — pattern extraction per sub-service",
        ),
    )
    for _, _, traces, span_patterns, topo_patterns, _ in rows:
        # Pattern counts are dozens at most, not proportional to traces.
        assert span_patterns < 80, rows
        assert topo_patterns < 40, rows
        # Aggregation is massive: hundreds of traces per pattern.
        assert traces / topo_patterns > 15
