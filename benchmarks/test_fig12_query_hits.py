"""Fig. 12 — daily query hit numbers over a monitoring period.

Paper: over 14 days of Alibaba query logs, Mint answers *every* query
at least partially (Mint-Partial reaches the Total line every day) and
answers more queries exactly than any baseline; the '1 or 0' baselines
leave a large gap to the Total line.

Here: a scaled multi-day run with the biased-but-unpredictable query
model; the same seven series are reported per day.
"""

from __future__ import annotations

import pytest
from bench_helpers import emit, once

from repro.agent.samplers import TailSampler
from repro.analysis import render_table
from repro.baselines import Hindsight, OTHead, OTTail, Sieve
from repro.framework import MintFramework
from repro.sim.experiment import generate_stream
from repro.workloads import QueryWorkload, TraceRecord, build_onlineboutique

DAYS = 6
TRACES_PER_DAY = 300
QUERIES_PER_DAY = 100


def run() -> list[list]:
    workload = build_onlineboutique()
    frameworks = {
        "OT-Head": OTHead(rate=0.05),
        "OT-Tail": OTTail(),
        "Sieve": Sieve(budget_rate=0.05),
        "Hindsight": Hindsight(),
        "Mint": MintFramework(auto_warmup_traces=50, extra_sampler_factories=[TailSampler]),
    }
    rows = []
    for day in range(DAYS):
        stream, targets = generate_stream(
            workload, TRACES_PER_DAY, abnormal_rate=0.05, seed=100 + day
        )
        records = []
        last_now = 0.0
        for now, trace in stream:
            for framework in frameworks.values():
                framework.process_trace(trace, now + day * 86400)
            records.append(
                TraceRecord(
                    trace_id=trace.trace_id,
                    timestamp=now,
                    is_abnormal=trace.trace_id in targets,
                )
            )
            last_now = now
        frameworks["Mint"].finalize(last_now + day * 86400)
        queries = QueryWorkload(abnormal_bias=0.6, seed=900 + day).sample_queries(
            records, QUERIES_PER_DAY
        )
        row = [day + 1, len(queries)]
        for name, framework in frameworks.items():
            hits = sum(1 for q in queries if framework.query(q).is_exact)
            row.append(hits)
        mint = frameworks["Mint"]
        partial_or_better = sum(1 for q in queries if mint.query(q).is_hit)
        row.append(partial_or_better)
        rows.append(row)
    return rows


@pytest.mark.benchmark(group="fig12")
def test_fig12_query_hits(benchmark):
    rows = once(benchmark, run)
    emit(
        "fig12_query_hits",
        render_table(
            ["day", "Total", "OT-Head", "OT-Tail", "Sieve", "Hindsight",
             "Mint-Exact", "Mint-Partial"],
            rows,
            title="Fig. 12 — daily query hit numbers",
        ),
    )
    for row in rows:
        day, total, head, tail, sieve, hindsight, mint_exact, mint_partial = row
        # Mint answers every query at least partially.
        assert mint_partial == total
        # Mint answers at least as many queries exactly as any baseline.
        assert mint_exact >= max(head, tail, sieve, hindsight)
        # The '1 or 0' baselines leave a visible gap to the Total line.
        assert max(head, tail, sieve, hindsight) < total
