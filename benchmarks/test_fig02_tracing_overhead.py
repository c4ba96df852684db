"""Fig. 2 — storage and network overhead of full tracing on 5 services.

Paper: five Alibaba services spend an average of 7,639 GB/day on trace
storage and up to 102 MB/min of reporting bandwidth under full tracing.
Here: the five sub-services run under OT-Full; we report the measured
MB/min of each and the projected GB/day at a production request rate.
"""

from __future__ import annotations

import pytest
from bench_helpers import emit, once

from repro.analysis import render_table
from repro.baselines import OTFull
from repro.sim.experiment import generate_stream
from repro.workloads import SUBSERVICE_SPECS, build_subservice

TRACES_PER_SERVICE = 400
PRODUCTION_REQ_PER_MIN = 80_000  # projection rate for the GB/day column


def run() -> list[list]:
    rows = []
    for name in SUBSERVICE_SPECS:
        workload = build_subservice(name)
        stream, _ = generate_stream(
            workload, TRACES_PER_SERVICE, abnormal_rate=0.0, seed=2
        )
        framework = OTFull()
        for now, trace in stream:
            framework.process_trace(trace, now)
        minutes = max(stream[-1][0] / 60.0, 1e-9)
        mb_per_min = framework.network_bytes / (1024 * 1024) / minutes
        bytes_per_trace = framework.storage_bytes / len(stream)
        gb_per_day = (
            bytes_per_trace * PRODUCTION_REQ_PER_MIN * 60 * 24 / (1024**3)
        )
        rows.append([name, round(mb_per_min, 1), round(gb_per_day, 1)])
    return rows


@pytest.mark.benchmark(group="fig02")
def test_fig02_tracing_overhead(benchmark):
    rows = once(benchmark, run)
    emit(
        "fig02_tracing_overhead",
        render_table(
            ["service", "bandwidth MB/min", "projected storage GB/day"],
            rows,
            title="Fig. 2 — overhead of full tracing (OT-Full) on 5 services",
        ),
    )
    # Shape: full tracing is costly everywhere — tens of MB/min of
    # reporting bandwidth and hundreds of GB/day at production rates.
    for _, mb_per_min, gb_per_day in rows:
        assert mb_per_min > 1.0
        assert gb_per_day > 50.0
