"""Fig. 16 — similarity-threshold sensitivity of pattern+param storage.

Paper: sweeping the Span Parser's LCS similarity threshold over
{0.2, 0.4, 0.6, 0.8} on two datasets and two sub-services, the total
storage for patterns plus parameters *decreases* as the threshold
increases (looser clustering merges dissimilar values into
wildcard-heavy templates whose parameters carry most of the bytes),
which is why 0.8 is the default.

Here: the same four corpora are parsed at each threshold without
sampling or compression; total pattern + parameter bytes are reported.
"""

from __future__ import annotations

import pytest
from bench_helpers import emit, once

from repro.analysis import render_table
from repro.model.encoding import encoded_size
from repro.parsing.span_parser import SpanParser
from repro.workloads import WorkloadDriver, build_dataset, build_subservice

THRESHOLDS = (0.2, 0.4, 0.6, 0.8)
TRACES = 150

CORPORA = {
    "Dataset A": lambda: build_dataset("A"),
    "Dataset B": lambda: build_dataset("B"),
    "Sub-Service 1": lambda: build_subservice("S1"),
    "Sub-Service 2": lambda: build_subservice("S2"),
}


def storage_at_threshold(traces, threshold: float) -> int:
    # Key-only parser scoping, as the paper's Span Parser: this is the
    # regime where the threshold decides how much cross-operation
    # merging happens (see SpanParser.scope_by_operation).
    parser = SpanParser(similarity_threshold=threshold, scope_by_operation=False)
    warmup = [span for trace in traces[:40] for span in trace.spans]
    parser.warm_up(warmup[:400])
    params_bytes = 0
    for trace in traces:
        for span in trace.spans:
            parsed = parser.parse(span)
            pattern = parser.library.get(parsed.pattern_id)
            params_bytes += encoded_size(parsed.compact_record(pattern))
    return parser.library.size_bytes() + params_bytes


def run() -> list[list]:
    rows = []
    for name, builder in CORPORA.items():
        driver = WorkloadDriver(builder(), seed=61)
        traces = [t for _, t in driver.traces(TRACES)]
        row: list = [name]
        for threshold in THRESHOLDS:
            row.append(round(storage_at_threshold(traces, threshold) / 1024, 1))
        rows.append(row)
    return rows


@pytest.mark.benchmark(group="fig16")
def test_fig16_threshold_sensitivity(benchmark):
    rows = once(benchmark, run)
    emit(
        "fig16_threshold_sensitivity",
        render_table(
            ["corpus"] + [f"storage KB @ {t}" for t in THRESHOLDS],
            rows,
            title="Fig. 16 — pattern+parameter storage vs similarity threshold",
        ),
    )
    for row in rows:
        storages = row[1:]
        # Shape: the default threshold (0.8) stores no more than the
        # loosest (0.2); the trend is downward overall.
        assert storages[-1] <= storages[0] * 1.05, row
