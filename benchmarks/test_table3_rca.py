"""Table 3 — downstream RCA accuracy per tracing framework.

Paper: with the stored-data budget fixed at ~5 %, trace-based RCA
methods (MicroRank, TraceRCA, TraceAnomaly) score A@1 below ~0.38 on
data from '1 or 0' frameworks but roughly double with Mint, because
Mint keeps (approximate) normal traces that the methods need as a
contrast population.

Here: faults from the paper's Table 2 are injected one case at a time
into OnlineBoutique and TrainTicket; each framework's retained traces
feed each RCA method; A@1 is reported per (benchmark, method, framework).

Scale note: Sieve overperforms its paper numbers here — at a few
hundred traces per case its RRCF budget captures nearly every faulted
trace, which production-scale noise prevents.  The assertions therefore
check Mint against each baseline rather than a fixed Sieve gap.
"""

from __future__ import annotations

import pytest
from bench_helpers import emit, once

from repro.agent.samplers import TailSampler
from repro.analysis import render_table, top1_accuracy
from repro.baselines import Hindsight, OTHead, OTTail, Sieve
from repro.framework import MintFramework
from repro.rca import MicroRank, TraceAnomaly, TraceRCA
from repro.sim.experiment import FrameworkRun, rca_views_for_framework
from repro.workloads import (
    FaultInjector,
    FaultSpec,
    FaultType,
    WorkloadDriver,
    build_onlineboutique,
    build_trainticket,
)

TRACES_PER_CASE = 220
FAULT_EVERY = 12

OB_CASES = [
    ("paymentservice", FaultType.CPU_EXHAUSTION),
    ("cartservice", FaultType.ERROR_RETURN),
    ("recommendationservice", FaultType.NETWORK_DELAY),
    ("shippingservice", FaultType.MEMORY_EXHAUSTION),
    ("emailservice", FaultType.CODE_EXCEPTION),
    ("currencyservice", FaultType.NETWORK_DELAY),
    ("productcatalogservice", FaultType.CPU_EXHAUSTION),
    ("adservice", FaultType.ERROR_RETURN),
]

TT_CASES = [
    ("ts-order-service", FaultType.CPU_EXHAUSTION),
    ("ts-payment-service", FaultType.ERROR_RETURN),
    ("ts-station-service", FaultType.NETWORK_DELAY),
    ("ts-seat-service", FaultType.MEMORY_EXHAUSTION),
    ("ts-contacts-service", FaultType.CODE_EXCEPTION),
    ("ts-price-service", FaultType.NETWORK_DELAY),
]

METHODS = {"MicroRank": MicroRank, "TraceRCA": TraceRCA, "TraceAnomaly": TraceAnomaly}

FRAMEWORKS = {
    "OT-Head": lambda: OTHead(rate=0.05),
    "OT-Tail": OTTail,
    "Sieve": lambda: Sieve(budget_rate=0.05),
    "Hindsight": Hindsight,
    "Mint": lambda: MintFramework(auto_warmup_traces=40, extra_sampler_factories=[TailSampler]),
}


def run_cases(workload, cases, seed_base: int) -> dict[tuple[str, str], float]:
    """A@1 per (method, framework) over the fault cases."""
    predictions: dict[tuple[str, str], list] = {
        (m, f): [] for m in METHODS for f in FRAMEWORKS
    }
    truths: list[str] = []
    for case_idx, (target, fault_type) in enumerate(cases):
        driver = WorkloadDriver(workload, seed=seed_base + case_idx)
        injector = FaultInjector(seed=seed_base + 50 + case_idx)
        traces = []
        for i, (_, trace) in enumerate(driver.traces(TRACES_PER_CASE)):
            if i % FAULT_EVERY == 5 and target in trace.services:
                trace = injector.inject(trace, FaultSpec(fault_type, target))
            traces.append(trace)
        truths.append(target)
        for fw_name, factory in FRAMEWORKS.items():
            framework = factory()
            for i, trace in enumerate(traces):
                framework.process_trace(trace, float(i))
            framework.finalize(float(len(traces)))
            run = FrameworkRun(
                name=fw_name,
                network_bytes=framework.network_bytes,
                storage_bytes=framework.storage_bytes,
                process_seconds=0.0,
                framework=framework,
            )
            views = rca_views_for_framework(run, traces)
            for method_name, method_cls in METHODS.items():
                predictions[(method_name, fw_name)].append(
                    method_cls().top1(views)
                )
    return {
        key: top1_accuracy(preds, truths) for key, preds in predictions.items()
    }


def run() -> list[list]:
    rows = []
    for bench_name, workload, cases, seed in (
        ("OB", build_onlineboutique(), OB_CASES, 300),
        ("TT", build_trainticket(), TT_CASES, 700),
    ):
        accuracy = run_cases(workload, cases, seed)
        for method_name in METHODS:
            row = [bench_name, method_name]
            for fw_name in FRAMEWORKS:
                row.append(round(accuracy[(method_name, fw_name)], 4))
            rows.append(row)
    return rows


@pytest.mark.benchmark(group="table3")
def test_table3_rca_accuracy(benchmark):
    rows = once(benchmark, run)
    emit(
        "table3_rca",
        render_table(
            ["bench", "RCA method"] + list(FRAMEWORKS),
            rows,
            title="Table 3 — RCA top-1 accuracy per tracing framework",
        ),
    )
    framework_names = list(FRAMEWORKS)
    mint_idx = 2 + framework_names.index("Mint")
    for row in rows:
        mint_score = row[mint_idx]
        baseline_scores = [
            row[2 + i] for i, name in enumerate(framework_names) if name != "Mint"
        ]
        # Shape: Mint data at least matches, and on average far exceeds,
        # what any '1 or 0' framework's retained traces support.
        assert mint_score >= max(baseline_scores)
        assert mint_score >= 0.5
    # Averaged over all (bench, method) rows, Mint roughly doubles the
    # best baseline (paper: 25% -> 50%+).
    mint_mean = sum(row[mint_idx] for row in rows) / len(rows)
    baseline_mean = sum(
        row[2 + i]
        for row in rows
        for i, name in enumerate(framework_names)
        if name != "Mint"
    ) / (len(rows) * (len(framework_names) - 1))
    assert mint_mean > baseline_mean * 1.5
