"""Fig. 11 — network and storage overhead vs request throughput.

Paper: on OnlineBoutique and TrainTicket, across throughputs, Mint
reduces storage to ~2.7 % and network to ~4.2 % of OT-Full; OT-Head
sits at its 5 % rate on both axes; OT-Tail and Sieve pay full network
but ~5 % storage; Hindsight pays slightly more network than OT-Head.

Here: the same six frameworks run the same streams at three scaled
throughputs per benchmark; the series below are the paper's curves.
"""

from __future__ import annotations

import pytest
from bench_helpers import emit, once

from repro.agent.samplers import TailSampler
from repro.analysis import render_table
from repro.baselines import Hindsight, OTFull, OTHead, OTTail, Sieve
from repro.framework import MintFramework
from repro.sim.experiment import run_experiment
from repro.workloads import build_onlineboutique, build_trainticket

THROUGHPUTS_REQ_PER_MIN = (20_000, 60_000, 100_000)
TRACES_PER_RUN = 700

FACTORIES = {
    "OT-Full": OTFull,
    "OT-Head": lambda: OTHead(rate=0.05),
    "OT-Tail": OTTail,
    "Sieve": lambda: Sieve(budget_rate=0.05),
    "Hindsight": Hindsight,
    "Mint": lambda: MintFramework(auto_warmup_traces=60, extra_sampler_factories=[TailSampler]),
}


def run_benchmark_system(workload) -> list[list]:
    rows = []
    for rpm in THROUGHPUTS_REQ_PER_MIN:
        result = run_experiment(
            workload,
            FACTORIES,
            num_traces=TRACES_PER_RUN,
            abnormal_rate=0.05,
            requests_per_minute=rpm,
            seed=11,
            query_all=False,
        )
        minutes = TRACES_PER_RUN / rpm
        full = result.runs["OT-Full"]
        for name, run_ in result.runs.items():
            rows.append(
                [
                    workload.name,
                    rpm,
                    name,
                    round(run_.network_bytes / (1024 * 1024) / minutes, 1),
                    round(run_.storage_bytes / (1024 * 1024) / minutes, 1),
                    round(100 * run_.network_bytes / full.network_bytes, 2),
                    round(100 * run_.storage_bytes / full.storage_bytes, 2),
                ]
            )
    return rows


def check_shape(rows: list[list]) -> None:
    by_key = {(r[1], r[2]): r for r in rows}
    for rpm in THROUGHPUTS_REQ_PER_MIN:
        net = {name: by_key[(rpm, name)][5] for name in FACTORIES}
        store = {name: by_key[(rpm, name)][6] for name in FACTORIES}
        # Mint reduces both axes to a few percent.
        assert net["Mint"] < 12.0
        assert store["Mint"] < 10.0
        # Head sampling tracks its rate on both axes.
        assert 2.0 < net["OT-Head"] < 10.0
        assert 2.0 < store["OT-Head"] < 10.0
        # Tail sampling and Sieve cannot reduce network.
        assert net["OT-Tail"] == pytest.approx(100.0)
        assert net["Sieve"] == pytest.approx(100.0)
        assert store["OT-Tail"] < 15.0
        # Hindsight: breadcrumbs put it above head's network, below tail.
        assert net["OT-Head"] < net["Hindsight"] < net["OT-Tail"]
        # Mint's storage beats every '1 or 0' baseline.
        for other in ("OT-Head", "OT-Tail", "Sieve", "Hindsight"):
            assert store["Mint"] < store[other] * 1.6


@pytest.mark.benchmark(group="fig11")
def test_fig11_onlineboutique(benchmark):
    rows = once(benchmark, lambda: run_benchmark_system(build_onlineboutique()))
    emit(
        "fig11_onlineboutique",
        render_table(
            ["benchmark", "req/min", "framework", "net MB/min", "store MB/min",
             "net % of full", "store % of full"],
            rows,
            title="Fig. 11 — OnlineBoutique overhead sweep",
        ),
    )
    check_shape(rows)


@pytest.mark.benchmark(group="fig11")
def test_fig11_trainticket(benchmark):
    rows = once(benchmark, lambda: run_benchmark_system(build_trainticket()))
    emit(
        "fig11_trainticket",
        render_table(
            ["benchmark", "req/min", "framework", "net MB/min", "store MB/min",
             "net % of full", "store % of full"],
            rows,
            title="Fig. 11 — TrainTicket overhead sweep",
        ),
    )
    check_shape(rows)
