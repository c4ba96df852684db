"""What the perf suites share: the seeded stream and best-of-N timing."""

from __future__ import annotations

import gc
from typing import Callable

from repro.framework import MintFramework
from repro.model.trace import Trace
from repro.sim.experiment import drive, generate_stream
from repro.workloads import WORKLOAD_BUILDERS

Stream = list[tuple[float, Trace]]


def build_stream(workload_name: str, num_traces: int, seed: int = 17) -> Stream:
    """Deterministic (timestamp, trace) stream for one named workload —
    the same generator in every suite, so their numbers are comparable."""
    stream, _ = generate_stream(
        WORKLOAD_BUILDERS[workload_name](), num_traces, abnormal_rate=0.02, seed=seed
    )
    return stream


def only_workload(args) -> str:
    """The workload of a suite whose report is one stream's cells,
    keyed by topology rather than by workload."""
    if len(args.workloads) != 1:
        raise SystemExit(f"{args.suite}: takes exactly one workload per report")
    return args.workloads[0]


def span_count(stream: Stream) -> int:
    return sum(len(trace.spans) for _, trace in stream)


def per_second(count: int, elapsed: float) -> float:
    return count / elapsed if elapsed > 0 else 0.0


def best_of(
    factory: Callable[[], MintFramework], stream: Stream, repeats: int
) -> tuple[float, MintFramework]:
    """Drive a fresh framework per repeat; keep the fastest run's
    framework open (the caller closes it) and close the rest.  One
    stream interval is small enough for scheduler noise to matter, so
    the minimum is the least-noise estimate.  An untimed full
    collection before each drive starts every repeat from the same
    collector state, so no repeat pays for an earlier one's garbage."""
    best_elapsed, best_framework = float("inf"), None
    for _ in range(max(1, repeats)):
        gc.collect()
        framework = factory()
        elapsed = drive(framework, stream)
        if elapsed < best_elapsed:
            loser, best_elapsed, best_framework = best_framework, elapsed, framework
        else:
            loser = framework
        if loser is not None:
            loser.close()
    return best_elapsed, best_framework
