"""Ingest suite: warm-pattern agent throughput vs the frozen seed.

Measures warm agent ingest (spans/sec, p50/p99 per-trace latency) over
the OnlineBoutique, TrainTicket and Alibaba workloads and re-measures
the same streams under the seed implementation (:mod:`seed_reference`).
``--check`` gates: warm ingest stays at least ``--min-speedup`` times
the seed's spans/sec on every workload, and the incremental byte
estimator agrees with the JSON ruler on every measured record.

One measurement = one workload streamed through per-node
:class:`MintAgent` instances (the paper's hot path: parse, mount,
buffer, sample), instrumented two ways:

* **throughput** — the whole measured stream is grouped per node and
  pushed through :meth:`MintAgent.ingest_many`; spans/sec and
  sub-traces/sec come from one wall-clock interval around the batch.
* **latency** — a second pass over fresh agents ingests trace by trace
  (the request-serving shape) and records per-trace wall latency into a
  :class:`LatencyStats` for exact p50/p99.

The first ``warmup_traces`` of the stream warm the attribute parsers
and pattern libraries before any timing starts, so the measured window
is the steady state the paper cares about: warm patterns, cold bytes.
"""

from __future__ import annotations

import time

from common import build_stream, per_second
from seed_reference import seed_mode, seed_params_size_bytes

from repro.agent.agent import MintAgent
from repro.agent.config import MintConfig
from repro.model.trace import SubTrace, Trace
from repro.sim.meters import LatencyStats
from repro.workloads import WORKLOAD_BUILDERS

# Per-workload (traces, warm-up) stream scale: the measured window must
# sit in the warm steady state, so warm-up scales with the workload's
# vocabulary.  TrainTicket's 45 services take several hundred traces
# before its attribute vocabularies converge; the 10-service workloads
# are warm far sooner.
WORKLOAD_SCALE: dict[str, tuple[int, int]] = {
    "onlineboutique": (400, 120),
    "trainticket": (800, 400),
    "alibaba": (400, 120),
}
# --traces / --warmup-traces override the per-workload scale.
DEFAULTS = {"traces": None, "warmup_traces": None, "workloads": list(WORKLOAD_BUILDERS)}
FLAGS = {
    "--quick": dict(action="store_true", help="skip the seed-mode baseline re-measurement"),
    "--min-speedup": dict(type=float, default=3.0, help="gate: fast / seed spans/sec floor"),
}
# Best-of-N throughput repeats: one batch interval is tens of
# milliseconds, so a single sample is at the mercy of scheduler noise.
THROUGHPUT_REPEATS = 5


def build_traces(workload_name: str, num_traces: int) -> list[Trace]:
    """Deterministic trace stream for one named workload."""
    return [trace for _, trace in build_stream(workload_name, num_traces, seed=11)]


def _agents_for(traces: list[Trace], config: MintConfig) -> dict[str, MintAgent]:
    nodes = {span.node for trace in traces for span in trace.spans}
    return {node: MintAgent(node=node, config=config) for node in sorted(nodes)}


def _warm_up(agents: dict[str, MintAgent], traces: list[Trace]) -> None:
    per_node: dict[str, list] = {}
    for trace in traces:
        for span in trace.spans:
            per_node.setdefault(span.node, []).append(span)
    for node, spans in per_node.items():
        agents[node].warm_up(spans)
    # One untimed ingest pass over the warm-up traces populates the
    # pattern libraries and value caches: the measured window then
    # exercises the warm-pattern fast paths, not first-sight learning.
    for trace in traces:
        for sub_trace in trace.sub_traces():
            agents[sub_trace.node].ingest(sub_trace)


def _prepare(
    traces: list[Trace], warmup_traces: int
) -> tuple[list[Trace], list[Trace], dict[str, list[SubTrace]], int, int]:
    if warmup_traces >= len(traces):
        raise ValueError("warmup_traces must leave a measured window")
    warmup, measured = traces[:warmup_traces], traces[warmup_traces:]
    batches: dict[str, list[SubTrace]] = {}
    span_count = 0
    sub_trace_count = 0
    for trace in measured:
        for sub_trace in trace.sub_traces():
            batches.setdefault(sub_trace.node, []).append(sub_trace)
            sub_trace_count += 1
            span_count += len(sub_trace.spans)
    return warmup, measured, batches, span_count, sub_trace_count


def _throughput_once(
    traces: list[Trace],
    warmup: list[Trace],
    batches: dict[str, list[SubTrace]],
    config: MintConfig,
) -> float:
    """One fresh-agent warm-up plus one timed batch interval."""
    agents = _agents_for(traces, config)
    _warm_up(agents, warmup)
    started = time.perf_counter()
    for node, batch in batches.items():
        agents[node].ingest_many(batch)
    return time.perf_counter() - started


def _latency_stats(
    traces: list[Trace],
    warmup: list[Trace],
    measured: list[Trace],
    config: MintConfig,
    name: str,
) -> LatencyStats:
    agents = _agents_for(traces, config)
    _warm_up(agents, warmup)
    stats = LatencyStats(name=name)
    for trace in measured:
        t0 = time.perf_counter()
        for sub_trace in trace.sub_traces():
            agents[sub_trace.node].ingest(sub_trace)
        stats.record(time.perf_counter() - t0)
    return stats


def _measurement(
    workload_name: str,
    measured: list[Trace],
    span_count: int,
    sub_trace_count: int,
    elapsed: float,
    stats: LatencyStats,
) -> dict:
    """One workload's numbers, in the units BENCH_ingest.json records."""
    return {
        "workload": workload_name,
        "traces": len(measured),
        "sub_traces": sub_trace_count,
        "spans": span_count,
        "elapsed_seconds": round(elapsed, 6),
        "spans_per_sec": round(per_second(span_count, elapsed), 1),
        "sub_traces_per_sec": round(per_second(sub_trace_count, elapsed), 1),
        "p50_ms": round(stats.p50 * 1000.0, 4),
        "p99_ms": round(stats.p99 * 1000.0, 4),
        "mean_ms": round(stats.mean * 1000.0, 4),
    }


def measure_ingest(
    workload_name: str, traces: list[Trace], warmup_traces: int, with_baseline: bool = True
) -> tuple[dict, dict | None]:
    """Measure warm-pattern ingest, fast and (optionally) under seed mode.

    Builds fresh agents, warms them on the stream's head, then times the
    tail — batched for throughput (best-of-N fresh-agent repeats, the
    minimum interval being the least-noise estimate), per-trace for
    latency percentiles.  Fast and seed repeats alternate so slow
    host-level drift (noisy-neighbour VMs, thermal throttling) hits
    both sides equally instead of biasing whichever ran second.
    """
    config = MintConfig()
    warmup, measured, batches, span_count, sub_trace_count = _prepare(
        traces, warmup_traces
    )
    fast_elapsed = seed_elapsed = float("inf")
    for _ in range(THROUGHPUT_REPEATS):
        fast_elapsed = min(fast_elapsed, _throughput_once(traces, warmup, batches, config))
        if with_baseline:
            with seed_mode():
                seed_elapsed = min(
                    seed_elapsed, _throughput_once(traces, warmup, batches, config)
                )
    fast = _measurement(
        workload_name, measured, span_count, sub_trace_count, fast_elapsed,
        _latency_stats(traces, warmup, measured, config, f"{workload_name}-ingest"),
    )
    if not with_baseline:
        return fast, None
    with seed_mode():
        seed_stats = _latency_stats(
            traces, warmup, measured, config, f"{workload_name}-ingest-seed"
        )
    return fast, _measurement(
        workload_name, measured, span_count, sub_trace_count, seed_elapsed, seed_stats
    )


def verify_byte_invariant(traces: list[Trace]) -> int:
    """Assert the fast sizer matches the JSON ruler span by span.

    Returns the number of records checked; raises AssertionError on the
    first divergence (the fast estimator must be an optimisation of the
    byte ruler, never a re-definition of it).
    """
    agent_by_node: dict[str, MintAgent] = {}
    checked = 0
    for trace in traces:
        for sub_trace in trace.sub_traces():
            agent = agent_by_node.get(sub_trace.node)
            if agent is None:
                agent = MintAgent(node=sub_trace.node)
                agent_by_node[sub_trace.node] = agent
            result = agent.ingest(sub_trace)
            assert result.parsed is not None
            for span in result.parsed.parsed_spans:
                fast = span.params_size_bytes()
                ruler = seed_params_size_bytes(span)
                if fast != ruler:
                    raise AssertionError(
                        f"byte-accounting invariant broken for span "
                        f"{span.span_id}: fast={fast} ruler={ruler}"
                    )
                checked += 1
    return checked


def measure(args) -> dict:
    """Every workload fast and (unless ``--quick``) under seed mode."""
    report: dict = {
        "units": {
            "spans_per_sec": "spans ingested per wall-clock second (warm patterns, batched)",
            "p50_ms/p99_ms": "per-trace agent ingest latency percentiles, milliseconds",
        },
        "workloads": {},
        "baseline_seed": {},
        "speedup_spans_per_sec": {},
    }
    for name in args.workloads:
        default_total, default_warm = WORKLOAD_SCALE[name]
        fast, seed = measure_ingest(
            name,
            build_traces(name, args.traces or default_total),
            args.warmup_traces or default_warm,
            with_baseline=not args.quick,
        )
        report["workloads"][name] = fast
        line = (
            f"{name:16s} fast: {fast['spans_per_sec']:>10.0f} spans/s  "
            f"p50 {fast['p50_ms']:7.3f} ms  p99 {fast['p99_ms']:7.3f} ms"
        )
        if seed is not None:
            report["baseline_seed"][name] = seed
            speedup = (
                fast["spans_per_sec"] / seed["spans_per_sec"] if seed["spans_per_sec"] else 0.0
            )
            report["speedup_spans_per_sec"][name] = round(speedup, 2)
            line += (
                f"  | seed: {seed['spans_per_sec']:>10.0f} spans/s"
                f"  speedup {speedup:5.2f}x"
            )
        print(line)
    if report["speedup_spans_per_sec"]:
        report["min_speedup"] = round(min(report["speedup_spans_per_sec"].values()), 2)
    if args.check:
        checked = verify_byte_invariant(build_traces(args.workloads[0], 60))
        report["byte_invariant_records_checked"] = checked
        print(f"byte-accounting invariant: {checked} records checked, all exact")
    return report


def check(report: dict, args) -> list[str]:
    if not report["speedup_spans_per_sec"]:
        return ["--check requires the seed baseline (drop --quick)"]
    return [
        f"{name}: speedup {speedup:.2f}x < required {args.min_speedup:.2f}x"
        for name, speedup in report["speedup_spans_per_sec"].items()
        if speedup < args.min_speedup
    ]
