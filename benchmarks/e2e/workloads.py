"""Seeded, stratified inputs and the four workload definitions.

A workload is a deployment recipe, an offline warm-up head and a
*script*: the ordered operations one repeat drives through
``MintFramework``'s public surface.  Sizes are part of the definition
(never scaled by the time budget); ``--smoke`` swaps in the small table
the tier-1 smoke test uses.

Stratification is what keeps the exact metrics (byte ratios, sampled
share) within a few percent between seeds: the request mix is a smooth
weighted round-robin over the workload's API weights, every
``FAULT_EVERY``-th online trace is faulted with the fault types taking
turns, and the seed only draws what a real fleet would randomise —
ids, attribute values, durations, the faulted service, the analysts'
query ids and the wire's chaos seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.cold import ColdPolicy
from repro.model.encoding import encoded_size
from repro.model.trace import Trace
from repro.net.chaos import CHAOS_PROFILES
from repro.net.transport import NetworkDescriptor
from repro.query.spec import QuerySpec
from repro.transport import Deployment
from repro.workloads import (
    FaultInjector,
    FaultSpec,
    FaultType,
    QueryWorkload,
    TraceGenerator,
    TraceRecord,
    build_dataset,
    build_onlineboutique,
    build_trainticket,
    incident_window_spec,
)
from repro.workloads.specs import Workload

FAULT_EVERY = 20
TRACE_INTERVAL_S = 0.01  # 6 000 requests per simulated minute
BATCH_IDS = 250
PULL_IDS = 20

# Operation kinds; the harness groups per-operation timings by kind.
# The first three are the set-up (``setup_s``).
CONSTRUCT, WARM_UP, SUBSCRIBE = "construct", "warm_up", "subscribe"
SETUP_KINDS = (CONSTRUCT, WARM_UP, SUBSCRIBE)
INGEST, FINALIZE, POINT, BATCH, WHERE, PULL, COMPACT = (
    "ingest",
    "finalize",
    "point",
    "batch",
    "where",
    "pull",
    "compact",
)


@dataclass(frozen=True)
class Op:
    """One scripted call: ``kind`` picks the framework method, ``arg``
    is its input (a deployment factory, traces, an id, an id tuple, a
    spec or a policy) and ``now`` the simulated clock for the calls
    that take one."""

    kind: str
    arg: object = None
    now: float = 0.0


@dataclass
class Inputs:
    """Everything one repeat needs, built once per run from the seed."""

    script: list[Op]  # the set-up operations first
    span_counts: dict[str, int]  # online trace id -> spans in the original
    raw_bytes: int  # sum of encoded_size over the online traces
    online_spans: int
    # Mechanisms that must have fired, by name (keys of ``repeat._stats``).
    must_fire: tuple[str, ...] = ()


# name -> (full size table, smoke size table)
SIZES: dict[str, tuple[dict[str, int], dict[str, int]]] = {
    "tt-deep-single": (
        {"warmup": 20, "online": 1200, "point": 1000, "batches": 4},
        {"warmup": 8, "online": 60, "point": 60, "batches": 1},
    ),
    "ob-sharded-lossy": (
        {"warmup": 100, "online": 3000, "point": 2000, "batches": 8},
        {"warmup": 20, "online": 200, "point": 100, "batches": 1},
    ),
    "ali-analyst-reads": (
        {"warmup": 20, "online": 1500, "point": 3000, "batches": 8,
         "wheres": 20, "pulls": 8},
        {"warmup": 8, "online": 80, "point": 100, "batches": 1,
         "wheres": 3, "pulls": 2},
    ),
    "ob-live-cold-mixed": (
        {"warmup": 100, "rounds": 4, "online": 300, "point": 300,
         "batches": 2, "pulls": 2, "keep_hot": 50},
        {"warmup": 20, "rounds": 2, "online": 60, "point": 40,
         "batches": 1, "pulls": 1, "keep_hot": 10},
    ),
}

def _mix(weights: list[float], count: int) -> list[int]:
    """Smooth weighted round-robin: the same API sequence for every
    seed, each API at its weight's share of every window."""
    current = [0.0] * len(weights)
    total = sum(weights)
    order = []
    for _ in range(count):
        for i, weight in enumerate(weights):
            current[i] += weight
        pick = max(range(len(weights)), key=current.__getitem__)
        current[pick] -= total
        order.append(pick)
    return order


def build_stream(
    workload: Workload, seed: int, warmup: int, online: int
) -> tuple[list[Trace], list[tuple[float, Trace]], list[TraceRecord]]:
    """The warm-up head, the timestamped online stream and its request
    log.  Only online traces are faulted (warm-up samples healthy
    traffic, as the paper's offline stage does)."""
    generator = TraceGenerator(workload, seed=seed)
    injector = FaultInjector(seed=seed ^ 0x77)
    rng = random.Random(seed ^ 0x3333)
    fault_types = list(FaultType)
    apis = workload.apis
    order = _mix([api.weight for api in apis], warmup + online)
    head = [generator.generate(apis[k]) for k in order[:warmup]]
    stream: list[tuple[float, Trace]] = []
    records: list[TraceRecord] = []
    for i, k in enumerate(order[warmup:]):
        now = (i + 1) * TRACE_INTERVAL_S
        trace = generator.generate(apis[k], start_time=now)
        faulted = i % FAULT_EVERY == FAULT_EVERY - 1
        if faulted:
            target = rng.choice(sorted(trace.services))
            fault = fault_types[(i // FAULT_EVERY) % len(fault_types)]
            trace = injector.inject(trace, FaultSpec(fault, target))
        stream.append((now, trace))
        records.append(TraceRecord(trace.trace_id, now, faulted))
    return head, stream, records


def _reads(
    records: list[TraceRecord], seed: int, point: int, batches: int
) -> list[Op]:
    """The analysts' id stream (Fig. 12 model: biased towards abnormal
    traces, drawn with replacement): point lookups, then batches."""
    queries = QueryWorkload(seed=seed ^ 0x51)
    ops = [Op(POINT, tid) for tid in queries.sample_queries(records, point)]
    for _ in range(batches):
        ops.append(Op(BATCH, tuple(queries.sample_queries(records, BATCH_IDS))))
    return ops


def _setup(
    deployment: Callable[[], Deployment],
    head: list[Trace],
    subscription: QuerySpec | None,
) -> list[Op]:
    """Construct, then the offline warm-up one node at a time.

    ``MintFramework.warm_up`` hands every node's agent the spans of
    that node; feeding it one node's fragments per call gives each
    agent the identical sample (agents warm up independently, as they
    do on their own hosts) while splitting the longest operation of
    the path into pieces short enough to be timed against the
    machine's speed (see ``repeat.speed_probe``).  Nodes keep their
    first-appearance order, so collectors register as one call would
    register them."""
    by_node: dict[str, list[Trace]] = {}
    for trace in head:
        fragments: dict[str, list] = {}
        for span in trace.spans:
            fragments.setdefault(span.node, []).append(span)
        for node, spans in fragments.items():
            by_node.setdefault(node, []).append(Trace(trace.trace_id, spans))
    ops = [Op(CONSTRUCT, deployment)]
    ops += [Op(WARM_UP, fragments) for fragments in by_node.values()]
    if subscription is not None:
        ops.append(Op(SUBSCRIBE, subscription))
    return ops


def _inputs(deployment, head, stream, script, subscription=None, **extra):
    traces = [trace for _, trace in stream]
    return Inputs(
        script=_setup(deployment, head, subscription) + script,
        span_counts={t.trace_id: len(t.spans) for t in traces},
        raw_bytes=sum(encoded_size(t) for t in traces),
        online_spans=sum(len(t.spans) for t in traces),
        **extra,
    )


def _ingest_then_read(workload, deployment, seed, n, tail=None, **extra):
    head, stream, records = build_stream(workload, seed, n["warmup"], n["online"])
    end = stream[-1][0]
    script = [Op(INGEST, trace, now) for now, trace in stream]
    script.append(Op(FINALIZE, now=end))
    script += _reads(records, seed, n["point"], n["batches"])
    if tail is not None:
        # Pulls upload parameters after the flush; a closing finalize
        # settles the storage meter so the byte ratios include them.
        script += tail(records)
        script.append(Op(FINALIZE, now=end))
    return _inputs(deployment, head, stream, script, **extra)


def tt_deep_single(seed: int, n: dict[str, int]) -> Inputs:
    return _ingest_then_read(build_trainticket(), Deployment.single, seed, n)


def ob_sharded_lossy(seed: int, n: dict[str, int]) -> Inputs:
    chaos_seed = random.Random(seed ^ 0xC4A05).getrandbits(31)
    network = NetworkDescriptor.batched().with_chaos(
        CHAOS_PROFILES["drop"], chaos_seed
    )
    return _ingest_then_read(
        build_onlineboutique(),
        lambda: Deployment.sharded(4, network=network),
        seed,
        n,
        must_fire=("net.retransmit_bytes", "query.filters_pruned"),
    )


def ali_analyst_reads(seed: int, n: dict[str, int]) -> Inputs:
    def tail(records: list[TraceRecord]) -> list[Op]:
        # Incident windows slide across the run, half a window apart.
        span = records[-1].timestamp
        width = 2.0 * span / (n["wheres"] + 1)
        ops = [
            Op(
                WHERE,
                incident_window_spec(
                    records, i * width / 2, i * width / 2 + width, error_only=True
                ),
            )
            for i in range(n["wheres"])
        ]
        # Upgrades target ordinary (unsampled) traces: their parameters
        # are still in the agents' buffers, which is what a pull fetches.
        rng = random.Random(seed ^ 0x9011)
        normal = [r.trace_id for r in records if not r.is_abnormal]
        picks = rng.sample(normal, n["pulls"] * PULL_IDS)
        for i in range(n["pulls"]):
            ops.append(Op(PULL, tuple(picks[i * PULL_IDS : (i + 1) * PULL_IDS])))
        return ops

    return _ingest_then_read(
        build_dataset("A"),
        Deployment.single,
        seed,
        n,
        tail=tail,
        must_fire=("query.params_pulled",),
    )


def ob_live_cold_mixed(seed: int, n: dict[str, int]) -> Inputs:
    rounds, per_round = n["rounds"], n["online"]
    head, stream, records = build_stream(
        build_onlineboutique(), seed, n["warmup"], rounds * per_round
    )
    policy = ColdPolicy(codec="zlib", keep_hot_traces=n["keep_hot"])
    rng = random.Random(seed ^ 0x9011)
    script: list[Op] = []
    for r in range(rounds):
        lo, hi = r * per_round, (r + 1) * per_round
        end = stream[hi - 1][0]
        script += [Op(INGEST, trace, now) for now, trace in stream[lo:hi]]
        # Each round flushes before it reads: until a collector's Bloom
        # filters and pattern report reach the backend, an unsampled id
        # answers miss and an exact answer lacks the spans whose
        # pattern is still unreported (the product's report interval).
        script.append(Op(FINALIZE, now=end))
        script.append(Op(COMPACT, policy, end))
        seen = records[:hi]
        script += _reads(seen, seed + r, n["point"], n["batches"])
        normal = [rec.trace_id for rec in seen if not rec.is_abnormal]
        for _ in range(n["pulls"]):
            script.append(Op(PULL, tuple(rng.sample(normal, PULL_IDS))))
    script.append(Op(FINALIZE, now=stream[-1][0]))
    subscription = QuerySpec.where(
        error_only=True, candidates=[rec.trace_id for rec in records]
    )
    return _inputs(
        lambda: Deployment.sharded(2),
        head,
        stream,
        script,
        subscription=subscription,
        must_fire=("cold.sealed_blocks", "cold.blocks_decoded", "live.pushes"),
    )


BUILDERS: dict[str, Callable[[int, dict[str, int]], Inputs]] = {
    "tt-deep-single": tt_deep_single,
    "ob-sharded-lossy": ob_sharded_lossy,
    "ali-analyst-reads": ali_analyst_reads,
    "ob-live-cold-mixed": ob_live_cold_mixed,
}


def build(name: str, seed: int, smoke: bool = False) -> Inputs:
    """The inputs of workload ``name`` for ``seed``."""
    return BUILDERS[name](seed, SIZES[name][1 if smoke else 0])
