"""Reads interleaved with writes: every answer equals the memo-free oracle.

The store memoises each exact trace it rebuilds (``exact_traces`` on the
engine and on the merged view) until a write, seal, promotion, pattern
change or shard-set change touches what it was built from.  The machine
below drives the public verbs in any order — ingest a trace or the late
half of one, finalize, point / batch / ``pull_params`` reads, seal, and
one reshard step on the sharded deployment — and after every read
patches ``tests/reference_read_path.py`` in and requires deeply equal
answers.  Its invariant pins the memo's footprint: only traces whose
every bucket is hot, so a sealed read always reads its block.

Predicate reads and standing queries ride along: a ``where`` read
must deeply equal the unscreened loop (the oracle does not patch the
plan's per-pattern screen), and after every finalize each active
subscription's hits equal the post-hoc answer of its spec, whose
candidates mix ingested ids with ids not yet ingested.

Tier-1 runs a fixed (derandomized) set of 40 examples per deployment;
``READ_MACHINE_EXAMPLES`` sets the count and draws fresh examples on
every run (the scheduled CI lane runs it long).
"""

from __future__ import annotations

import os

import pytest
import reference_read_path
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from test_query_screen import unscreened
from test_read_path_identity import deep

from repro.agent.reports import ParamsReport
from repro.cold import ColdPolicy
from repro.elastic.reshard import ReshardCoordinator
from repro.framework import MintFramework
from repro.model.trace import Trace
from repro.query import QuerySpec
from repro.sim.experiment import drive, generate_stream
from repro.transport.deployment import Deployment
from repro.workloads import build_onlineboutique

WARMUP = 8
ONLINE = 16
EXAMPLES = os.environ.get("READ_MACHINE_EXAMPLES")

_STREAM, _ = generate_stream(build_onlineboutique(), WARMUP + ONLINE, abnormal_rate=0.3, seed=5)
WARMUP_TRACES = [trace for _, trace in _STREAM[:WARMUP]]


def halves(trace: Trace) -> list[Trace]:
    """The trace as it reaches the backend in two steps: the spans of
    its first half of nodes, then (a late sub-trace) the rest."""
    nodes = sorted({span.node for span in trace.spans})
    if len(nodes) < 2:
        return [trace]
    early = set(nodes[: len(nodes) // 2])
    return [
        Trace(trace.trace_id, [span for span in trace.spans if span.node in early]),
        Trace(trace.trace_id, [span for span in trace.spans if span.node not in early]),
    ]


PARTS = [halves(trace) for _, trace in _STREAM[WARMUP:]]
IDS = [trace.trace_id for _, trace in _STREAM[WARMUP:]]
STEPS = st.sampled_from([0.01, 61.0])
PREDICATES = st.sampled_from(
    [
        {"error_only": True},
        {"service": "frontend"},
        {"service": "checkoutservice"},
        {"service": "frontend", "error_only": True},
        {"operation": "hipstershop.PaymentService/Charge"},
        {
            "service": "recommendationservice",
            "operation": "hipstershop.ProductCatalogService/GetProduct",
        },
    ]
)


def oracle(read):
    """``read()`` with every reconstruction routed through the oracle."""
    with pytest.MonkeyPatch.context() as patch:
        reference_read_path.install(patch)
        return read()


def memo_mirrors_hot_buckets(storage) -> None:
    """Every memoised trace still has a bucket, and none of its
    buckets is sealed (evicted or sealed traces do not linger)."""
    for trace_id in storage.exact_traces:
        assert trace_id in storage.params, trace_id
        assert not storage.params.is_sealed(trace_id), trace_id


class ReadWriteMachine(RuleBasedStateMachine):
    """One deployment; the oracle is the same store read memo-free.
    Reads draw the ids of ingested traces, or one never ingested."""

    deployment: Deployment
    ingested = Bundle("ingested")
    read_ids = st.one_of(ingested, st.just("no-such-trace"))

    @initialize()
    def start(self):
        self.framework = MintFramework(deployment=self.deployment)
        self.framework.warm_up(WARMUP_TRACES)
        # Every collector reports its warm-up patterns now, so a later
        # pattern change comes only from a 61 s step or a finalize.
        self.framework.finalize(0.0)
        self.now = 0.0
        self.sent = [0] * len(PARTS)  # halves of each trace ingested so far
        self.reshard = None
        self.subs = []
        if self.deployment.is_sharded:
            self.reshard = ReshardCoordinator(
                self.framework.backend, self.framework.transport, 3
            )

    def teardown(self):
        if hasattr(self, "framework"):
            self.framework.close()

    # -- writes --------------------------------------------------------
    def _send_next_half(self, index, step):
        """A 61 s step lets collectors send their pattern reports."""
        if self.sent[index] < len(PARTS[index]):
            self.now += step
            self.framework.process_trace(PARTS[index][self.sent[index]], self.now)
            self.sent[index] += 1

    @rule(target=ingested, index=st.integers(0, ONLINE - 1), step=STEPS)
    def ingest(self, index, step):
        """A trace's spans on its early nodes (or all of them)."""
        self._send_next_half(index, step)
        return IDS[index]

    @precondition(lambda self: any(0 < sent < len(parts) for sent, parts in zip(self.sent, PARTS)))
    @rule(target=ingested, data=st.data(), step=STEPS)
    def ingest_late(self, data, step):
        """The rest of a half-ingested trace: a late sub-trace."""
        pending = [i for i, parts in enumerate(PARTS) if 0 < self.sent[i] < len(parts)]
        index = data.draw(st.sampled_from(pending))
        self._send_next_half(index, step)
        return IDS[index]

    @rule()
    def finalize(self):
        self.framework.finalize(self.now)
        for sub in self.subs:
            want = sorted({result.trace_id for result in self.framework.execute(sub.spec)})
            assert sorted(sub.hit_ids) == want, sub.spec.describe()

    @rule(predicate=PREDICATES, data=st.data())
    def subscribe(self, predicate, data):
        """A standing query over ingested ids and ids not ingested yet."""
        seen = [trace_id for trace_id, sent in zip(IDS, self.sent) if sent]
        unseen = [trace_id for trace_id, sent in zip(IDS, self.sent) if not sent]
        candidates = data.draw(st.lists(st.sampled_from(seen), max_size=5)) if seen else []
        candidates += data.draw(st.lists(st.sampled_from(unseen), max_size=5)) if unseen else []
        spec = QuerySpec.where(candidates=candidates or IDS[:1], **predicate)
        self.subs.append(self.framework.subscribe(spec))

    @precondition(lambda self: self.subs)
    @rule(data=st.data())
    def unsubscribe(self, data):
        sub = data.draw(st.sampled_from(self.subs))
        self.framework.unsubscribe(sub)
        self.subs.remove(sub)

    @rule(keep=st.integers(0, 6))
    def seal(self, keep):
        self.framework.compact(ColdPolicy(keep_hot_traces=keep, keep_hot_blooms=keep))

    @precondition(lambda self: self.reshard is not None and not self.reshard.finished)
    @rule()
    def reshard_step(self):
        self.reshard.step()

    @precondition(lambda self: self.deployment.is_sharded)
    @rule()
    def saturate_prescreen(self):
        """From now on a pattern's next filter saturates its merged
        accumulator, as on a long stream: the pattern becomes an
        unconditional pre-screen candidate while others keep theirs."""
        self.framework.backend.storage._PRESCREEN_MAX_SATURATION = 0.0

    # -- reads ---------------------------------------------------------
    @rule(trace_id=read_ids)
    def point(self, trace_id):
        got = deep(self.framework.query(trace_id))
        assert got == oracle(lambda: deep(self.framework.query(trace_id)))

    @rule(trace_ids=st.lists(read_ids, min_size=1, max_size=6))
    def batch_with_repeats(self, trace_ids):
        ids = trace_ids + trace_ids[: len(trace_ids) // 2 + 1]

        def read():
            return [deep(result) for result in self.framework.query_many(ids)]

        assert read() == oracle(read)

    @rule(trace_id=read_ids)
    def pull(self, trace_id):
        pulled = deep(self.framework.execute(QuerySpec.point(trace_id, pull_params=True)).one())
        again = deep(self.framework.query(trace_id))
        want = oracle(lambda: deep(self.framework.query(trace_id)))
        assert pulled == want and again == want

    @rule(trace_ids=st.lists(read_ids, min_size=1, max_size=6), predicate=PREDICATES)
    def where(self, trace_ids, predicate):
        """Drawn ids (repeats included) before every ingested id."""
        seen = [trace_id for trace_id, sent in zip(IDS, self.sent) if sent]
        spec = QuerySpec.where(candidates=trace_ids + seen, **predicate)
        got = [deep(result) for result in self.framework.execute(spec)]
        assert got == unscreened(self.framework.backend.storage, spec)

    @invariant()
    def memo_footprint(self):
        if hasattr(self, "framework"):
            memo_mirrors_hot_buckets(self.framework.backend.storage)


MACHINE_SETTINGS = settings(
    max_examples=int(EXAMPLES or 40),
    derandomize=EXAMPLES is None,
    stateful_step_count=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class SingleMachine(ReadWriteMachine):
    deployment = Deployment.single()


class ShardedMachine(ReadWriteMachine):
    deployment = Deployment.sharded(2)


TestSingleReadWrite = SingleMachine.TestCase
TestSingleReadWrite.settings = MACHINE_SETTINGS
TestShardedReadWrite = ShardedMachine.TestCase
TestShardedReadWrite.settings = MACHINE_SETTINGS


# ----------------------------------------------------------------------
# Regressions the machine can find, pinned as plain tests
# ----------------------------------------------------------------------
@pytest.fixture(params=[1, 2], ids=["single", "sharded-2"])
def warm(request):
    deployment = Deployment.single() if request.param == 1 else Deployment.sharded(2)
    framework = MintFramework(deployment=deployment)
    framework.warm_up(WARMUP_TRACES)
    yield framework
    framework.close()


@pytest.fixture
def framework(warm):
    drive(warm, _STREAM[WARMUP:])
    return warm


def multi_node_exact(framework) -> str:
    for trace_id in IDS:
        result = framework.query(trace_id)
        if result.is_exact and len({span.node for span in result.trace.spans}) > 1:
            return trace_id
    raise AssertionError("the stream has no multi-node exact trace")


def test_memoised_trace_gains_a_late_span_from_another_node(framework):
    trace_id = multi_node_exact(framework)
    before = framework.query(trace_id)
    storage = framework.backend.storage
    assert trace_id in storage.exact_traces
    record = next(r for r in storage.params.get(trace_id) if r[2] != before.trace.spans[0].node)
    late = [f"late-{record[0]}", record[1], record[2], record[3], record[4] + 1.0, record[5]]
    framework.backend.receive(ParamsReport(node=record[2], trace_id=trace_id, records=[late]))
    after = framework.query(trace_id)
    assert len(after.trace.spans) == len(before.trace.spans) + 1
    assert f"late-{record[0]}" in {span.span_id for span in after.trace.spans}
    assert deep(after) == oracle(lambda: deep(framework.query(trace_id)))


def test_no_query_is_answered_from_the_memo_after_evict_host(framework):
    trace_id = multi_node_exact(framework)
    before = framework.query(trace_id)
    host = before.trace.spans[-1].node
    engine = framework.backend.storage_engines()[framework.backend.shard_for(host)]
    engine.evict_host(host)
    storage = framework.backend.storage
    assert trace_id not in storage.exact_traces
    after = framework.query(trace_id)
    assert host not in {span.node for span in after.trace.spans}
    assert deep(after) == oracle(lambda: deep(framework.query(trace_id)))


def test_sealed_traces_leave_the_memo_and_are_not_memoised_again(framework):
    exact = [trace_id for trace_id in IDS if framework.query(trace_id).is_exact]
    storage = framework.backend.storage
    assert set(exact) <= set(storage.exact_traces)
    framework.compact(ColdPolicy(keep_hot_traces=0))
    assert not storage.exact_traces
    for trace_id in exact:
        assert framework.query(trace_id).is_exact
    assert not storage.exact_traces


def test_memoised_trace_gains_the_spans_whose_pattern_arrives_later(warm):
    # Collectors report new patterns once a minute: a trace sampled in
    # between is exact without the spans of its unreported patterns.
    for step, (_, trace) in enumerate(_STREAM[WARMUP:], 1):
        warm.process_trace(trace, step * 0.01)
        short = warm.query(trace.trace_id)
        if short.is_exact and len(short.trace) < len(trace.spans):
            break
    else:
        raise AssertionError("no exact trace waited for a pattern report")
    assert trace.trace_id in warm.backend.storage.exact_traces
    warm.finalize(step * 0.01)
    full = warm.query(trace.trace_id)
    assert len(full.trace) == len(trace.spans)
    assert deep(full) == oracle(lambda: deep(warm.query(trace.trace_id)))
