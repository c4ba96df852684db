"""Span predicates decided per pattern: the screened plan against the
unscreened loop.

A plan with ``service`` / ``operation`` / ``error_only`` and no upgrade
hook skips every id ``Querier.may_match`` rules out before rebuilding
it.  The frozen read-path oracle patches the lookups and the
reconstructions, not the plan, so it cannot see a broken screen; the
reference here is the loop the screen replaces — every candidate
rebuilt by ``Querier.query`` and judged by ``matches_result``.

* Screened ≡ unscreened, for every predicate field, on a single engine,
  two shards, a sealed cold tier, a merged view with saturated
  accumulators, and a store whose exact traces still hold records of
  unreported span patterns.
* A half-drained predicate cursor sees the hit a mid-drain pattern
  report or a mid-drain filter (a new accumulator) creates.
* ``where(error_only)`` on a sealed store with no error pattern probes
  no filter and decodes no block.
"""

from __future__ import annotations

import pytest
from test_read_path_identity import deep

from repro.agent.reports import BloomReport, ParamsReport, PatternLibraryReport
from repro.backend.backend import MintBackend
from repro.backend.querier import Querier
from repro.backend.sharded import MergedStorageView, ShardedBackend
from repro.bloom.bloom_filter import sized_for_bytes
from repro.cold import ColdPolicy
from repro.framework import MintFramework
from repro.parsing.span_parser import DURATION_KEY, SpanPattern
from repro.parsing.trace_parser import TopoPattern
from repro.query import QuerySpec
from repro.query.spec import matches_result
from repro.sim.experiment import drive, generate_stream
from repro.transport.deployment import Deployment
from repro.workloads import build_onlineboutique

WARMUP = 40
STREAM, _ = generate_stream(build_onlineboutique(), 200, abnormal_rate=0.3, seed=9)
IDS = [trace.trace_id for _, trace in STREAM[WARMUP:]] + ["no-such-trace"]


def unscreened(storage, spec: QuerySpec) -> list:
    """The spec's answer with no screen: every candidate rebuilt and
    judged (``topo_pattern_id`` is not screened, so not used here)."""
    querier = Querier(storage)
    results = (querier.query(trace_id) for trace_id in spec.trace_ids)
    return [deep(result) for result in results if matches_result(spec, result)]


def framework_for(shards: int, *, seal: bool = False, late: int = 0) -> MintFramework:
    """The stream driven and finalized, but for its last ``late``
    traces: those arrive 0.01 s apart after the finalize, so their
    collectors have not yet reported the patterns they learned."""
    deployment = Deployment.single() if shards == 1 else Deployment.sharded(shards)
    framework = MintFramework(deployment=deployment)
    framework.warm_up([trace for _, trace in STREAM[:WARMUP]])
    drive(framework, STREAM[WARMUP : len(STREAM) - late])
    now = STREAM[len(STREAM) - late - 1][0]
    for step, (_, trace) in enumerate(STREAM[len(STREAM) - late :], 1):
        framework.process_trace(trace, now + step * 0.01)
    if seal:
        framework.compact(ColdPolicy(keep_hot_traces=10, keep_hot_blooms=4))
        assert framework.cold_stats()["sealed_blocks"] > 0
    return framework


def saturated_framework(monkeypatch) -> MintFramework:
    """Two shards whose pre-screen dropped some accumulators, not all."""
    monkeypatch.setattr(MergedStorageView, "_PRESCREEN_MAX_SATURATION", 0.002)
    framework = framework_for(2)
    view = framework.backend.storage
    assert view._prescreen_saturated and view._accumulators
    return framework


def unreported_framework() -> MintFramework:
    framework = framework_for(1, late=80)
    storage = framework.backend.storage
    unstored = [
        trace_id
        for trace_id in storage.params
        if any(record[3] not in storage.span_patterns for record in storage.params[trace_id])
    ]
    assert unstored, "no exact trace holds a record of an unreported pattern"
    return framework


STORES = {
    "single": lambda patch: framework_for(1),
    "sharded-2": lambda patch: framework_for(2),
    "sealed-sharded-2": lambda patch: framework_for(2, seal=True),
    "saturated-sharded-2": saturated_framework,
    "unreported-span-pattern": lambda patch: unreported_framework(),
}


def predicate_specs(storage) -> list[QuerySpec]:
    """Every service, a few operations, errors, and their conjunctions."""
    patterns = [storage.span_patterns.get(pattern_id) for pattern_id in storage.span_patterns]
    services = sorted({pattern.service for pattern in patterns})
    operations = sorted({pattern.name for pattern in patterns})[::3]
    predicates = [{"error_only": True}, {"service": "no-such-service"}]
    predicates += [{"service": service} for service in services]
    predicates += [{"service": service, "error_only": True} for service in services]
    predicates += [{"operation": operation} for operation in operations]
    predicates += [{"service": services[0], "operation": operations[0]}]
    candidates = IDS + IDS[:15]  # repeats are served from the plan's memo
    specs = [QuerySpec.where(candidates=candidates, **predicate) for predicate in predicates]
    window = (STREAM[WARMUP + 20][0], STREAM[WARMUP + 90][0])
    specs.append(QuerySpec.where(candidates=candidates, error_only=True, time_range=window))
    return specs


@pytest.mark.parametrize("store", sorted(STORES))
def test_screened_answers_equal_the_unscreened_loop(store, monkeypatch):
    framework = STORES[store](monkeypatch)
    storage = framework.backend.storage
    screened_probes = unscreened_probes = 0
    for spec in predicate_specs(storage):
        before = storage.filters_probed
        got = [deep(result) for result in framework.execute(spec)]
        screened_probes += storage.filters_probed - before
        before = storage.filters_probed
        want = unscreened(storage, spec)
        unscreened_probes += storage.filters_probed - before
        assert got == want, spec.describe()
    assert screened_probes < unscreened_probes
    framework.close()


# ----------------------------------------------------------------------
# A half-drained cursor sees what lands mid-drain
# ----------------------------------------------------------------------
HOST = "host-a"
CART = SpanPattern(
    name="GET /cart",
    service="cart",
    kind="server",
    status="error",
    attributes=((DURATION_KEY, "numeric", "<num>"),),
)
PAYMENT = SpanPattern(
    name="charge",
    service="payment",
    kind="server",
    status="error",
    attributes=((DURATION_KEY, "numeric", "<num>"),),
)
CART_TOPO = TopoPattern(((CART.pattern_id, ()),), (("cart", "GET /cart"),), ())
PAYMENT_TOPO = TopoPattern(((PAYMENT.pattern_id, ()),), (("payment", "charge"),), ())
CART_ID, PAYMENT_ID = "1" * 32, "2" * 32


def pattern_report(*pairs) -> PatternLibraryReport:
    return PatternLibraryReport(
        node=HOST,
        span_patterns=[span.to_dict() for span, _ in pairs],
        topo_patterns=[topo.to_dict() for _, topo in pairs],
    )


def bloom_report(topo: TopoPattern, trace_id: str) -> BloomReport:
    filt = sized_for_bytes(4096)
    filt.add(trace_id)
    return BloomReport(
        node=HOST, topo_pattern_id=topo.pattern_id, payload=filt.to_bytes(), inserted=1
    )


MID_DRAIN = {
    # The payment patterns are reported after the first hit is drained.
    "pattern-report": (
        [pattern_report((CART, CART_TOPO)), bloom_report(CART_TOPO, CART_ID),
         bloom_report(PAYMENT_TOPO, PAYMENT_ID)],
        pattern_report((PAYMENT, PAYMENT_TOPO)),
    ),
    # Every pattern is known; the payment filter (on two shards, a new
    # accumulator) lands after the first hit is drained.
    "new-filter": (
        [pattern_report((CART, CART_TOPO), (PAYMENT, PAYMENT_TOPO)),
         bloom_report(CART_TOPO, CART_ID)],
        bloom_report(PAYMENT_TOPO, PAYMENT_ID),
    ),
}


@pytest.mark.parametrize("case", sorted(MID_DRAIN))
@pytest.mark.parametrize(
    "make", [MintBackend, lambda: ShardedBackend(num_shards=2)], ids=["single", "sharded-2"]
)
def test_a_half_drained_cursor_sees_a_hit_created_mid_drain(make, case):
    backend = make()
    before, mid_drain = MID_DRAIN[case]
    for report in before:
        backend.receive(report)
    cursor = backend.execute(QuerySpec.where(candidates=[CART_ID, PAYMENT_ID], error_only=True))
    assert next(cursor).trace_id == CART_ID
    backend.receive(mid_drain)
    late = next(cursor)
    assert (late.trace_id, late.status) == (PAYMENT_ID, "partial")
    assert [view["service"] for view in late.approximate.segments[0].spans] == ["payment"]


@pytest.mark.parametrize(
    "make", [MintBackend, lambda: ShardedBackend(num_shards=2)], ids=["single", "sharded-2"]
)
def test_params_of_only_unreported_patterns_leave_the_id_to_its_filters(make):
    # _reconstruct_exact answers None without a stored pattern, so the
    # id answers from its filters: a cart segment, a hit of service=cart.
    backend = make()
    record = ["s1", None, HOST, PAYMENT.pattern_id, 1.0, [12.0]]
    for report in (
        pattern_report((CART, CART_TOPO)),
        bloom_report(CART_TOPO, PAYMENT_ID),
        ParamsReport(node=HOST, trace_id=PAYMENT_ID, records=[record]),
    ):
        backend.receive(report)
    spec = QuerySpec.where(candidates=[PAYMENT_ID], service="cart")
    (hit,) = backend.execute(spec).all()
    assert hit.status == "partial"
    assert [deep(hit)] == unscreened(backend.storage, spec)
    backend.receive(pattern_report((PAYMENT, PAYMENT_TOPO)))
    assert backend.execute(spec).all() == unscreened(backend.storage, spec) == []


# ----------------------------------------------------------------------
# Cost: no pattern can match, so nothing is read
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards", [1, 2], ids=["single", "sharded-2"])
def test_where_error_only_without_an_error_pattern_reads_nothing(shards):
    stream, _ = generate_stream(build_onlineboutique(), 160, abnormal_rate=0.0, seed=9)
    deployment = Deployment.single() if shards == 1 else Deployment.sharded(shards)
    framework = MintFramework(deployment=deployment)
    framework.warm_up([trace for _, trace in stream[:WARMUP]])
    drive(framework, stream[WARMUP:])
    framework.compact(ColdPolicy())  # everything sealed
    storage = framework.backend.storage
    statuses = {storage.span_patterns.get(p).status for p in storage.span_patterns}
    assert "error" not in statuses
    cold = framework.cold_stats()
    assert cold["sealed_params_traces"] > 0 and cold["sealed_bloom_filters"] > 0
    ids = [trace.trace_id for _, trace in stream[WARMUP:]]
    cursor = framework.execute(QuerySpec.where(candidates=ids, error_only=True))
    assert cursor.all() == []
    assert (cursor.stats.candidates, cursor.stats.predicate_rejected) == (len(ids), 0)
    assert cursor.stats.filters_probed == 0
    assert framework.cold_stats()["blocks_decoded"] == cold["blocks_decoded"]
    framework.close()
