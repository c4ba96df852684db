"""Seal boundaries: queries, retroactive pulls, eviction, resharding.

The cold tier's user-facing contract is transparency: sealing segments
into compressed blocks must be invisible to every read path and every
byte ruler except the physical side of the storage split.  This module
pins that end to end — point/batch/predicate queries straddling sealed
and unsealed segments answer bit-identically to a never-sealed twin,
retroactive writes against a sealed record unseal-or-fail loudly
(never stale bytes), and ``evict_host``/reshard conserve the logical
byte counters exactly on stores holding sealed segments.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.agent.reports import BloomReport, ParamsReport
from repro.backend.backend import MintBackend
from repro.backend.storage import StorageEngine
from repro.cold import ColdPolicy, ColdReadError, compact_engine, compactor
from repro.framework import MintFramework
from repro.sim.experiment import generate_stream
from repro.transport import Deployment
from repro.workloads import build_onlineboutique
from repro.workloads.queries import TraceRecord, incident_window_spec

from tests.test_backend_retroactive_pull import subtrace, wire

NUM_TRACES = 140
WARMUP = 40


@pytest.fixture(scope="module")
def stream():
    stream, targets = generate_stream(
        build_onlineboutique(), NUM_TRACES, abnormal_rate=0.12, seed=7
    )
    return stream, targets


def drive(framework, stream, compact_at=None):
    """Ingest the stream, optionally compacting mid-run and at the end.

    Mid-run compaction is the interesting shape: the second half of the
    stream lands on a store already holding sealed segments, exercising
    writes after seals; the closing pass seals the tail so queries see
    sealed segments from both halves.
    """
    last_now = 0.0
    for index, (now, trace) in enumerate(stream):
        if compact_at is not None and index == compact_at:
            framework.compact(ColdPolicy())
        framework.process_trace(trace, now)
        last_now = now
    framework.finalize(last_now)
    if compact_at is not None:
        framework.compact(ColdPolicy(keep_hot_traces=5, keep_hot_blooms=8))
    return framework


def signature(result):
    return (result.trace_id, result.status, result.trace, result.approximate)


@pytest.fixture(scope="module", params=["single", "sharded-2"])
def twin_pair(request, stream):
    """A never-sealed reference and its sealed-mid-stream twin."""
    deployment = {
        "single": Deployment.single,
        "sharded-2": lambda: Deployment.sharded(2),
    }[request.param]
    traces, _ = stream
    reference = drive(
        MintFramework(deployment=deployment(), auto_warmup_traces=WARMUP), traces
    )
    sealed = drive(
        MintFramework(deployment=deployment(), auto_warmup_traces=WARMUP),
        traces,
        compact_at=NUM_TRACES // 2,
    )
    return reference, sealed


class TestStraddlingQueries:
    def test_store_actually_straddles(self, twin_pair):
        _, sealed = twin_pair
        stats = sealed.cold_stats()
        assert stats["sealed_params_traces"] > 0
        assert stats["sealed_bloom_filters"] > 0
        # keep_hot_* left a hot tail, so queries cross the boundary.
        engines = sealed.backend.storage_engines()
        assert any(
            len(engine.params) > engine.params.sealed_count() for engine in engines
        )

    def test_point_lookups_bit_identical(self, twin_pair, stream):
        reference, sealed = twin_pair
        traces, _ = stream
        for _, trace in traces:
            assert signature(sealed.query(trace.trace_id)) == signature(
                reference.query(trace.trace_id)
            )
        # Misses stay misses.
        assert signature(sealed.query("f" * 32)) == signature(
            reference.query("f" * 32)
        )

    def test_batch_cursor_bit_identical(self, twin_pair, stream):
        reference, sealed = twin_pair
        traces, _ = stream
        ids = [trace.trace_id for _, trace in traces]
        got = [signature(r) for r in sealed.query_many(ids).all()]
        want = [signature(r) for r in reference.query_many(ids).all()]
        assert got == want

    def test_predicate_spec_straddles_the_seal_point(self, twin_pair, stream):
        reference, sealed = twin_pair
        traces, targets = stream
        records = [
            TraceRecord(
                trace_id=trace.trace_id,
                timestamp=now,
                is_abnormal=trace.trace_id in targets,
            )
            for now, trace in traces
        ]
        # A window centred on the mid-stream compaction point: answers
        # mix sealed first-half and hot second-half traces.
        lo = records[NUM_TRACES // 4].timestamp
        hi = records[3 * NUM_TRACES // 4].timestamp
        spec = incident_window_spec(records, lo, hi)
        got = [signature(r) for r in sealed.execute(spec).all()]
        want = [signature(r) for r in reference.execute(spec).all()]
        assert got == want
        spec = incident_window_spec(records, lo, hi, error_only=True)
        got = [signature(r) for r in sealed.execute(spec).all()]
        want = [signature(r) for r in reference.execute(spec).all()]
        assert got == want

    def test_logical_rulers_never_move(self, twin_pair):
        reference, sealed = twin_pair
        assert sealed.storage_bytes == reference.storage_bytes
        assert sealed.network_bytes == reference.network_bytes
        for ref_engine, sealed_engine in zip(
            reference.backend.storage_engines(), sealed.backend.storage_engines()
        ):
            assert sealed_engine.pattern_bytes == ref_engine.pattern_bytes
            assert sealed_engine.bloom_bytes == ref_engine.bloom_bytes
            assert sealed_engine.params_bytes == ref_engine.params_bytes
        # The physical side is the only thing compression may move.
        assert sealed.physical_storage_bytes < sealed.storage_bytes
        assert reference.physical_storage_bytes == reference.storage_bytes


class TestRetroactiveWritesAgainstSealedRecords:
    def seal_backend(self, backend: MintBackend):
        return compact_engine(backend.storage, ColdPolicy())

    def test_query_reads_through_without_unsealing(self):
        backend, collector = wire()
        for i in range(3, 9):
            collector.process(subtrace(f"{i:032x}"), now=float(i))
        collector.flush(now=100.0)
        target = f"{6:032x}"
        before = backend.query(target, pull_params=True)
        assert before.status == "exact"
        self.seal_backend(backend)
        assert backend.storage.params.is_sealed(target)
        after = backend.query(target)
        assert signature(after) == signature(before)
        assert backend.storage.params.is_sealed(target)  # reads never unseal

    def test_pull_params_through_a_sealed_store(self):
        backend, collector = wire()
        for i in range(3, 9):
            collector.process(subtrace(f"{i:032x}"), now=float(i))
        collector.flush(now=100.0)
        self.seal_backend(backend)
        # The pulled params land as a fresh hot bucket; sealed
        # neighbours read through untouched during the same query.
        target = f"{6:032x}"
        assert backend.query(target).status == "partial"
        assert backend.query(target, pull_params=True).status == "exact"
        assert backend.query(target).status == "exact"

    def test_late_report_for_a_sealed_record_unseals_and_merges(self):
        backend, collector = wire()
        for i in range(3, 9):
            collector.process(subtrace(f"{i:032x}"), now=float(i))
        collector.flush(now=100.0)
        target = f"{6:032x}"
        assert backend.query(target, pull_params=True).status == "exact"
        sealed_records = list(backend.storage.params[target])
        self.seal_backend(backend)
        logical_before = backend.storage.storage_bytes()
        late = [["s-late", None, "node-1", "p-late", 999.0, [1, "late"]]]
        backend.receive(ParamsReport(node="node-1", trace_id=target, records=late))
        assert not backend.storage.params.is_sealed(target)
        merged = backend.storage.params[target]
        assert merged[: len(sealed_records)] == sealed_records
        assert merged[-1][0] == "s-late"
        assert backend.storage.storage_bytes() > logical_before

    def test_corrupt_sealed_block_fails_loudly_never_stale(self):
        backend, collector = wire()
        for i in range(3, 9):
            collector.process(subtrace(f"{i:032x}"), now=float(i))
        collector.flush(now=100.0)
        target = f"{6:032x}"
        assert backend.query(target, pull_params=True).status == "exact"
        self.seal_backend(backend)
        tier = backend.storage.cold
        for block_id in list(tier._blocks):
            block = tier.block(block_id)
            tier._blocks[block_id] = dataclasses.replace(
                block, payload=b"\x00corrupt\xff"
            )
        with pytest.raises(ColdReadError):
            backend.query(target)


class TestColdReadErrorMidCursor:
    """A corrupt block met mid-batch: what the cursor, the store and the
    plan counters do (pinned as-is; a lenient cursor would change it)."""

    @pytest.mark.parametrize("shape", ["single", "sharded-2"])
    def test_cursor_yields_up_to_the_corrupt_block_then_raises(self, shape):
        deployment = Deployment.single() if shape == "single" else Deployment.sharded(2)
        traces, _ = generate_stream(
            build_onlineboutique(), 300, abnormal_rate=0.1, seed=7
        )
        framework = MintFramework(deployment=deployment, auto_warmup_traces=WARMUP)
        for now, trace in traces:
            framework.process_trace(trace, now)
        framework.finalize(traces[-1][0])
        framework.compact(ColdPolicy())

        def block_of(trace_id):
            for engine in framework.backend.storage_engines():
                block_id = engine.params._cold.get(trace_id)
                if block_id is not None:
                    return engine, block_id
            return None, None

        # One exact, sealed id per block, so corrupting the 6th id's
        # block touches no other id of the batch.
        ids, blocks = [], set()
        for _, trace in traces:
            engine, block_id = block_of(trace.trace_id)
            if block_id is None or (id(engine), block_id) in blocks:
                continue
            if framework.query(trace.trace_id).status == "exact":
                blocks.add((id(engine), block_id))
                ids.append(trace.trace_id)
            if len(ids) == 9:
                break
        assert len(ids) == 9
        engine, block_id = block_of(ids[5])
        tier = engine.cold
        tier._blocks[block_id] = dataclasses.replace(
            tier.block(block_id), payload=b"\x00corrupt\xff"
        )
        tier._cache.pop(block_id, None)

        totals = framework.backend.plan_totals
        candidates, yielded = totals.candidates, totals.yielded
        statuses = []
        with pytest.raises(ColdReadError, match=f"params block {block_id} "):
            for result in framework.query_many(ids):
                statuses.append(result.status)
        assert statuses == ["exact"] * 5
        # The aborted cursor still settled its counters.
        assert totals.candidates - candidates == 6
        assert totals.yielded - yielded == 5
        # The store stays usable: healthy sealed ids answer, the
        # corrupt one keeps failing loudly.
        assert framework.query(ids[0]).status == "exact"
        assert framework.query(ids[8]).status == "exact"
        with pytest.raises(ColdReadError):
            framework.query(ids[5])
        framework.close()


def engine_with_hosts() -> StorageEngine:
    """Buckets with disjoint and shared hosts, plus blooms per host."""
    engine = StorageEngine()
    for i, host in enumerate(("node-a", "node-b", "node-a", "node-b")):
        engine.store_bloom_report(
            BloomReport(
                node=host,
                topo_pattern_id=f"{i:016x}",
                payload=bytes([i + 1]) * 4096,
                inserted=i + 1,
            )
        )
    # t0: node-a only; t1: node-b only; t2: both hosts share a bucket.
    engine.store_params_report(
        ParamsReport(node="node-a", trace_id="a" * 32, records=[[0, 0, "node-a", "GET", 1]])
    )
    engine.store_params_report(
        ParamsReport(node="node-b", trace_id="b" * 32, records=[[0, 0, "node-b", "GET", 2]])
    )
    for host in ("node-a", "node-b"):
        engine.store_params_report(
            ParamsReport(node=host, trace_id="c" * 32, records=[[0, 0, host, "GET", 3]])
        )
    return engine


class TestEvictionWithSealedSegments:
    @pytest.fixture(autouse=True)
    def one_entry_per_block(self, monkeypatch):
        monkeypatch.setattr(compactor, "BLOCK_TRACES", 1)
        monkeypatch.setattr(compactor, "BLOCK_BLOOMS", 1)

    def test_eviction_matches_the_never_sealed_twin_exactly(self):
        sealed = engine_with_hosts()
        plain = engine_with_hosts()
        compact_engine(sealed, ColdPolicy())
        assert sealed.params.sealed_count() == 3

        sealed_blooms, sealed_params = sealed.evict_host("node-a")
        plain_blooms, plain_params = plain.evict_host("node-a")

        assert sealed_params == plain_params
        assert [
            (b.node, b.topo_pattern_id, b.filter.inserted, b.filter.to_bytes())
            for b in sealed_blooms
        ] == [
            (b.node, b.topo_pattern_id, b.filter.inserted, b.filter.to_bytes())
            for b in plain_blooms
        ]
        # Exact conservation: every logical counter lands where the
        # never-sealed engine's does.
        assert sealed.params_bytes == plain.params_bytes
        assert sealed.bloom_bytes == plain.bloom_bytes
        assert sealed.pattern_bytes == plain.pattern_bytes
        assert sealed.storage_bytes() == plain.storage_bytes()

    def test_eviction_is_segment_granular(self):
        engine = engine_with_hosts()
        compact_engine(engine, ColdPolicy())
        engine.evict_host("node-a")
        # node-b's single-host bucket lives in a block node-a never
        # touched: it must still be sealed (no promote-the-world).
        assert engine.params.is_sealed("b" * 32)
        assert not engine.params.is_sealed("c" * 32)  # shared bucket promoted
        assert engine.blooms.sealed_count() > 0

    def test_physical_split_survives_eviction(self):
        engine = engine_with_hosts()
        compact_engine(engine, ColdPolicy())
        engine.evict_host("node-a")
        assert engine.physical_storage_bytes() == (
            engine.storage_bytes() - engine.cold_savings_bytes()
        )
        assert engine.cold_savings_bytes() == engine.cold.savings_bytes()


class TestReshardWithSealedSegments:
    def test_live_reshard_over_sealed_store_matches_fresh_deployment(self, stream):
        traces, _ = stream
        fresh = drive(
            MintFramework(
                deployment=Deployment.sharded(4), auto_warmup_traces=WARMUP
            ),
            traces,
        )
        live = MintFramework(
            deployment=Deployment.sharded(2, reshard_to=4), auto_warmup_traces=WARMUP
        )
        last_now = 0.0
        for index, (now, trace) in enumerate(traces):
            if index == NUM_TRACES // 2:
                live.compact(ColdPolicy())
            live.process_trace(trace, now)
            last_now = now
        live.finalize(last_now)
        live.reshard()

        assert live.storage_bytes == fresh.storage_bytes
        for _, trace in traces:
            assert signature(live.query(trace.trace_id)) == signature(
                fresh.query(trace.trace_id)
            )
        assert live.migration_bytes > 0
        assert fresh.migration_bytes == 0
