"""The unified query plane: specs, planner, cursors, one result model.

Pins the PR 5 contracts: the str-compatible :class:`QueryStatus` enum,
spec validation and grammar, bit-identity of planned lookups with the
reference querier on every topology, batch amortisation statistics
(Bloom pre-screen pushdown, repeated-id memoisation), predicate
queries, the lazy cursor, and the engine protocol across Mint and the
baselines.
"""

from __future__ import annotations

import json

import pytest

from repro.baselines import OTFull, OTHead
from repro.framework import MintFramework
from repro.query import (
    QueryCursor,
    QueryEngine,
    QueryResult,
    QuerySpec,
    QueryStatus,
    matches_result,
)
from repro.sim.experiment import generate_stream
from repro.transport import Deployment
from repro.workloads import build_onlineboutique
from repro.workloads.queries import TraceRecord, incident_window_spec

NUM_TRACES = 140


@pytest.fixture(scope="module")
def driven():
    """One faulted stream driven through single + sharded Mint + OT-Full."""
    stream, targets = generate_stream(
        build_onlineboutique(), NUM_TRACES, abnormal_rate=0.12, seed=7
    )
    frameworks = {}
    for key, deployment in (
        ("single", Deployment.single()),
        ("sharded", Deployment.sharded(2)),
    ):
        mint = MintFramework(deployment=deployment, auto_warmup_traces=40)
        last = 0.0
        for now, trace in stream:
            mint.process_trace(trace, now)
            last = now
        mint.finalize(last)
        frameworks[key] = mint
    full = OTFull()
    for now, trace in stream:
        full.process_trace(trace, now)
    frameworks["otfull"] = full
    return stream, targets, frameworks


class TestQueryStatus:
    def test_string_compatible_equality_and_hash(self):
        assert QueryStatus.EXACT == "exact"
        assert QueryStatus.PARTIAL == "partial"
        assert QueryStatus.MISS == "miss"
        # Hashes like the bare value, so stringly-keyed hit dicts fold.
        counts = {"exact": 0, "partial": 0, "miss": 0}
        counts[QueryStatus.EXACT] += 1
        assert counts == {"exact": 1, "partial": 0, "miss": 0}

    def test_renders_as_bare_value(self):
        # Identical across 3.10..3.12 (Enum's default repr/str changed).
        assert str(QueryStatus.EXACT) == "exact"
        assert f"{QueryStatus.PARTIAL}" == "partial"
        assert "{}".format(QueryStatus.MISS) == "miss"
        assert json.dumps({"s": QueryStatus.MISS, QueryStatus.EXACT: 1}) == (
            '{"s": "miss", "exact": 1}'
        )

    def test_is_hit(self):
        assert QueryStatus.EXACT.is_hit and QueryStatus.PARTIAL.is_hit
        assert not QueryStatus.MISS.is_hit


class TestQueryResultModel:
    def test_string_status_coerced(self):
        result = QueryResult(trace_id="t", status="exact")
        assert result.status is QueryStatus.EXACT
        assert result.is_exact and result.is_hit and not result.is_miss

    def test_unknown_status_rejected(self):
        with pytest.raises(ValueError):
            QueryResult(trace_id="t", status="fuzzy")


class TestQuerySpec:
    def test_constructors(self):
        point = QuerySpec.point("abc", pull_params=True)
        assert point.trace_ids == ("abc",) and point.pull_params
        assert not point.has_predicates
        batch = QuerySpec.batch(["a", "b"], limit=1)
        assert batch.trace_ids == ("a", "b") and batch.limit == 1
        where = QuerySpec.where(candidates=["a"], service="svc", error_only=True)
        assert where.has_predicates

    def test_iterables_coerced_to_tuple(self):
        spec = QuerySpec(trace_ids=(tid for tid in ("a", "b")))
        assert spec.trace_ids == ("a", "b")

    def test_validation(self):
        with pytest.raises(ValueError):
            QuerySpec.batch(["a"], limit=0)
        with pytest.raises(ValueError):
            QuerySpec.where(time_range=(5.0, 1.0))

    def test_bare_string_trace_ids_rejected(self):
        # A string would iterate into per-character "ids" and query as
        # that many misses — it must fail loudly on every entry point.
        for build in (
            lambda: QuerySpec(trace_ids="a1b2c3"),
            lambda: QuerySpec.batch("a1b2c3"),
            lambda: QuerySpec.where(candidates="a1b2c3"),
        ):
            with pytest.raises(TypeError):
                build()

    def test_frozen(self):
        spec = QuerySpec.point("a")
        with pytest.raises(AttributeError):
            spec.service = "x"

    def test_describe_mentions_predicates(self):
        text = QuerySpec.where(
            candidates=["a"], service="svc", error_only=True, limit=3
        ).describe()
        assert "service=svc" in text and "error_only" in text and "limit=3" in text


class TestBitIdentity:
    """New-API lookups == reference querier, per deployment topology."""

    @pytest.mark.parametrize("key", ["single", "sharded"])
    def test_point_lookups_match_reference(self, driven, key):
        stream, _, frameworks = driven
        mint = frameworks[key]
        reference = mint.backend.querier
        for _, trace in stream:
            new = mint.query(trace.trace_id)
            ref = reference.query(trace.trace_id)
            assert new.status is ref.status
            assert new.trace == ref.trace
            assert new.approximate == ref.approximate

    @pytest.mark.parametrize("key", ["single", "sharded"])
    def test_batch_equals_looped(self, driven, key):
        stream, _, frameworks = driven
        mint = frameworks[key]
        ids = [t.trace_id for _, t in stream]
        batch = mint.query_many(ids).all()
        assert [r.trace_id for r in batch] == ids
        for one, many in zip((mint.query(tid) for tid in ids), batch):
            assert one.status is many.status
            assert one.trace == many.trace
            assert one.approximate == many.approximate

    def test_sharded_prescreen_prunes(self, driven):
        stream, _, frameworks = driven
        cursor = frameworks["sharded"].query_many(t.trace_id for _, t in stream)
        cursor.all()
        assert cursor.stats.filters_pruned > 0
        assert cursor.stats.filters_probed > 0

    def test_repeated_ids_served_from_plan_memo(self, driven):
        stream, _, frameworks = driven
        tid = stream[0][1].trace_id
        cursor = frameworks["single"].query_many([tid, tid, tid])
        results = cursor.all()
        assert len(results) == 3
        assert cursor.stats.cache_hits == 2
        assert results[0] == results[1] == results[2]


class TestCursor:
    def test_lazy_evaluation(self, driven):
        stream, _, frameworks = driven
        mint = frameworks["single"]
        cursor = mint.query_many(t.trace_id for _, t in stream)
        assert isinstance(cursor, QueryCursor)
        next(cursor)
        # Only the consumed prefix has been planned/reconstructed.
        assert cursor.stats.candidates == 1

    def test_limit_stops_early(self, driven):
        stream, _, frameworks = driven
        mint = frameworks["single"]
        ids = [t.trace_id for _, t in stream]
        cursor = mint.execute(QuerySpec.batch(ids, limit=5))
        assert len(cursor.all()) == 5
        assert cursor.stats.candidates == 5

    def test_statuses_folds(self, driven):
        stream, _, frameworks = driven
        mint = frameworks["single"]
        counts = mint.query_many(t.trace_id for _, t in stream).statuses()
        assert sum(counts.values()) == len(stream)
        assert counts[QueryStatus.MISS] == 0  # Mint never misses

    def test_one_raises_on_empty(self, driven):
        _, _, frameworks = driven
        cursor = frameworks["single"].execute(
            QuerySpec.where(candidates=["f" * 32], error_only=True)
        )
        with pytest.raises(LookupError):
            cursor.one()

    def test_point_always_answers(self, driven):
        _, _, frameworks = driven
        result = frameworks["single"].query("f" * 32)
        assert result.status is QueryStatus.MISS


class TestPredicates:
    @pytest.mark.parametrize("key", ["single", "sharded"])
    def test_service_predicate(self, driven, key):
        stream, _, frameworks = driven
        mint = frameworks[key]
        service = sorted(stream[0][1].services)[0]
        ids = [t.trace_id for _, t in stream]
        results = mint.execute(
            QuerySpec.where(candidates=ids, service=service)
        ).all()
        assert results
        for result in results:
            assert result.is_hit
            services = (
                result.trace.services
                if result.trace is not None
                else result.approximate.services
            )
            assert service in services

    def test_error_only_matches_faulted_traces(self, driven):
        stream, targets, frameworks = driven
        mint = frameworks["single"]
        ids = [t.trace_id for _, t in stream]
        results = mint.execute(QuerySpec.where(candidates=ids, error_only=True)).all()
        # Error-status faults exist in the stream and every match is a hit.
        error_ids = {
            t.trace_id for _, t in stream if t.has_error
        }
        if error_ids:
            assert results
            exact_matches = {r.trace_id for r in results if r.trace is not None}
            assert exact_matches <= error_ids

    def test_operation_predicate(self, driven):
        stream, _, frameworks = driven
        mint = frameworks["single"]
        operation = stream[0][1].spans[0].name
        ids = [t.trace_id for _, t in stream]
        results = mint.execute(
            QuerySpec.where(candidates=ids, operation=operation, limit=7)
        ).all()
        assert 0 < len(results) <= 7

    def test_time_window_excludes_exact_outside(self, driven):
        stream, _, frameworks = driven
        mint = frameworks["single"]
        midpoint = stream[len(stream) // 2][0]
        ids = [t.trace_id for _, t in stream]
        results = mint.execute(
            QuerySpec.where(candidates=ids, time_range=(0.0, midpoint))
        ).all()
        for result in results:
            if result.trace is not None:
                first = min(s.start_time for s in result.trace.spans)
                assert first < midpoint

    def test_topo_pattern_predicate(self, driven):
        stream, _, frameworks = driven
        mint = frameworks["single"]
        partial = next(
            r
            for r in frameworks["single"].query_many(
                t.trace_id for _, t in stream
            )
            if r.approximate is not None
        )
        pattern_id = partial.approximate.segments[0].topo_pattern_id
        ids = [t.trace_id for _, t in stream]
        results = mint.execute(
            QuerySpec.where(candidates=ids, topo_pattern_id=pattern_id)
        ).all()
        assert any(r.trace_id == partial.trace_id for r in results)

    def test_predicates_without_candidates_scan_stored_population(self, driven):
        stream, _, frameworks = driven
        mint = frameworks["single"]
        service = sorted(stream[0][1].services)[0]
        results = mint.execute(QuerySpec.where(service=service)).all()
        stored = mint.stored_trace_ids()
        assert {r.trace_id for r in results} <= stored

    def test_matches_result_rejects_misses(self):
        miss = QueryResult(trace_id="x", status=QueryStatus.MISS)
        assert not matches_result(QuerySpec.where(error_only=True), miss)


class TestEngineProtocol:
    def test_every_framework_is_an_engine(self, driven):
        _, _, frameworks = driven
        for framework in frameworks.values():
            assert isinstance(framework, QueryEngine)

    def test_baseline_query_carries_stored_trace(self, driven):
        stream, _, frameworks = driven
        full = frameworks["otfull"]
        trace = stream[0][1]
        result = full.query(trace.trace_id)
        assert result.status is QueryStatus.EXACT
        assert result.trace is trace

    def test_baseline_batch_keeps_misses(self, driven):
        stream, _, frameworks = driven
        head = OTHead(rate=0.0)
        for now, trace in stream[:10]:
            head.process_trace(trace, now)
        results = head.query_many([t.trace_id for _, t in stream[:10]]).all()
        assert len(results) == 10
        assert all(r.is_miss for r in results)

    def test_empty_batch_yields_nothing_everywhere(self, driven):
        # A bare batch answers exactly the ids it was given: an empty
        # id list must not fall back to sweeping the stored population
        # (predicate specs without candidates do that, batches never).
        _, _, frameworks = driven
        for framework in frameworks.values():
            assert framework.query_many([]).all() == []

    def test_baseline_predicate_query(self, driven):
        stream, _, frameworks = driven
        full = frameworks["otfull"]
        error_ids = {t.trace_id for _, t in stream if t.has_error}
        results = full.execute(
            QuerySpec.where(
                candidates=[t.trace_id for _, t in stream], error_only=True
            )
        ).all()
        assert {r.trace_id for r in results} == error_ids


class TestWorkloadSpecs:
    def _records(self, stream):
        return [
            TraceRecord(trace_id=t.trace_id, timestamp=now, is_abnormal=False)
            for now, t in stream
        ]

    def test_incident_window_spec_prefilters_candidates(self, driven):
        stream, _, _ = driven
        records = self._records(stream)
        lo, hi = stream[20][0], stream[80][0]
        spec = incident_window_spec(records, lo, hi, error_only=True)
        assert spec.time_range == (lo, hi)
        assert spec.error_only
        in_window = {r.trace_id for r in records if lo <= r.timestamp < hi}
        assert set(spec.trace_ids) == in_window

    def test_incident_spec_end_to_end(self, driven):
        stream, _, frameworks = driven
        records = self._records(stream)
        lo, hi = stream[10][0], stream[-10][0]
        spec = incident_window_spec(records, lo, hi)
        results = frameworks["sharded"].execute(spec).all()
        assert results
        assert {r.trace_id for r in results} <= set(spec.trace_ids)
