"""The live analyst plane: standing queries, push delivery, storms.

The binding contracts: a subscription's accumulated hit set over a
stream is bit-identical to running its spec as a post-hoc batch query
— on every topology, under every chaos profile, across live reshards
and shard failover; push delivery is idempotent per (subscription,
trace id) whatever the wire duplicates; push traffic lands on the
``push`` meter and never moves the network meter; and the storm
schedule is a pure seeded function with no wall clock in it.
"""

from __future__ import annotations

import pytest

from repro.elastic import SHARD_CHAOS_PROFILES, fit_outages
from repro.framework import MintFramework
from repro.net.chaos import CHAOS_PROFILES, LOSSLESS, fit_partitions
from repro.net.transport import CHAOS_WIRE
from repro.query.spec import QuerySpec
from repro.sim.experiment import drive, generate_stream
from repro.transport import Deployment
from repro.verify import byte_tables, meter_series
from repro.workloads import build_onlineboutique
from repro.workloads.queries import QueryWorkload


def _stream(n=120, seed=7):
    return generate_stream(
        build_onlineboutique(), n, abnormal_rate=0.05,
        requests_per_minute=6000.0, seed=seed,
    )[0]


def _batch_hits(framework, spec):
    """The post-hoc answer: trace id -> status for every hit."""
    return {
        result.trace_id: str(result.status)
        for result in framework.execute(spec)
        if result.is_hit
    }


@pytest.fixture(scope="module")
def stream():
    return _stream()


# ---------------------------------------------------------------------------
# Standing-query matching: every predicate kind, identical to batch
# ---------------------------------------------------------------------------
class TestStandingQueryMatching:
    def _specs(self, stream):
        """One spec per predicate kind plus a pure batch registration."""
        ids = [trace.trace_id for _, trace in stream]
        services = sorted({s for _, t in stream for s in t.services})
        operation = stream[0][1].spans[0].name
        midpoint = stream[len(stream) // 2][0]
        return {
            "error_only": QuerySpec.where(error_only=True),
            "service": QuerySpec.where(service=services[0]),
            "operation": QuerySpec.where(operation=operation),
            "time_range": QuerySpec.where(
                candidates=ids, time_range=(0.0, midpoint)
            ),
            "batch_ids": QuerySpec.batch(ids[::4]),
        }

    def test_each_predicate_kind_matches_its_batch_query(self, stream):
        framework = MintFramework(deployment=Deployment.single())
        specs = self._specs(stream)
        subs = {name: framework.subscribe(spec) for name, spec in specs.items()}
        drive(framework, stream)
        for name, spec in specs.items():
            assert subs[name].hit_statuses == _batch_hits(framework, spec), name
        # The panel is not vacuous: the population-wide specs hit.
        assert subs["error_only"].hit_ids
        assert subs["service"].hit_ids
        assert subs["batch_ids"].hit_ids
        framework.close()

    def test_topo_pattern_subscription_matches_its_batch_query(self, stream):
        # The pattern id is discovered from a probe run of the same
        # deterministic stream — ids are content-derived, so the fresh
        # subscribed run sees the identical pattern universe.
        probe = MintFramework(deployment=Deployment.single())
        drive(probe, stream)
        partial = next(
            r
            for r in probe.query_many(t.trace_id for _, t in stream)
            if r.approximate is not None
        )
        pattern_id = partial.approximate.segments[0].topo_pattern_id
        probe.close()

        spec = QuerySpec.where(
            candidates=[t.trace_id for _, t in stream],
            topo_pattern_id=pattern_id,
        )
        framework = MintFramework(deployment=Deployment.single())
        sub = framework.subscribe(spec)
        drive(framework, stream)
        assert sub.hit_statuses == _batch_hits(framework, spec)
        assert partial.trace_id in sub.hit_ids
        framework.close()

    def test_subscribe_rejects_non_standing_specs(self):
        framework = MintFramework(deployment=Deployment.single())
        with pytest.raises(ValueError, match="pull_params"):
            framework.subscribe(QuerySpec.where(error_only=True, pull_params=True))
        with pytest.raises(ValueError, match="limit"):
            framework.subscribe(QuerySpec.where(error_only=True, limit=5))
        with pytest.raises(ValueError, match="predicates or target ids"):
            framework.subscribe(QuerySpec())
        framework.close()

    def test_unsubscribe_freezes_the_hit_set(self, stream):
        framework = MintFramework(deployment=Deployment.single())
        sub = framework.subscribe(QuerySpec.where(error_only=True))
        half = len(stream) // 2
        for now, trace in stream[:half]:
            framework.process_trace(trace, now)
        framework.unsubscribe(sub)
        frozen = sub.hit_ids
        drive(framework, stream[half:])
        assert not sub.active
        assert sub.hit_ids == frozen
        assert framework.live_stats()["active"] == 0
        framework.close()


# ---------------------------------------------------------------------------
# Idempotent push under chaos
# ---------------------------------------------------------------------------
class TestPushUnderChaos:
    @pytest.mark.parametrize(
        "profile", ["lossless", "drop", "duplicate", "delay", "partition"]
    )
    def test_identity_and_idempotence_survive_the_wire(self, stream, profile):
        duration = stream[-1][0]
        chaos = LOSSLESS if profile == "lossless" else CHAOS_PROFILES[profile]
        wire = CHAOS_WIRE.with_chaos(fit_partitions(chaos, duration))
        framework = MintFramework(deployment=Deployment.single(network=wire))
        sub = framework.subscribe(QuerySpec.where(error_only=True))
        batch_sub = framework.subscribe(
            QuerySpec.batch([t.trace_id for _, t in stream][::5])
        )
        drive(framework, stream)
        assert sub.hit_statuses == _batch_hits(framework, sub.spec)
        assert batch_sub.hit_statuses == _batch_hits(framework, batch_sub.spec)
        # Idempotence: whatever the wire duplicated, each trace was
        # accepted exactly once per subscription.
        for handle in (sub, batch_sub):
            delivered = [note.trace_id for note in handle.hits]
            assert len(delivered) == len(set(delivered))
        framework.close()

    def test_repeated_finalize_pushes_nothing_new(self, stream):
        framework = MintFramework(deployment=Deployment.single(network=CHAOS_WIRE))
        sub = framework.subscribe(QuerySpec.where(error_only=True))
        drive(framework, stream)
        hits = sub.hit_ids
        delivered = framework.live_stats()["delivered"]
        framework.finalize(stream[-1][0])
        assert sub.hit_ids == hits
        assert framework.live_stats()["delivered"] == delivered
        framework.close()


# ---------------------------------------------------------------------------
# Elasticity: subscriptions survive reshard and failover
# ---------------------------------------------------------------------------
class TestSubscriptionsSurviveElasticity:
    def test_live_reshard_preserves_identity(self, stream):
        framework = MintFramework(deployment=Deployment.sharded(2, reshard_to=4))
        sub = framework.subscribe(QuerySpec.where(error_only=True))
        half = len(stream) // 2
        for now, trace in stream[:half]:
            framework.process_trace(trace, now)
        framework.reshard()
        drive(framework, stream[half:])
        assert framework.backend.num_shards == 4
        assert sub.hit_statuses == _batch_hits(framework, sub.spec)
        assert sub.hit_ids
        framework.close()

    def test_shard_failover_preserves_identity(self, stream):
        duration = stream[-1][0]
        chaos = fit_outages(SHARD_CHAOS_PROFILES["crash_restart"], duration)
        framework = MintFramework(
            deployment=Deployment.sharded(2, shard_chaos=chaos)
        )
        sub = framework.subscribe(QuerySpec.where(error_only=True))
        drive(framework, stream)
        assert sub.hit_statuses == _batch_hits(framework, sub.spec)
        assert sub.hit_ids
        framework.close()


# ---------------------------------------------------------------------------
# Meter separation and observability neutrality
# ---------------------------------------------------------------------------
class TestPushMeterSeparation:
    def test_push_traffic_never_moves_the_network_meter(self, stream):
        def run(subscribe):
            framework = MintFramework(
                deployment=Deployment.single(network=CHAOS_WIRE)
            )
            sub = (
                framework.subscribe(QuerySpec.where(error_only=True))
                if subscribe else None
            )
            drive(framework, stream)
            facts = (
                framework.network_bytes,
                framework.ledger.network.per_minute_series(),
                framework.push_bytes,
                None if sub is None else sub.hit_ids,
            )
            framework.close()
            return facts

        net_sub, series_sub, push_sub, hits = run(True)
        net_bare, series_bare, push_bare, _ = run(False)
        assert net_sub == net_bare
        assert series_sub == series_bare
        assert push_sub > 0
        assert push_bare == 0
        assert hits

    def test_obs_on_and_obs_off_deliver_identical_hits(self, stream):
        def run(obs):
            framework = MintFramework(
                deployment=Deployment.single(network=CHAOS_WIRE, observability=obs)
            )
            sub = framework.subscribe(QuerySpec.where(error_only=True))
            drive(framework, stream)
            facts = (sub.hit_statuses, framework.live_stats()["delivered"])
            framework.close()
            return facts

        assert run(True) == run(False)

    def test_push_counters_reach_the_metrics_registry(self, stream):
        framework = MintFramework(deployment=Deployment.single())
        framework.subscribe(QuerySpec.where(error_only=True))
        drive(framework, stream)
        report = framework.obs_report()
        delivered = framework.live_stats()["delivered"]
        assert delivered > 0
        counters = report["metrics"]["counters"]
        assert counters['mint_push_delivered{plane="live"}'] == delivered
        assert 'mint_transport_push_messages{plane="transport"}' in counters
        assert report["ledger"]["push_bytes"] == framework.push_bytes
        assert report["live"]["delivered"] == delivered
        framework.close()


# ---------------------------------------------------------------------------
# A raising subscriber callback
# ---------------------------------------------------------------------------
class TestRaisingCallback:
    def test_finalize_completes_then_reraises_the_first_error(self):
        stream = _stream(400, seed=17)
        spec = QuerySpec.where(error_only=True)

        def run(on_push):
            framework = MintFramework(deployment=Deployment.single())
            sub = framework.subscribe(spec, on_push=on_push)
            error = None
            try:
                drive(framework, stream)
            except RuntimeError as exc:
                error = exc
            facts = (
                byte_tables(framework),
                meter_series(framework),
                framework.ledger.storage.total_bytes,
                sub.hit_ids,
            )
            stats = framework.live_stats()
            framework.close()
            return facts, error, sub, stats

        def pager(note, now):
            raise RuntimeError(f"pager down at {note.trace_id}")

        control, no_error, _, control_stats = run(None)
        facts, error, sub, stats = run(pager)
        assert facts == control
        assert no_error is None and control_stats["callback_errors"] == 0
        assert len(sub.hit_ids) > 1  # every hit delivered, not just the first
        assert error is sub.error
        assert str(error) == f"pager down at {sub.hits[0].trace_id}"
        assert sub.active
        assert sub.callback_errors == stats["callback_errors"] == len(sub.hit_ids)


# ---------------------------------------------------------------------------
# The storm schedule: pure, seeded, monotone
# ---------------------------------------------------------------------------
class TestStormSchedule:
    def test_deterministic_across_instances(self):
        a = QueryWorkload(seed=3).storm_schedule(1000.0, 250, seed=9)
        b = QueryWorkload(seed=99).storm_schedule(1000.0, 250, seed=9)
        assert a == b  # pure in (qps, count, seed) — workload state unused

    def test_seed_and_qps_shape_the_schedule(self):
        base = QueryWorkload().storm_schedule(1000.0, 250, seed=9)
        assert base != QueryWorkload().storm_schedule(1000.0, 250, seed=10)
        slow = QueryWorkload().storm_schedule(100.0, 25, seed=9)
        assert slow[10] > base[10]  # 10x lower rate -> 10x later arrival

    def test_strictly_increasing_one_arrival_per_slot(self):
        schedule = QueryWorkload().storm_schedule(1000.0, 500, seed=1)
        assert len(schedule) == 500
        assert all(b > a for a, b in zip(schedule, schedule[1:]))
        # Each arrival stays inside its own 1/qps slot: sustained rate.
        for i, t in enumerate(schedule):
            assert i / 1000.0 <= t < (i + 1) / 1000.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="qps"):
            QueryWorkload().storm_schedule(0.0, 10)
        with pytest.raises(ValueError, match="count"):
            QueryWorkload().storm_schedule(10.0, -1)
