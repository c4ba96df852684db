"""The observability plane: registry semantics, the unified quantile
codepath, thread safety, export surfaces, and the two contracts the
plane lives or dies by — observation changes nothing it observes, and
two identical seeded runs report identically (sim domain).

The obs bench (``benchmarks/perf/run.py obs``) gates the same
contracts end to end at full scale; these tests pin them per component
and at smoke scale so a violation names its seam.
"""

from __future__ import annotations

import itertools
import json
import threading
from types import SimpleNamespace

import pytest

from repro.baselines import OTFull
from repro.framework import MintFramework
from repro.net.transport import CHAOS_WIRE
from repro.obs import (
    NULL_OBSERVER,
    Counter,
    Gauge,
    Histogram,
    LatencyStats,
    MetricsRegistry,
    NullObserver,
    Observer,
    deterministic_report,
    format_labels,
    render_prometheus,
    report_to_json,
)
from repro.obs.metrics import SIM_DOMAIN, WALL_DOMAIN
from repro.obs.trace import NULL_INSTRUMENT
from repro.sim import loadtest, storm
from repro.sim.experiment import drive as sim_drive
from repro.sim.incident import incident_deployment, run_incident
from repro.transport import Deployment
from repro.workloads.generator import WorkloadDriver
from tests.conftest import make_chain_trace


def build_stream(workload, count: int, seed: int = 7):
    driver = WorkloadDriver(workload, seed=seed, requests_per_minute=6000)
    return list(driver.traces(count))


def drive(deployment: Deployment, stream) -> MintFramework:
    framework = MintFramework(deployment=deployment)
    sim_drive(framework, stream)
    return framework


class TestMetricsRegistry:
    def test_counter_counts_and_rejects_negatives(self):
        registry = MetricsRegistry()
        counter = registry.counter("mint_things", plane="test")
        counter.inc()
        counter.inc(41)
        assert counter.value == 42
        with pytest.raises(ValueError):
            counter.inc(-1)
        assert counter.value == 42

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("mint_depth")
        gauge.set(10.0)
        gauge.inc(2.5)
        gauge.dec(0.5)
        assert gauge.value == 12.0

    def test_same_name_and_labels_share_one_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("mint_reports", shard="0", plane="transport")
        # Label order must not matter for identity.
        b = registry.counter("mint_reports", plane="transport", shard="0")
        c = registry.counter("mint_reports", shard="1", plane="transport")
        assert a is b
        assert a is not c
        a.inc()
        assert registry.counter("mint_reports", shard="0", plane="transport").value == 1

    def test_kind_collision_on_one_name_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("mint_dual")
        with pytest.raises(ValueError):
            registry.gauge("mint_dual")

    def test_snapshot_keys_carry_sorted_labels(self):
        registry = MetricsRegistry()
        registry.counter("mint_reports", shard="0", plane="transport").inc(3)
        snapshot = registry.snapshot()
        key = 'mint_reports{plane="transport",shard="0"}'
        assert snapshot["counters"] == {key: 3}
        assert format_labels({"shard": "0", "plane": "transport"}) == (
            '{plane="transport",shard="0"}'
        )


class TestHistogramQuantiles:
    def test_latency_stats_is_the_histogram(self):
        # The satellite contract: one quantile codepath.  LatencyStats
        # survives as the sample-tracking flavour of Histogram.
        assert issubclass(LatencyStats, Histogram)
        stats = LatencyStats()
        stats.record(0.2)
        stats.observe(0.4)  # both verbs, one instrument
        assert len(stats) == 2
        assert stats.mean == pytest.approx(0.3)

    def test_exact_percentiles_with_sample_tracking(self):
        hist = Histogram("h", track_samples=True)
        for value in (0.1, 0.2, 0.3, 0.4, 0.5):
            hist.observe(value)
        assert hist.p50 == 0.3
        assert hist.percentile(0) == 0.1
        assert hist.percentile(100) == 0.5

    def test_bucketed_percentile_returns_an_upper_bound(self):
        hist = Histogram("h", buckets=(0.1, 1.0, 10.0), track_samples=False)
        for value in (0.05, 0.05, 0.5):
            hist.observe(value)
        # Without samples the quantile is the covering bucket's bound —
        # conservative, never an underestimate.
        assert hist.p50 == 0.1
        assert hist.p99 == 1.0

    def test_harness_percentiles_are_latency_stats(self, monkeypatch):
        # Every timed call in the storm and the fig15 probe starts at 0
        # and its k-th stop reads (k+1) ms, so the samples are known and
        # each reported quantile must be LatencyStats' over them.
        def stepped_clock() -> SimpleNamespace:
            calls = itertools.count()

            def perf_counter() -> float:
                call = next(calls)
                return 0.0 if call % 2 == 0 else (call // 2 + 1) * 1e-3

            return SimpleNamespace(perf_counter=perf_counter)

        framework = OTFull()
        trace = make_chain_trace(depth=2)
        framework.process_trace(trace, 0.0)
        monkeypatch.setattr(loadtest, "time", stepped_clock())
        probe = loadtest.measure_query_latency(framework, [trace.trace_id] * 200)
        expected = LatencyStats()
        for k in range(200):
            expected.record((k + 1) * 1e-3 * 1000.0)
        assert probe == {"mean_ms": expected.mean, "p95_ms": expected.percentile(95.0)}

        monkeypatch.setattr(storm, "time", stepped_clock())
        result = storm.run_storm(num_traces=80, storm_qps=1000.0)
        assert result.issued > 51  # past 51 samples, a p99 rank off by one shows
        wire_s = 2.0 * CHAOS_WIRE.latency_s
        expected = LatencyStats()
        for k in range(result.issued):
            expected.record(wire_s + (k + 1) * 1e-3)
        assert result.p50_ms == expected.percentile(50.0) * 1000.0
        assert result.p99_ms == expected.percentile(99.0) * 1000.0
        assert result.wire_p99_ms == wire_s * 1000.0 > 0

    def test_negative_observation_rejected(self):
        with pytest.raises(ValueError, match="negative latency"):
            Histogram("h").observe(-1e-9)

    def test_percentile_bounds_validated(self):
        hist = Histogram("h")
        with pytest.raises(ValueError, match="pct"):
            hist.percentile(101)

    def test_merge_across_bucket_layouts_uses_samples(self):
        left = Histogram("h", buckets=(0.1, 1.0), track_samples=True)
        right = Histogram("h", buckets=(0.5, 2.0), track_samples=True)
        left.observe(0.05)
        right.observe(1.5)
        left.merge(right)
        assert len(left) == 2
        assert left.percentile(100) == 1.5

    def test_deterministic_snapshot_strips_wall_durations_only(self):
        wall = Histogram("w", domain=WALL_DOMAIN)
        sim = Histogram("s", domain=SIM_DOMAIN)
        wall.observe(0.123)
        sim.observe(0.5)
        assert set(wall.snapshot(deterministic=True)) == {"count", "domain"}
        assert wall.snapshot(deterministic=True)["count"] == 1
        assert "p50" in sim.snapshot(deterministic=True)


class TestObserverSeam:
    def test_spans_record_into_stage_histograms(self):
        observer = Observer()
        with observer.span("parse"):
            pass
        ticks = iter([1.0, 3.5])
        with observer.sim_span("epoch_barrier", clock=lambda: next(ticks)):
            pass
        snapshot = observer.snapshot()
        stages = snapshot["histograms"]
        assert 'mint_stage_seconds{stage="parse"}' in stages
        barrier = stages['mint_stage_seconds{stage="epoch_barrier"}']
        assert barrier["sum"] == pytest.approx(2.5)

    def test_null_observer_is_inert_everywhere(self):
        assert NULL_OBSERVER.enabled is False
        assert NULL_OBSERVER.registry is None
        assert NULL_OBSERVER.counter("mint_x") is NULL_INSTRUMENT
        # Every verb is a no-op, including the context managers.
        NULL_OBSERVER.count("mint_x", 3)
        NULL_OBSERVER.observe_sim("parse", 1.0)
        with NULL_OBSERVER.span("parse"):
            pass
        assert NULL_OBSERVER.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        assert isinstance(NULL_OBSERVER, NullObserver)


class TestThreadSafety:
    def test_registry_survives_concurrent_writers(self):
        registry = MetricsRegistry()
        counter = registry.counter("mint_hits")
        hist = registry.histogram("mint_lat", track_samples=False)
        workers, per_worker = 8, 2000

        def hammer():
            for i in range(per_worker):
                counter.inc()
                hist.observe((i % 100) * 1e-4)

        threads = [threading.Thread(target=hammer) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == workers * per_worker
        assert hist.count == workers * per_worker

    def test_meters_stay_exact_under_concurrent_lane_replay(self, boutique_workload):
        # The concurrent ingest plane fans the hot path over worker
        # lanes; instrumentation stays parent-side (single-writer), so
        # obs-on lane ingest must agree with the sequential run on
        # every deterministic surface.
        stream = build_stream(boutique_workload, 96)
        lanes = drive(Deployment.single(workers=2, ingest_epoch=16), stream)
        sequential = drive(Deployment.single(), stream)
        assert lanes.storage_bytes == sequential.storage_bytes
        assert lanes.network_bytes == sequential.network_bytes
        counters = lanes.observer.snapshot(deterministic=True)["counters"]
        assert counters['mint_ingest_traces{plane="ingest"}'] == len(stream)
        lane_total = sum(
            value
            for key, value in counters.items()
            if key.startswith("mint_lane_reports")
        )
        # Epoch replies carry the mid-stream reports; finalize-time
        # collector flushes go to the transport directly, so the lane
        # counters are a strict subset of the wire's total.
        assert 0 < lane_total <= counters['mint_transport_reports{plane="transport"}']
        assert counters['mint_epochs_applied{plane="concurrent"}'] > 0
        lanes.close()
        sequential.close()


class TestFrameworkContracts:
    def test_observation_changes_nothing_it_observes(self, boutique_workload):
        stream = build_stream(boutique_workload, 80)
        on = drive(Deployment.single(observability=True), stream)
        off = drive(Deployment.single(observability=False), stream)
        assert (on.storage_bytes, on.network_bytes) == (
            off.storage_bytes,
            off.network_bytes,
        )
        ids = [trace.trace_id for _, trace in stream]
        on_answers = [(r.trace_id, str(r.status)) for r in on.query_many(ids)]
        off_answers = [(r.trace_id, str(r.status)) for r in off.query_many(ids)]
        assert on_answers == off_answers
        on.close()
        off.close()

    def test_deterministic_report_replays_bit_identically(self, boutique_workload):
        stream = build_stream(boutique_workload, 80)
        first = drive(Deployment.sharded(2), stream)
        second = drive(Deployment.sharded(2), stream)
        assert deterministic_report(first) == deterministic_report(second)
        first.close()
        second.close()

    def test_obs_report_folds_every_plane(self, boutique_workload):
        stream = build_stream(boutique_workload, 60)
        framework = drive(Deployment.single(), stream)
        report = framework.obs_report()
        assert set(report) >= {
            "framework", "deployment", "observability", "ledger",
            "meters", "metrics", "net", "elastic", "cold", "query", "shards",
        }
        assert report["observability"] is True
        assert report["ledger"]["storage_bytes"] == framework.storage_bytes
        counters = report["metrics"]["counters"]
        assert counters['mint_ingest_traces{plane="ingest"}'] == len(stream)
        # Offline warm-up is a stage of its own: one wall-domain span.
        warm_up = report["metrics"]["histograms"]['mint_stage_seconds{stage="warm_up"}']
        assert (warm_up["count"], warm_up["domain"]) == (1, "wall")
        assert warm_up["sum"] > 0.0
        # The folded-in query totals count the plans the plane ran.
        assert report["query"]["candidates"] == 0  # no queries yet
        framework.close()

    def test_obs_off_framework_reports_empty_metrics(self, boutique_workload):
        stream = build_stream(boutique_workload, 40)
        framework = drive(Deployment.single(observability=False), stream)
        assert "+obs-off" in framework.deployment.describe()
        report = framework.obs_report()
        assert report["observability"] is False
        assert report["metrics"] == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        assert framework.obs_prometheus() == ""
        framework.close()


class TestExportSurfaces:
    def test_prometheus_rendering(self, boutique_workload):
        stream = build_stream(boutique_workload, 40)
        framework = drive(Deployment.single(), stream)
        text = framework.obs_prometheus()
        assert "# TYPE mint_ingest_traces_total counter" in text
        assert 'mint_ingest_traces_total{plane="ingest"} 40' in text
        assert 'le="+Inf"' in text
        assert "mint_stage_seconds_count" in text
        # Rendering is stable: same state, same text.
        assert text == framework.obs_prometheus()
        framework.close()

    def test_obs_json_round_trips(self, boutique_workload):
        stream = build_stream(boutique_workload, 40)
        framework = drive(Deployment.single(), stream)
        decoded = json.loads(framework.obs_json(deterministic=True))
        assert decoded == framework.obs_report(deterministic=True)
        assert report_to_json({"b": 1, "a": 2}).index('"a"') < report_to_json(
            {"b": 1, "a": 2}
        ).index('"b"')
        framework.close()

    def test_render_prometheus_handles_an_empty_registry(self):
        assert render_prometheus(MetricsRegistry()) == ""


class TestIncidentHarness:
    def test_incident_detects_and_reports(self):
        result = run_incident(num_traces=150, probe_every=25, seed=11)
        assert result.detected
        assert result.detection_latency_s is not None
        assert result.detection_latency_s >= 0.0
        assert result.fault_time_s > 0.0
        assert result.faulty_traces > 0
        assert result.probes and result.probes[-1].hit
        cell = result.as_dict()
        assert cell["topology"] == "single"
        assert cell["profile"] == "lossless"
        assert cell["target_service"] == result.target_service
        assert cell["probes"][-1]["hit"] is True

    def test_incident_is_deterministic(self):
        first = run_incident(num_traces=120, probe_every=30, seed=11)
        second = run_incident(num_traces=120, probe_every=30, seed=11)
        assert first.as_dict() == second.as_dict()

    def test_incident_deployment_rejects_unknown_topology(self):
        with pytest.raises(ValueError, match="incident topology"):
            incident_deployment("mesh", "lossless", 10.0)


class TestInstrumentPlumbing:
    def test_counter_and_gauge_are_slotted_and_locked(self):
        counter = Counter("c", {})
        gauge = Gauge("g", {})
        counter.inc()
        gauge.set(1.0)
        assert not hasattr(counter, "__dict__")
        assert not hasattr(gauge, "__dict__")

    def test_histogram_pickles_without_its_lock(self):
        import pickle

        hist = Histogram("h", track_samples=True)
        hist.observe(0.25)
        clone = pickle.loads(pickle.dumps(hist))
        assert clone.count == 1
        assert clone.p50 == 0.25
        clone.observe(0.5)  # the recreated lock works
        assert clone.count == 2
