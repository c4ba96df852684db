"""The simulated network plane: scheduler, chaos, reliability, and the
NetTransport's contracts.

The binding contracts (ISSUE 4): under the lossless default the plane
is bit-identical to ``LocalTransport``; under chaos with retries it
converges to the lossless answer with overhead confined to the
retransmit meter; and per-link delivery order is FIFO whatever the
wire does.
"""

from __future__ import annotations

import pytest

from repro.agent.agent import MintAgent
from repro.agent.collector import MintCollector
from repro.agent.config import MintConfig
from repro.agent.reports import BloomReport, ParamsReport
from repro.backend.backend import MintBackend
from repro.framework import MintFramework
from repro.model.trace import SubTrace
from repro.net import (
    CHAOS_PROFILES,
    LOSSLESS,
    ChaosProfile,
    EventScheduler,
    NetTransport,
    NetworkDescriptor,
    PartitionWindow,
    ReliableLink,
    fit_partitions,
)
from repro.net.chaos import ChaosEngine
from repro.sim.clock import SimClock
from repro.sim.meters import OverheadLedger
from repro.transport import Deployment, LocalTransport, Transport
from tests.conftest import make_chain_trace, make_span


class TestEventScheduler:
    def test_runs_in_time_order_with_fifo_ties(self):
        scheduler = EventScheduler()
        order: list[str] = []
        scheduler.at(2.0, lambda: order.append("late"))
        scheduler.at(1.0, lambda: order.append("early-first"))
        scheduler.at(1.0, lambda: order.append("early-second"))
        scheduler.run_until(5.0)
        assert order == ["early-first", "early-second", "late"]
        assert scheduler.clock.now == 5.0

    def test_callback_observes_its_own_due_time(self):
        scheduler = EventScheduler()
        seen: list[float] = []
        scheduler.at(3.0, lambda: seen.append(scheduler.clock.now))
        scheduler.run_until(10.0)
        assert seen == [3.0]

    def test_cancelled_events_do_not_fire(self):
        scheduler = EventScheduler()
        fired: list[str] = []
        event = scheduler.at(1.0, lambda: fired.append("cancelled"))
        scheduler.at(2.0, lambda: fired.append("kept"))
        event.cancel()
        assert scheduler.pending == 1
        assert scheduler.next_time() == 2.0
        scheduler.run_all()
        assert fired == ["kept"]

    def test_past_scheduling_clamps_to_now(self):
        scheduler = EventScheduler(SimClock(start=5.0))
        fired: list[float] = []
        scheduler.at(1.0, lambda: fired.append(scheduler.clock.now))
        scheduler.run_until(5.0)
        assert fired == [5.0]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            EventScheduler().after(-1.0, lambda: None)

    def test_run_all_backstop_raises_on_runaway(self):
        scheduler = EventScheduler()

        def reschedule():
            scheduler.after(1.0, reschedule)

        scheduler.after(1.0, reschedule)
        with pytest.raises(RuntimeError, match="did not quiesce"):
            scheduler.run_all(max_events=50)


class TestChaos:
    def test_profile_validation(self):
        with pytest.raises(ValueError):
            ChaosProfile("bad", drop_rate=1.0)
        with pytest.raises(ValueError):
            ChaosProfile("bad", duplicate_rate=1.5)
        with pytest.raises(ValueError):
            ChaosProfile("bad", delay_jitter_s=-0.1)
        with pytest.raises(ValueError):
            PartitionWindow(start_s=2.0, end_s=2.0)

    def test_lossless_profile(self):
        assert LOSSLESS.is_lossless
        assert not CHAOS_PROFILES["drop"].is_lossless
        engine = ChaosEngine(LOSSLESS, seed=1)
        assert not engine.drops("node-0", 10.0)
        assert not engine.duplicates()
        assert engine.extra_delay() == 0.0

    def test_partition_windows_are_deterministic_and_scoped(self):
        profile = ChaosProfile(
            "split",
            partitions=(PartitionWindow(10.0, 20.0, nodes=("node-a",)),),
        )
        engine = ChaosEngine(profile, seed=3)
        assert engine.drops("node-a", 15.0)
        assert not engine.drops("node-a", 20.0)  # end is exclusive
        assert not engine.drops("node-b", 15.0)

    def test_engine_is_deterministic_per_seed(self):
        profile = CHAOS_PROFILES["drop"]
        draws = []
        for _ in range(2):
            engine = ChaosEngine(profile, seed=9)
            draws.append([engine.drops("n", 0.0) for _ in range(50)])
        assert draws[0] == draws[1]
        assert any(draws[0]) and not all(draws[0])

    def test_fit_partitions_rescales_into_stream(self):
        profile = CHAOS_PROFILES["partition"]
        fitted = fit_partitions(profile, duration_s=100.0)
        window = fitted.partitions[0]
        # Proportional map of [5, 20] (span 20) into [20, 50].
        assert (window.start_s, window.end_s) == (27.5, 50.0)
        assert fit_partitions(CHAOS_PROFILES["drop"], 100.0) is CHAOS_PROFILES["drop"]

    def test_fit_partitions_clamps_windows_straddling_the_stream_end(self):
        # A window that starts inside the lifetime but extends past it
        # is the outage the stream actually experiences: clamp it to
        # end at the stream's end instead of proportionally dragging
        # its start toward zero on the irrelevantly large end time.
        profile = ChaosProfile(
            "long-tail", partitions=(PartitionWindow(30.0, 500.0),)
        )
        fitted = fit_partitions(profile, duration_s=100.0)
        assert (fitted.partitions[0].start_s, fitted.partitions[0].end_s) == (
            30.0,
            100.0,
        )

    def test_fit_partitions_clamp_keeps_inside_windows_verbatim(self):
        profile = ChaosProfile(
            "mixed-tail",
            partitions=(
                PartitionWindow(10.0, 20.0, nodes=("node-a",)),
                PartitionWindow(30.0, 500.0),
                PartitionWindow(200.0, 300.0),  # fully past the stream
            ),
        )
        fitted = fit_partitions(profile, duration_s=100.0)
        assert len(fitted.partitions) == 2  # the never-started window drops
        inside, clamped = fitted.partitions
        assert (inside.start_s, inside.end_s, inside.nodes) == (
            10.0,
            20.0,
            ("node-a",),
        )
        assert (clamped.start_s, clamped.end_s) == (30.0, 100.0)

    def test_fit_partitions_preserves_multi_window_timing(self):
        profile = ChaosProfile(
            "two-outages",
            partitions=(
                PartitionWindow(5.0, 10.0, nodes=("node-a",)),
                PartitionWindow(50.0, 60.0),
            ),
        )
        fitted = fit_partitions(profile, duration_s=100.0)
        first, second = fitted.partitions
        # Disjoint windows stay disjoint, in order, nodes preserved:
        # span 60 maps into [20, 50].
        assert first.start_s < first.end_s < second.start_s < second.end_s
        assert (first.start_s, first.end_s) == (22.5, 25.0)
        assert (second.start_s, second.end_s) == (45.0, 50.0)
        assert first.nodes == ("node-a",) and second.nodes is None


class TestReliableLink:
    def _link(self, wire_log, delivered, **kwargs):
        scheduler = EventScheduler()
        link = ReliableLink(
            "node-0",
            scheduler,
            transmit=lambda batch, retx: wire_log.append((batch, retx)),
            deliver=delivered.append,
            **kwargs,
        )
        return scheduler, link

    def _reports(self, n):
        return tuple(
            ParamsReport(node="node-0", trace_id=f"{i:032x}") for i in range(n)
        )

    def test_in_order_delivery_despite_reordered_arrivals(self):
        wire, delivered = [], []
        _, link = self._link(wire, delivered)
        batches = [link.send((report,), 10) for report in self._reports(3)]
        link.on_arrival(batches[2])
        assert delivered == []  # parked behind the gap
        assert link.awaiting_delivery == 1
        link.on_arrival(batches[0])
        link.on_arrival(batches[1])
        assert [b.seq for b in delivered] == [0, 1, 2]
        assert link.in_flight == 0

    def test_retransmits_until_acked(self):
        wire, delivered = [], []
        scheduler, link = self._link(wire, delivered, rto_s=1.0)
        batch = link.send(self._reports(1), 10)
        scheduler.run_until(3.5)  # two timeouts: retransmits at 1.0, 3.0
        assert [retx for _, retx in wire] == [False, True, True]
        assert link.retransmits == 2
        link.on_arrival(batch)
        scheduler.run_all()
        assert [b.seq for b in delivered] == [0]
        assert link.in_flight == 0

    def test_duplicate_arrivals_are_dropped_and_counted(self):
        wire, delivered = [], []
        _, link = self._link(wire, delivered)
        batch = link.send(self._reports(1), 10)
        link.on_arrival(batch)
        link.on_arrival(batch)
        assert len(delivered) == 1
        assert link.duplicate_arrivals == 1

    def test_ack_cancels_the_retransmit_timer(self):
        wire, delivered = [], []
        scheduler, link = self._link(wire, delivered, rto_s=1.0)
        batch = link.send(self._reports(1), 10)
        link.on_arrival(batch)
        scheduler.run_all()
        assert [retx for _, retx in wire] == [False]


class TestNetworkDescriptor:
    def test_default_is_the_instantaneous_lossless_wire(self):
        descriptor = NetworkDescriptor()
        assert descriptor == NetworkDescriptor.lossless()
        assert descriptor.is_instantaneous
        assert descriptor.describe() == "lossless-net"

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkDescriptor(latency_s=-1.0)
        with pytest.raises(ValueError):
            NetworkDescriptor(max_batch_reports=0)
        with pytest.raises(ValueError):
            NetworkDescriptor(queue_capacity=0)
        with pytest.raises(ValueError):
            NetworkDescriptor(rto_s=0.0)
        with pytest.raises(ValueError):
            NetworkDescriptor(rto_s=2.0, max_backoff_s=1.0)

    def test_with_chaos_and_describe(self):
        wire = NetworkDescriptor.batched().with_chaos(CHAOS_PROFILES["drop"], seed=4)
        assert not wire.is_instantaneous
        assert "chaos=drop" in wire.describe()
        assert "batch<=256" in wire.describe()
        # Descriptors stay hashable values (they ride frozen Deployments).
        assert hash(wire) == hash(NetworkDescriptor.batched().with_chaos(
            CHAOS_PROFILES["drop"], seed=4
        ))

    def test_deployment_grows_a_network_field(self):
        assert Deployment.single().network is None
        wire = NetworkDescriptor.lossless()
        deployment = Deployment.sharded(2, network=wire)
        assert deployment.network == wire
        assert deployment.describe() == "2-shard+lossless-net"

    def test_build_transport_picks_the_wire(self):
        ledger = OverheadLedger()
        local = Deployment.single().build_transport(MintBackend(), ledger)
        assert type(local) is LocalTransport
        net = Deployment.single(network=NetworkDescriptor.lossless()).build_transport(
            MintBackend(), OverheadLedger()
        )
        assert isinstance(net, NetTransport)
        assert isinstance(net, Transport)


class TestBackendReceiveDedup:
    def _bloom(self):
        # Payload sized for the backend's default 4096-byte buffer.
        return BloomReport(
            node="node-0", topo_pattern_id="t" * 16, payload=b"\x01" * 4096, inserted=3
        )

    def test_duplicate_message_ids_do_not_perturb_storage(self):
        backend = MintBackend()
        backend.receive(self._bloom(), message_id=("node-0", 0, 0))
        once = backend.storage_bytes()
        backend.receive(self._bloom(), message_id=("node-0", 0, 0))
        assert backend.storage_bytes() == once
        assert len(backend.storage.blooms) == 1

    def test_without_ids_the_exactly_once_caller_is_unchecked(self):
        backend = MintBackend()
        backend.receive(self._bloom())
        backend.receive(self._bloom())
        assert len(backend.storage.blooms) == 2

    def test_type_check_still_precedes_dedup(self):
        backend = MintBackend()
        with pytest.raises(TypeError, match="unknown report type"):
            backend.receive("junk", message_id=("x", 0, 0))

    def test_dedup_state_is_bounded_per_channel(self):
        # High-water marks, not a set of every id ever seen: dedup
        # memory stays O(channels) over arbitrarily long runs.
        backend = MintBackend()
        for seq in range(50):
            backend.receive(self._bloom(), message_id=("node-0", seq, 0))
        backend.receive(self._bloom(), message_id=("node-1", 0, 0))
        assert len(backend._delivered_watermarks) == 2
        # A straggler at or below the watermark is dropped.
        stored = len(backend.storage.blooms)
        backend.receive(self._bloom(), message_id=("node-0", 10, 0))
        assert len(backend.storage.blooms) == stored

    def test_out_of_order_ids_below_the_watermark_are_idempotent(self):
        # A retransmitted batch can resurface arbitrarily old sequence
        # numbers in any order; everything at or below the channel's
        # high-water mark must be ignored without perturbing storage or
        # the watermark itself.
        backend = MintBackend()
        for seq in range(6):
            backend.receive(self._bloom(), message_id=("node-0", seq, 0))
        stored = len(backend.storage.blooms)
        nbytes = backend.storage_bytes()
        watermark = backend._delivered_watermarks["node-0"]
        for seq in (3, 0, 5, 1, 4, 2):
            backend.receive(self._bloom(), message_id=("node-0", seq, 0))
        assert len(backend.storage.blooms) == stored
        assert backend.storage_bytes() == nbytes
        assert backend._delivered_watermarks["node-0"] == watermark
        # The next fresh sequence number still lands.
        backend.receive(self._bloom(), message_id=("node-0", 6, 0))
        assert len(backend.storage.blooms) == stored + 1

    def test_watermarks_are_scoped_per_channel(self):
        # Another channel for the same node (the migration links use a
        # prefixed channel name) keeps its own watermark: node-0's high
        # water must not suppress fresh deliveries elsewhere.
        backend = MintBackend()
        for seq in range(5):
            backend.receive(self._bloom(), message_id=("node-0", seq, 0))
        stored = len(backend.storage.blooms)
        backend.receive(self._bloom(), message_id=("migrate::node-0", 0, 0))
        assert len(backend.storage.blooms) == stored + 1


class TestNetTransport:
    def _report(self, node="node-0", trace_id="1" * 32):
        return ParamsReport(node=node, trace_id=trace_id, records=[])

    def _transport(self, clock_box=None, **net_kwargs):
        backend = MintBackend()
        ledger = OverheadLedger()
        clock_box = clock_box if clock_box is not None else [0.0]
        transport = NetTransport(
            backend,
            ledger,
            clock=lambda: clock_box[0],
            network=NetworkDescriptor(**net_kwargs),
        )
        return backend, ledger, transport, clock_box

    def test_lossless_default_delivers_inside_the_call(self):
        backend, ledger, transport, clock = self._transport()
        clock[0] = 120.0
        report = self._report()
        transport.deliver(report)
        assert "1" * 32 in backend.storage.params
        assert ledger.network.per_minute_series() == [(2, report.size_bytes())]
        assert transport.meters["retransmit"].total_bytes == 0
        assert transport.queued_reports == 0 and transport.in_flight_batches == 0

    def test_claims_notify_meter_like_local_transport(self):
        backend, _, transport, _ = self._transport()
        assert backend.notify_meter == transport.notify

    def test_size_triggered_batching_preserves_fifo(self):
        backend, _, transport, _ = self._transport(max_batch_reports=3)
        for i in range(3):
            transport.deliver(self._report(trace_id=f"{i:032x}"))
            if i < 2:
                assert transport.queued_reports == i + 1
        assert transport.queued_reports == 0
        assert list(backend.storage.params) == [f"{i:032x}" for i in range(3)]
        stats = transport.link_stats["node-0"]
        assert stats.sent_batches == 1 and stats.sent_reports == 3

    def test_age_triggered_flush_fires_on_later_advance(self):
        backend, _, transport, clock = self._transport(
            max_batch_reports=100, max_batch_age_s=2.0
        )
        transport.deliver(self._report())
        assert transport.queued_reports == 1
        clock[0] = 1.0
        transport.sync_storage()
        assert transport.queued_reports == 1  # not old enough yet
        clock[0] = 2.5
        transport.sync_storage()
        assert transport.queued_reports == 0
        assert "1" * 32 in backend.storage.params

    def test_backpressure_forces_a_flush_on_a_full_queue(self):
        backend, _, transport, _ = self._transport(
            max_batch_reports=100, queue_capacity=4
        )
        for i in range(4):
            transport.deliver(self._report(trace_id=f"{i:032x}"))
        assert transport.queued_reports == 0
        assert transport.link_stats["node-0"].backpressure_flushes == 1
        assert len(backend.storage.params) == 4

    def test_send_window_bounds_in_flight_and_resumes_on_ack(self):
        backend, _, transport, _ = self._transport(
            max_in_flight_batches=2, latency_s=0.1, rto_s=1.0
        )
        for i in range(6):
            transport.deliver(self._report(trace_id=f"{i:032x}"))
        # Only the window's worth is on the wire; the backlog is held
        # in the queue, bounding unacked batches and their timers.
        assert transport.in_flight_batches == 2
        assert transport.queued_reports == 4
        transport.drain()  # acks free slots; deferred flushes resume
        assert transport.queued_reports == 0
        assert list(backend.storage.params) == [f"{i:032x}" for i in range(6)]

    def test_rto_must_exceed_latency(self):
        with pytest.raises(ValueError, match="rto_s must exceed latency_s"):
            NetworkDescriptor(latency_s=0.6, rto_s=0.5)

    def test_network_meter_is_charged_at_enqueue_even_when_batching(self):
        _, ledger, transport, clock = self._transport(
            max_batch_reports=100, max_batch_age_s=120.0
        )
        clock[0] = 30.0
        report = self._report()
        transport.deliver(report)
        # Still queued, but the wire bytes are already charged in the
        # enqueue minute — exactly when LocalTransport would charge.
        assert transport.queued_reports == 1
        assert ledger.network.per_minute_series() == [(0, report.size_bytes())]

    def test_drop_chaos_retries_converge_and_charge_retransmit_only(self):
        backend, ledger, transport, _ = self._transport(
            rto_s=0.5, chaos=CHAOS_PROFILES["drop"], seed=11
        )
        reports = [self._report(trace_id=f"{i:032x}") for i in range(40)]
        for report in reports:
            transport.deliver(report)
        transport.drain()
        assert len(backend.storage.params) == 40
        assert list(backend.storage.params) == [r.trace_id for r in reports]
        assert ledger.network.total_bytes == sum(r.size_bytes() for r in reports)
        stats = transport.link_stats["node-0"]
        assert stats.dropped > 0 and stats.retransmits > 0
        assert transport.meters["retransmit"].total_bytes > 0

    def test_partition_defers_delivery_until_the_window_lifts(self):
        profile = ChaosProfile("split", partitions=(PartitionWindow(0.0, 10.0),))
        backend, _, transport, clock = self._transport(
            rto_s=1.0, chaos=profile, seed=1
        )
        transport.deliver(self._report())
        clock[0] = 5.0
        transport.sync_storage()
        assert "1" * 32 not in backend.storage.params  # still partitioned
        transport.drain()  # retries walk past the window's end
        assert "1" * 32 in backend.storage.params
        assert transport._sim.now >= 10.0

    def test_duplicate_chaos_never_perturbs_storage(self):
        always_dup = ChaosProfile("dup-all", duplicate_rate=1.0)
        backend, _, transport, _ = self._transport(chaos=always_dup, seed=2)
        for i in range(10):
            transport.deliver(self._report(trace_id=f"{i:032x}"))
        transport.drain()
        assert len(backend.storage.params) == 10
        stats = transport.link_stats["node-0"]
        assert stats.duplicated == 10
        assert transport.meters["retransmit"].total_bytes > 0

    def test_per_link_isolation_and_stats(self):
        backend, _, transport, _ = self._transport(max_batch_reports=2)
        transport.deliver(self._report(node="node-a", trace_id="a" * 32))
        transport.deliver(self._report(node="node-b", trace_id="b" * 32))
        # Neither link reached its batch size; both still queued.
        assert transport.queued_reports == 2
        transport.drain()
        assert set(transport.link_stats) == {"node-a", "node-b"}
        summary = transport.stats_summary()
        assert summary["links"] == 2
        assert summary["totals"]["delivered_reports"] == 2

    def test_retroactive_pull_flushes_a_batching_wire(self):
        # The pull re-queries storage immediately after collectors
        # upload; on a batching wire those uploads are only queued, so
        # the plane's flush_transport hook (claimed by NetTransport)
        # must force them through or the upgrade-to-exact contract
        # breaks.
        config = MintConfig(edge_case_base_rate=0.0)
        backend = MintBackend()
        transport = NetTransport(
            backend,
            OverheadLedger(),
            network=NetworkDescriptor(
                max_batch_reports=100, max_batch_age_s=60.0, latency_s=0.01
            ),
        )
        assert backend.flush_transport == transport.drain
        agent = MintAgent(node="node-0", config=config)
        collector = MintCollector(agent, transport, config=config)
        backend.register_collector(collector)
        for i in range(3, 9):
            sub = SubTrace(
                trace_id=f"{i:032x}",
                node="node-0",
                spans=[make_span(trace_id=f"{i:032x}")],
            )
            collector.process(sub, now=float(i))
        collector.flush(now=100.0)
        transport.drain()
        target = f"{6:032x}"
        assert backend.query(target).status == "partial"
        assert backend.query(target, pull_params=True).status == "exact"
        assert transport.queued_reports == 0

    def test_collector_accepts_a_net_transport(self):
        backend, ledger, transport, _ = self._transport()
        collector = MintCollector(MintAgent(node="node-0"), transport)
        backend.register_collector(collector)
        trace = make_chain_trace(depth=2, trace_id="5" * 32, nodes=("node-0",))
        for sub in trace.sub_traces():
            collector.process(sub, 0.0)
        collector.flush(100.0)
        assert ledger.network.total_bytes > 0


class TestFrameworkOverTheNetworkPlane:
    def _drive(self, framework, num_traces: int = 40):
        for i in range(num_traces):
            framework.process_trace(
                make_chain_trace(depth=3, trace_id=f"{i:032x}"), float(i)
            )
        framework.finalize(float(num_traces))
        return framework

    def _signature(self, framework, num_traces: int = 40):
        return [framework.query(f"{i:032x}").status for i in range(num_traces)]

    def test_lossless_net_is_bit_identical_to_local(self):
        reference = self._drive(MintFramework(auto_warmup_traces=10))
        for deployment in (
            Deployment.single(network=NetworkDescriptor.lossless()),
            Deployment.sharded(2, network=NetworkDescriptor.lossless()),
        ):
            framework = self._drive(
                MintFramework(deployment=deployment, auto_warmup_traces=10)
            )
            assert framework.network_bytes == reference.network_bytes
            assert framework.storage_bytes == reference.storage_bytes
            assert (
                framework.ledger.network.per_minute_series()
                == reference.ledger.network.per_minute_series()
            )
            assert (
                framework.ledger.storage.per_minute_series()
                == reference.ledger.storage.per_minute_series()
            )
            assert self._signature(framework) == self._signature(reference)
            assert framework.retransmit_bytes == 0

    def test_chaos_with_retries_converges_to_the_lossless_answer(self):
        reference = self._drive(MintFramework(auto_warmup_traces=10))
        wire = NetworkDescriptor(
            max_batch_reports=4, max_batch_age_s=0.5, rto_s=0.3
        )
        for name in ("drop", "duplicate", "delay"):
            framework = self._drive(
                MintFramework(
                    deployment=Deployment.single(
                        network=wire.with_chaos(CHAOS_PROFILES[name], seed=5)
                    ),
                    auto_warmup_traces=10,
                )
            )
            assert framework.network_bytes == reference.network_bytes, name
            assert framework.storage_bytes == reference.storage_bytes, name
            assert self._signature(framework) == self._signature(reference), name

    def test_sharded_ledgers_reconcile_over_the_net_plane(self):
        framework = self._drive(
            MintFramework(
                deployment=Deployment.sharded(
                    2, network=NetworkDescriptor.lossless()
                ),
                auto_warmup_traces=10,
            )
        )
        rows = framework.shard_meter_rows()
        assert sum(row.network_bytes for row in rows) == framework.network_bytes

    def test_net_stats_surface_on_the_framework(self):
        framework = self._drive(
            MintFramework(
                deployment=Deployment.single(network=NetworkDescriptor.lossless()),
                auto_warmup_traces=10,
            )
        )
        stats = framework.net_stats()
        assert stats is not None and stats["in_flight_batches"] == 0
        assert MintFramework(auto_warmup_traces=5).net_stats() is None
