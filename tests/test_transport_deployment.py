"""The deployment plane: Deployment descriptors, LocalTransport
metering, the shared BackendPlane contract, and framework wiring.

The binding contract (ISSUE 3): topology is routing + metering only.
``MintFramework(deployment=...)`` must produce identical query results
and byte tables for every descriptor, and all byte charging must flow
through the one transport seam.
"""

from __future__ import annotations

import pytest

from repro.agent.agent import MintAgent
from repro.agent.collector import MintCollector
from repro.agent.config import MintConfig
from repro.agent.reports import ParamsReport
from repro.backend.backend import MintBackend
from repro.backend.sharded import ShardedBackend
from repro.framework import MintFramework
from repro.live.subscription import PushNotification
from repro.net.chaos import CHAOS_PROFILES
from repro.net.transport import CHAOS_WIRE, NetworkDescriptor
from repro.obs.trace import Observer
from repro.sim.meters import OverheadLedger
from repro.transport import (
    NOTIFY_MESSAGE_BYTES,
    BackendPlane,
    Deployment,
    LocalTransport,
    Transport,
)
from repro.transport.wire import NETWORK, PUSH, RETRANSMIT, TRAFFIC_CLASSES
from tests.conftest import make_chain_trace


class TestDeploymentDescriptor:
    def test_single_is_default_and_unsharded(self):
        assert Deployment() == Deployment.single()
        assert not Deployment.single().is_sharded
        assert Deployment.single().ledger_count == 0
        assert Deployment.single().describe() == "single-backend"

    def test_sharded_descriptor(self):
        deployment = Deployment.sharded(4)
        assert deployment.is_sharded
        assert deployment.num_shards == 4
        assert deployment.ledger_count == 4
        assert deployment.describe() == "4-shard"

    def test_sharded_one_is_distinct_from_single(self):
        # The pinned degenerate case: full routing machinery at N=1.
        assert Deployment.sharded(1) != Deployment.single()
        assert Deployment.sharded(1).is_sharded

    def test_rejects_bad_shard_counts(self):
        with pytest.raises(ValueError):
            Deployment.sharded(0)
        with pytest.raises(ValueError):
            Deployment.sharded(-2)
        with pytest.raises(ValueError):
            Deployment(num_shards=-1)

    def test_descriptors_are_immutable_values(self):
        deployment = Deployment.sharded(2)
        with pytest.raises(AttributeError):
            deployment.num_shards = 8
        assert {Deployment.sharded(2), Deployment.sharded(2)} == {deployment}

    def test_builds_matching_backend_planes(self):
        from repro.agent.config import MintConfig

        config = MintConfig()
        single = Deployment.single().build_backend(config)
        sharded = Deployment.sharded(3).build_backend(config)
        assert isinstance(single, MintBackend)
        assert isinstance(sharded, ShardedBackend)
        assert sharded.num_shards == 3
        assert isinstance(single, BackendPlane)
        assert isinstance(sharded, BackendPlane)


class TestLocalTransport:
    def _report(self, node: str = "node-0") -> ParamsReport:
        return ParamsReport(node=node, trace_id="1" * 32, records=[])

    def test_deliver_meters_then_stores(self):
        backend = MintBackend()
        ledger = OverheadLedger()
        transport = LocalTransport(backend, ledger, clock=lambda: 120.0)
        report = self._report()
        transport.deliver(report)
        assert ledger.network.total_bytes == report.size_bytes()
        assert ledger.network.per_minute_series() == [(2, report.size_bytes())]
        assert "1" * 32 in backend.storage.params

    def test_satisfies_transport_protocol(self):
        backend = MintBackend()
        transport = LocalTransport(backend, OverheadLedger())
        assert isinstance(transport, Transport)
        # The one delivery verb: no per-class method, no bare call.
        assert not callable(transport)
        assert [name for name in dir(transport) if name.startswith("deliver")] == ["deliver"]

    def test_claims_backend_notify_meter(self):
        backend = MintBackend()
        ledger = OverheadLedger()
        transport = LocalTransport(backend, ledger)
        assert backend.notify_meter == transport.notify
        backend.register_collector(
            MintCollector(MintAgent(node="node-1"), backend.receive)
        )
        backend.notify_sampled("2" * 32, origin_node="elsewhere")
        assert ledger.network.total_bytes == NOTIFY_MESSAGE_BYTES

    def test_does_not_clobber_an_explicit_notify_meter(self):
        charges: list[tuple[str, int]] = []
        backend = MintBackend(notify_meter=lambda node, b: charges.append((node, b)))
        ledger = OverheadLedger()
        LocalTransport(backend, ledger)
        backend.register_collector(
            MintCollector(MintAgent(node="node-1"), backend.receive)
        )
        backend.notify_sampled("2" * 32, origin_node="elsewhere")
        assert charges == [("node-1", NOTIFY_MESSAGE_BYTES)]
        assert ledger.network.total_bytes == 0

    def test_sharded_double_bookkeeping(self):
        backend = ShardedBackend(num_shards=2)
        ledger = OverheadLedger()
        shard_ledgers = [OverheadLedger(), OverheadLedger()]
        transport = LocalTransport(backend, ledger, shard_ledgers=shard_ledgers)
        report = self._report("node-0")
        transport.deliver(report)
        transport.notify("node-2", NOTIFY_MESSAGE_BYTES)
        owner = backend.shard_for("node-0")
        notified = backend.shard_for("node-2")
        assert shard_ledgers[owner].network.total_bytes >= report.size_bytes()
        assert (
            shard_ledgers[notified].network.total_bytes
            >= NOTIFY_MESSAGE_BYTES
        )
        # Every byte on a shard ledger is also on the deployment ledger.
        assert ledger.network.total_bytes == sum(
            sl.network.total_bytes for sl in shard_ledgers
        )

    def test_sync_storage_charges_monotonic_deltas(self):
        backend = MintBackend()
        ledger = OverheadLedger()
        transport = LocalTransport(backend, ledger)
        transport.deliver(
            ParamsReport(
                node="n",
                trace_id="3" * 32,
                records=[["span-1", None, "n", "pat", 0.0, []]],
            )
        )
        transport.sync_storage()
        first = ledger.storage.total_bytes
        assert first == backend.storage_bytes() > 0
        transport.sync_storage()  # no growth -> no extra charge
        assert ledger.storage.total_bytes == first


class _Message:
    """A message of any class: carries the class's link key, counts sizings."""

    def __init__(self, cls, key: str, size: int) -> None:
        setattr(self, cls.link_key, key)
        self.size = size
        self.sized = 0

    def size_bytes(self) -> int:
        self.sized += 1
        return self.size


WIRES = {
    "local": None,
    "net-lossless": NetworkDescriptor.lossless(),
    # Seed chosen so a drop lands among this test's few batches.
    "net-chaos-drop": CHAOS_WIRE.with_chaos(CHAOS_PROFILES["drop"], seed=4),
}


@pytest.mark.parametrize("wire", WIRES)
@pytest.mark.parametrize("cls", TRAFFIC_CLASSES, ids=lambda cls: cls.meter)
def test_every_traffic_class_crosses_the_one_verb(cls, wire):
    """The class table's contract, for every row x every wire: one
    sizing, one meter (stamped at enqueue time), the ledgers for the
    ledger class only, autoscaler visibility, and exactly-once in-order
    arrival on the class's sink."""
    deployment = Deployment.sharded(2, network=WIRES[wire])
    backend = deployment.build_backend(MintConfig())
    ledger, shard_ledgers, clock = OverheadLedger(), [OverheadLedger(), OverheadLedger()], [0.0]
    transport = deployment.build_transport(
        backend, ledger, clock=lambda: clock[0], shard_ledgers=shard_ledgers
    )
    observer = Observer()
    transport.bind_observer(observer)
    arrivals: list[tuple] = []
    transport.sinks[cls.sink] = lambda message, message_id: arrivals.append((message, message_id))

    # Two links, two enqueue minutes (2 and 3), sizes all distinct.
    sent = {130.0: [], 190.0: []}
    for now, batch in sent.items():
        clock[0] = now
        for i in range(12):
            message = _Message(cls, f"key-{i % 2}", 100 + len(batch) + int(now))
            batch.append(message)
            transport.deliver(message, cls)
    messages = [m for batch in sent.values() for m in batch]
    total = sum(m.size for m in messages)
    assert all(m.sized == 1 for m in messages)

    # Only this class's meter moved, by the summed sizes, in the enqueue
    # minutes — before the wire has necessarily delivered anything.
    meters = {NETWORK: ledger.network, **transport.meters}
    assert meters[cls.meter].per_minute_series() == [
        (int(now // 60), sum(m.size for m in batch)) for now, batch in sent.items()
    ]
    others = {name: m.total_bytes for name, m in meters.items() if name != cls.meter}
    if wire == "net-chaos-drop":
        others.pop(RETRANSMIT, None)  # the wire's own meter, whatever it carries
    assert not any(others.values()), others
    on_shards = sum(sl.network.total_bytes for sl in shard_ledgers)
    assert on_shards == (total if cls.meter == NETWORK else 0)

    # The autoscaler's signal shows the class's backlog or nothing.
    queued = getattr(transport, "queued_reports", 0)
    assert bool(queued) == (wire == "net-chaos-drop")
    depths = transport.queue_depths()
    assert sum(depths.values()) == (queued if cls.autoscaled else 0)
    assert all(link.startswith(cls.link_prefix + "key-") for link in depths)

    transport.drain()
    assert transport.queue_depths() == {}
    # Exactly once, in per-link send order, on the class's sink.
    for key in ("key-0", "key-1"):
        on_link = [(m, mid) for m, mid in arrivals if getattr(m, cls.link_key) == key]
        assert [m for m, _ in on_link] == [
            m for m in messages if getattr(m, cls.link_key) == key
        ]
        ids = [mid for _, mid in on_link]
        if wire == "local":
            assert ids == [None] * len(ids)
        else:
            assert ids == sorted(set(ids)) and {mid[0] for mid in ids} == {cls.link_prefix + key}
    assert len(arrivals) == len(messages)
    if wire == "net-chaos-drop":
        assert transport.meters[RETRANSMIT].total_bytes > 0  # the chaos fired

    counters = observer.snapshot()["counters"]
    for other in TRAFFIC_CLASSES:
        expected = len(messages) if other is cls else 0
        assert counters[f'{other.counter}{{plane="transport"}}'] == expected, other.counter
    if cls.byte_counter is not None:
        assert counters[f'{cls.byte_counter}{{plane="transport"}}'] == total
    assert meters[cls.meter].total_bytes == total  # nothing charged at arrival


@pytest.mark.parametrize("wire", ["local", "net-lossless"])
def test_an_unclaimed_sink_fails_at_the_call_before_charging(wire):
    """No live plane claims ``PUSH``: the sender's own ``deliver``
    raises, naming the class, and no byte is charged or queued."""
    deployment = Deployment.single(network=WIRES[wire])
    backend = deployment.build_backend(MintConfig())
    transport = deployment.build_transport(backend, OverheadLedger())
    note = PushNotification(
        subscription_id="sub-0001", trace_id="t-1", status="exact", matched_at=0.0
    )
    with pytest.raises(KeyError, match="'subscriber' sink claims 'push' traffic"):
        transport.deliver(note, PUSH)
    assert transport.meters[PUSH.meter].total_bytes == 0
    transport.drain()  # nothing was queued to fail later


class TestBackendPlaneContract:
    def test_receive_raises_on_unknown_report_type(self):
        class BogusReport:
            node = "node-0"

        for backend in (MintBackend(), ShardedBackend(num_shards=2)):
            with pytest.raises(TypeError, match="unknown report type"):
                backend.receive(BogusReport())
            with pytest.raises(TypeError, match="unknown report type"):
                backend.receive("not a report")

    def test_both_backends_share_the_plane(self):
        assert issubclass(MintBackend, BackendPlane)
        assert issubclass(ShardedBackend, BackendPlane)
        # The subclass fork is gone: neither backend re-implements the
        # hoisted plane methods.
        for method in ("receive", "notify_sampled", "query", "storage_bytes"):
            assert method not in MintBackend.__dict__, method
            assert method not in ShardedBackend.__dict__, method

    def test_framework_has_no_sharded_subclass_overrides(self):
        import repro.framework as mod

        assert not hasattr(mod, "ShardedMintFramework")
        for method in ("_transport", "_charge_notify", "_sync_storage_meter"):
            assert not hasattr(MintFramework, method), method


class TestCollectorTransportWiring:
    def test_collector_accepts_transport_objects_and_callables(self):
        backend = MintBackend()
        ledger = OverheadLedger()
        transport = LocalTransport(backend, ledger)
        via_transport = MintCollector(MintAgent(node="a"), transport)
        sink: list = []
        via_callable = MintCollector(MintAgent(node="b"), sink.append)
        trace = make_chain_trace(depth=2, trace_id="4" * 32, nodes=("a", "b"))
        for sub in trace.sub_traces():
            {"a": via_transport, "b": via_callable}[sub.node].process(sub, 0.0)
        via_transport.flush(100.0)
        via_callable.flush(100.0)
        assert ledger.network.total_bytes > 0  # metered path
        assert sink  # direct path delivered raw reports

    def test_collector_prefers_deliver_over_call(self):
        # An object with both a deliver method and __call__ must route
        # through deliver — the Transport protocol's metered entry.
        delivered, called = [], []

        class Both:
            def deliver(self, report):
                delivered.append(report)

            def __call__(self, report):
                called.append(report)

        collector = MintCollector(MintAgent(node="a"), Both())
        trace = make_chain_trace(depth=2, trace_id="6" * 32, nodes=("a",))
        for sub in trace.sub_traces():
            collector.process(sub, 0.0)
        collector.flush(100.0)
        assert delivered and not called

    def test_collector_accepts_backend_receive_directly(self):
        backend = MintBackend()
        collector = MintCollector(MintAgent(node="a"), backend.receive)
        trace = make_chain_trace(depth=2, trace_id="7" * 32, nodes=("a",))
        for sub in trace.sub_traces():
            collector.process(sub, 0.0)
        collector.flush(100.0)
        assert backend.storage.pattern_bytes > 0

    def test_collector_rejects_non_conforming_transports(self):
        # Neither a deliver method nor callable: fail at construction
        # with a message naming the offender, not at first upload.
        for bogus in (object(), 42, "backend"):
            with pytest.raises(TypeError, match="deliver method"):
                MintCollector(MintAgent(node="a"), bogus)

    def test_collector_rejects_non_callable_deliver_attribute(self):
        class BrokenTransport:
            deliver = "not-callable"

        with pytest.raises(TypeError, match="deliver method"):
            MintCollector(MintAgent(node="a"), BrokenTransport())


class TestFrameworkDeployments:
    def _drive(self, framework, num_traces: int = 40):
        for i in range(num_traces):
            framework.process_trace(
                make_chain_trace(depth=3, trace_id=f"{i:032x}"), float(i)
            )
        framework.finalize(float(num_traces))
        return framework

    def test_default_deployment_is_single(self):
        framework = MintFramework(auto_warmup_traces=5)
        assert framework.deployment == Deployment.single()
        assert framework.name == "Mint"
        assert framework.shard_ledgers == []
        assert framework.shard_meter_rows() == []
        assert framework.shard_summaries() == []

    def test_sharded_deployment_names_and_ledgers(self):
        framework = MintFramework(
            deployment=Deployment.sharded(4), auto_warmup_traces=5
        )
        assert framework.name == "Mint-Sharded(4)"
        assert len(framework.shard_ledgers) == 4
        assert isinstance(framework.backend, ShardedBackend)

    def test_topology_invariance_over_one_stream(self):
        reference = self._drive(MintFramework(auto_warmup_traces=10))
        for deployment in (Deployment.sharded(1), Deployment.sharded(3)):
            other = self._drive(
                MintFramework(deployment=deployment, auto_warmup_traces=10)
            )
            assert other.network_bytes == reference.network_bytes, deployment
            assert other.storage_bytes == reference.storage_bytes, deployment
            assert other.stored_trace_ids() == reference.stored_trace_ids()
            for i in range(40):
                trace_id = f"{i:032x}"
                assert (
                    other.query(trace_id).status
                    == reference.query(trace_id).status
                ), (deployment, trace_id)

    def test_all_network_bytes_flow_through_the_transport(self):
        framework = self._drive(
            MintFramework(deployment=Deployment.sharded(2), auto_warmup_traces=10)
        )
        # The deployment ledger and the per-shard ledgers are charged by
        # the same transport: their totals must reconcile exactly.
        rows = framework.shard_meter_rows()
        assert sum(r.network_bytes for r in rows) == framework.network_bytes
        physical = sum(s.storage_bytes() for s in framework.backend.shards)
        assert (
            physical
            == framework.storage_bytes
            + framework.backend.merged.replicated_pattern_bytes()
        )
