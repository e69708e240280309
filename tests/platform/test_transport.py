"""Unit tests for the data transports (p2p, shared bus, ordered bus)."""

import pytest

from repro.platform import Interconnect, LinkSpec, Simulator
from repro.platform.transport import (
    OrderedBusTransport,
    PointToPointTransport,
    SharedBusTransport,
)


def collect(sim):
    arrivals = []

    def deliver_factory(tag):
        return lambda: arrivals.append((tag, sim.now))

    return arrivals, deliver_factory


class TestPointToPoint:
    def test_distinct_pairs_parallel(self):
        sim = Simulator()
        transport = PointToPointTransport(sim, Interconnect(LinkSpec(4, 4, 1)))
        arrivals, deliver = collect(sim)
        transport.send("a", 0, 1, 4, 0, deliver("a"))
        transport.send("b", 2, 3, 4, 0, deliver("b"))
        sim.run()
        assert arrivals == [("a", 5), ("b", 5)]  # concurrent

    def test_same_pair_serializes(self):
        sim = Simulator()
        transport = PointToPointTransport(sim, Interconnect(LinkSpec(4, 4, 1)))
        arrivals, deliver = collect(sim)
        transport.send("a", 0, 1, 4, 0, deliver("a"))
        transport.send("b", 0, 1, 4, 0, deliver("b"))
        sim.run()
        assert arrivals == [("a", 5), ("b", 10)]


class TestSharedBus:
    def test_everything_serializes_with_arbitration(self):
        sim = Simulator()
        bus = SharedBusTransport(sim, LinkSpec(4, 4, 1), arbitration_cycles=2)
        arrivals, deliver = collect(sim)
        bus.send("a", 0, 1, 4, 0, deliver("a"))
        bus.send("b", 2, 3, 4, 0, deliver("b"))  # different PEs, same bus
        sim.run()
        assert arrivals == [("a", 7), ("b", 14)]
        assert bus.messages == 2

    def test_idle_bus_starts_immediately(self):
        sim = Simulator()
        bus = SharedBusTransport(sim, LinkSpec(0, 4, 1), arbitration_cycles=0)
        arrivals, deliver = collect(sim)
        sim.at(50, lambda: bus.send("x", 0, 1, 4, 50, deliver("x")))
        sim.run()
        assert arrivals == [("x", 51)]

    def test_validation(self):
        with pytest.raises(ValueError):
            SharedBusTransport(Simulator(), arbitration_cycles=-1)


class TestOrderedBus:
    def test_in_order_requests_flow(self):
        sim = Simulator()
        bus = OrderedBusTransport(sim, order=["a", "b"], spec=LinkSpec(0, 4, 1))
        arrivals, deliver = collect(sim)
        bus.send("a", 0, 1, 4, 0, deliver("a"))
        bus.send("b", 0, 1, 4, 0, deliver("b"))
        sim.run()
        assert arrivals == [("a", 1), ("b", 2)]

    def test_out_of_turn_request_waits(self):
        sim = Simulator()
        bus = OrderedBusTransport(sim, order=["a", "b"], spec=LinkSpec(0, 4, 1))
        arrivals, deliver = collect(sim)
        bus.send("b", 0, 1, 4, 0, deliver("b"))  # b must wait for a's slot
        sim.run()
        assert arrivals == []  # still parked
        bus.send("a", 0, 1, 4, sim.now, deliver("a"))
        sim.run()
        assert [tag for tag, _ in arrivals] == ["a", "b"]

    def test_cyclic_order(self):
        sim = Simulator()
        bus = OrderedBusTransport(sim, order=["a"], spec=LinkSpec(0, 4, 1))
        arrivals, deliver = collect(sim)
        for k in range(3):
            bus.send("a", 0, 1, 4, 0, deliver(f"a{k}"))
        sim.run()
        assert [t for _, t in arrivals] == [1, 2, 3]

    def test_unknown_key_rejected(self):
        bus = OrderedBusTransport(Simulator(), order=["a"])
        with pytest.raises(ValueError, match="transaction order"):
            bus.send("ghost", 0, 1, 4, 0, lambda: None)

    def test_empty_order_rejected(self):
        with pytest.raises(ValueError):
            OrderedBusTransport(Simulator(), order=[])


class TestInstrumentation:
    def test_p2p_per_channel_traffic(self):
        sim = Simulator()
        transport = PointToPointTransport(sim, Interconnect(LinkSpec(4, 4, 1)))
        arrivals, deliver = collect(sim)
        transport.send("a", 0, 1, 4, 0, deliver("a1"))
        transport.send("a", 0, 1, 4, 0, deliver("a2"))  # queues behind a1
        transport.send("b", 2, 3, 4, 0, deliver("b"))
        sim.run()
        a = transport.per_channel["a"]
        assert a.messages == 2
        assert a.bytes == 8
        assert a.queueing_cycles == 5  # second message waited for the link
        assert transport.per_channel["b"].queueing_cycles == 0

    def test_shared_bus_contention_recorded(self):
        sim = Simulator()
        bus = SharedBusTransport(sim, LinkSpec(4, 4, 1), arbitration_cycles=2)
        arrivals, deliver = collect(sim)
        bus.send("a", 0, 1, 4, 0, deliver("a"))
        bus.send("b", 2, 3, 4, 0, deliver("b"))
        sim.run()
        assert bus.per_channel["a"].contention_cycles == 0
        assert bus.per_channel["b"].contention_cycles == 7  # a's occupancy

    def test_ordered_bus_slot_wait_is_queueing_not_contention(self):
        sim = Simulator()
        bus = OrderedBusTransport(sim, order=["a", "b"], spec=LinkSpec(0, 4, 1))
        arrivals, deliver = collect(sim)
        bus.send("b", 0, 1, 4, 0, deliver("b"))  # out of turn: waits for a
        sim.at(10, lambda: bus.send("a", 0, 1, 4, 10, deliver("a")))
        sim.run()
        b = bus.per_channel["b"]
        assert b.queueing_cycles >= 10  # waited for a's slot
        assert b.queueing_cycles > b.contention_cycles

    def test_observer_receives_message_records(self):
        from repro.observability import ObservabilityHub

        hub = ObservabilityHub()
        sim = Simulator()
        transport = PointToPointTransport(
            sim, Interconnect(LinkSpec(4, 4, 1)), observer=hub
        )
        transport.send("a", 0, 1, 4, 0, lambda: None)
        sim.run()
        assert len(hub.messages) == 1
        record = hub.messages[0]
        assert record.kind == "data"
        assert record.arrived > record.started >= record.requested
        assert hub.byte_split() == {"data": 4}


class TestRuntimeIntegration:
    def build(self, transport):
        from repro.dataflow import DataflowGraph
        from repro.mapping import Partition
        from repro.spi import SpiConfig, SpiSystem

        graph = DataflowGraph("t")
        a = graph.actor("A", cycles=10)
        b = graph.actor("B", cycles=20)
        c = graph.actor("C", cycles=5)
        a.add_output("o")
        b.add_input("i")
        b.add_output("o")
        c.add_input("i")
        graph.connect((a, "o"), (b, "i"))
        graph.connect((b, "o"), (c, "i"))
        partition = Partition.manual(graph, {"A": 0, "B": 1, "C": 0})
        return SpiSystem.compile(
            graph, partition, SpiConfig(transport=transport)
        )

    @pytest.mark.parametrize("transport", ["p2p", "shared_bus", "ordered_bus"])
    def test_all_transports_complete(self, transport):
        result = self.build(transport).run(iterations=10)
        assert result.iterations == 10
        assert result.data_messages == 20

    def test_shared_bus_not_faster_than_p2p(self):
        p2p = self.build("p2p").run(iterations=20)
        bus = self.build("shared_bus").run(iterations=20)
        assert bus.execution_time_us >= p2p.execution_time_us

    def test_transaction_order_follows_pass(self):
        system = self.build("ordered_bus")
        order = system.transaction_order()
        assert len(order) == 2
        assert order[0].startswith("A.o->B.i")

    def test_unknown_transport_rejected(self):
        from repro.spi import SpiConfig

        with pytest.raises(ValueError):
            SpiConfig(transport="carrier_pigeon")


class TestFastPath:
    """The p2p uncontended fast path: zero-latency idle links deliver
    inline instead of taking a heap round trip."""

    def test_zero_latency_link_delivers_inline(self):
        sim = Simulator()
        transport = PointToPointTransport(sim, Interconnect(LinkSpec(0, 4, 0)))
        log = []
        transport.send("a", 0, 1, 4, 0, lambda: log.append(sim.now))
        # delivered synchronously inside send(): no sim.run() needed
        assert log == [0]
        assert transport.fast_path_deliveries == 1
        assert sim.events_processed == 0

    def test_busy_link_takes_slow_path(self):
        sim = Simulator()
        transport = PointToPointTransport(sim, Interconnect(LinkSpec(0, 4, 1)))
        log = []
        transport.send("a", 0, 1, 8, 0, lambda: log.append(("first", sim.now)))
        transport.send("a", 0, 1, 8, 0, lambda: log.append(("second", sim.now)))
        sim.run()
        # per-word cycles make arrival > now: both queue through the heap
        assert transport.fast_path_deliveries == 0
        assert log == [("first", 2), ("second", 4)]

    def test_nonzero_setup_takes_slow_path(self):
        sim = Simulator()
        transport = PointToPointTransport(sim, Interconnect(LinkSpec(4, 4, 1)))
        log = []
        transport.send("a", 0, 1, 4, 0, lambda: log.append(sim.now))
        assert log == []  # not yet delivered
        sim.run()
        assert log == [5]
        assert transport.fast_path_deliveries == 0

    def test_stats_still_recorded_on_fast_path(self):
        sim = Simulator()
        transport = PointToPointTransport(sim, Interconnect(LinkSpec(0, 4, 0)))
        transport.send("a", 0, 1, 16, 0, lambda: None)
        assert transport.messages == 1
        assert transport.bytes == 16
        assert transport.per_channel["a"].messages == 1
