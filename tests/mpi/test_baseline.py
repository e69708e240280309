"""Unit/integration tests for the MPI-like baseline layer."""

import pytest

from repro.mpi import MpiConfig, MpiSystem, mpi_engine_cost
from repro.platform import SimulationDeadlock
from repro.spi import SpiSystem
from tests.conftest import build_payload_pipeline as pipeline


class TestCompile:
    def test_small_messages_go_eager(self):
        graph, partition = pipeline(payload_rate=1)
        system = MpiSystem.compile(graph, partition)
        assert all(not rv for rv in system.channel_modes.values())

    def test_large_messages_go_rendezvous(self):
        graph, partition = pipeline(payload_rate=200)
        system = MpiSystem.compile(graph, partition)
        assert all(system.channel_modes.values())

    def test_threshold_configurable(self):
        graph, partition = pipeline(payload_rate=10)  # 40 bytes
        system = MpiSystem.compile(
            graph, partition, MpiConfig(eager_threshold_bytes=16)
        )
        assert all(system.channel_modes.values())


class TestRun:
    def test_functional_completion(self):
        graph, partition = pipeline()
        result = MpiSystem.compile(graph, partition).run(iterations=10)
        assert result.data_messages == 20
        assert result.ack_messages == 0  # eager: no control messages

    def test_rendezvous_control_traffic(self):
        graph, partition = pipeline(payload_rate=200)
        result = MpiSystem.compile(graph, partition).run(iterations=5)
        # each message costs an RTS and a CTS
        assert result.data_messages == 10
        assert result.ack_messages == 20

    def test_envelope_overhead_counted(self):
        graph, partition = pipeline()
        config = MpiConfig()
        result = MpiSystem.compile(graph, partition, config).run(iterations=4)
        assert result.header_bytes == 8 * config.envelope_bytes

    def test_mpi_slower_than_spi_small_messages(self):
        """The headline claim: SPI's specialisation beats the generic
        layer on the same application and mapping."""
        graph, partition = pipeline()
        mpi = MpiSystem.compile(graph, partition).run(iterations=30)
        graph2, partition2 = pipeline()
        spi = SpiSystem.compile(graph2, partition2).run(iterations=30)
        assert spi.execution_time_us < mpi.execution_time_us

    def test_mpi_slower_than_spi_large_messages(self):
        graph, partition = pipeline(payload_rate=300)
        mpi = MpiSystem.compile(graph, partition).run(iterations=10)
        graph2, partition2 = pipeline(payload_rate=300)
        spi = SpiSystem.compile(graph2, partition2).run(iterations=10)
        assert spi.execution_time_us < mpi.execution_time_us

    def test_overhead_bytes_exceed_spi(self):
        graph, partition = pipeline()
        mpi = MpiSystem.compile(graph, partition).run(iterations=10)
        graph2, partition2 = pipeline()
        spi = SpiSystem.compile(graph2, partition2).run(iterations=10)
        assert mpi.overhead_bytes > spi.overhead_bytes

    def test_iterations_validated(self):
        graph, partition = pipeline()
        system = MpiSystem.compile(graph, partition)
        with pytest.raises(Exception):
            system.run(iterations=0)


    def test_cross_rendezvous_deadlock_is_reported(self):
        """The particle filter's two PEs each post a blocking rendezvous
        send to the other before their receives: both sends wait for a
        CTS forever.  The simulator reports that as a deadlock of the
        two running sends, naming their PEs and channels."""
        from repro.apps.particle_filter import (
            CrackGrowthModel,
            build_particle_filter_graph,
            simulate_crack_history,
        )

        model = CrackGrowthModel()
        _, observations = simulate_crack_history(model, steps=6, seed=1)
        app = build_particle_filter_graph(
            model, observations, n_particles=160, n_pes=2
        )
        system = MpiSystem.compile(app.graph, app.partition)
        with pytest.raises(SimulationDeadlock) as excinfo:
            system.run(iterations=4)
        assert str(excinfo.value) == (
            "simulation deadlocked at t=3626: "
            "PE0 blocked on task 'mpi_send_12_S2_0' (iteration 0, "
            "position 6): waiting for a CTS on channel "
            "'particles_0_to_1.ipc'; "
            "PE1 blocked on task 'mpi_send_13_S2_1' (iteration 0, "
            "position 6): waiting for a CTS on channel "
            "'particles_1_to_0.ipc'"
        )


class TestResources:
    def test_engine_per_communicating_pe(self):
        graph, partition = pipeline()
        system = MpiSystem.compile(graph, partition)
        engines = system.library_resources()
        assert engines == mpi_engine_cost().scale(2)

    def test_mpi_engine_larger_than_spi_channel(self):
        from repro.spi.resources import channel_cost

        engine = mpi_engine_cost()
        spi_channel = channel_cost(dynamic=True, buffer_bytes=256,
                                   uses_acks=True)
        assert engine.slices > spi_channel.slices
        assert engine.lut4 > spi_channel.lut4
