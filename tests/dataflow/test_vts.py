"""Unit tests for VTS conversion (paper §3, eqs. 1 and 2)."""

import pytest

from repro.dataflow import (
    DataflowGraph,
    DynamicRate,
    GraphError,
    PackedToken,
    build_pass,
    repetitions_vector,
    vts_convert,
)
from repro.dataflow.vts import minimum_feedback_delay


class TestPackedToken:
    def test_pack_unpack_roundtrip(self):
        token = PackedToken.pack([1, 2, 3], raw_token_bytes=2)
        assert token.size == 3
        assert token.nbytes == 6
        assert token.unpack() == [1, 2, 3]

    def test_empty_pack_allowed(self):
        token = PackedToken.pack([], raw_token_bytes=4)
        assert token.size == 0
        assert token.nbytes == 0

    def test_frozen(self):
        token = PackedToken.pack([1], 4)
        with pytest.raises(AttributeError):
            token.payload = (2,)


class TestVtsConversion:
    def test_fig1_conversion(self, fig1_graph):
        """The paper's figure 1: rates <=10 / <=8 become rate 1 with
        token size bounds."""
        conversion = vts_convert(fig1_graph)
        edge = conversion.graph.edges[0]
        assert edge.source.rate == 1
        assert edge.sink.rate == 1
        info = conversion.edge_info[edge.name]
        assert info.producer_bound == 10
        assert info.consumer_bound == 8
        # b_max = max bound x raw bytes = 10 x 2
        assert info.b_max_bytes == 20

    def test_eq1_uses_converted_c_sdf(self, fig1_graph):
        conversion = vts_convert(fig1_graph)
        edge = conversion.graph.edges[0]
        info = conversion.edge_info[edge.name]
        # converted graph is a 1->1 chain: c_sdf = 1 packed token
        assert info.c_sdf == 1
        assert info.c_bytes == 1 * 20

    def test_eq2_unbounded_without_feedback(self, fig1_graph):
        conversion = vts_convert(fig1_graph)
        edge = conversion.graph.edges[0]
        assert conversion.ipc_buffer_bound_bytes(edge) is None

    def test_eq2_with_feedback(self):
        graph = DataflowGraph("fb")
        a = graph.actor("A")
        b = graph.actor("B")
        a.add_output("o", rate=DynamicRate(4), token_bytes=2)
        a.add_input("back")
        b.add_input("i", rate=DynamicRate(4), token_bytes=2)
        b.add_output("back")
        graph.connect((a, "o"), (b, "i"))
        graph.connect((b, "back"), (a, "back"), delay=2)
        conversion = vts_convert(graph)
        forward = conversion.graph.edge_between("A", "B")
        # G (min feedback B->A) = 2, delay(e) = 0, c(e) = c_sdf * 8
        bound = conversion.ipc_buffer_bound_bytes(forward)
        info = conversion.edge_info[forward.name]
        assert bound == (2 + 0) * info.c_bytes

    def test_converted_graph_is_static_and_consistent(self, fig1_graph):
        conversion = vts_convert(fig1_graph)
        assert not conversion.graph.is_dynamic
        reps = repetitions_vector(conversion.graph)
        assert reps == {"A": 1, "B": 1}
        build_pass(conversion.graph)

    def test_static_graph_rejected(self, chain_graph):
        with pytest.raises(GraphError, match="no dynamic"):
            vts_convert(chain_graph)

    def test_delay_on_dynamic_edge_rejected(self):
        graph = DataflowGraph("bad")
        a = graph.actor("A")
        b = graph.actor("B")
        a.add_output("o", rate=DynamicRate(3))
        b.add_input("i", rate=DynamicRate(3))
        graph.connect((a, "o"), (b, "i"), delay=1)
        with pytest.raises(GraphError, match="delay"):
            vts_convert(graph)

    def test_static_edges_untouched(self):
        graph = DataflowGraph("mixed")
        a = graph.actor("A")
        b = graph.actor("B")
        c = graph.actor("C")
        a.add_output("dyn", rate=DynamicRate(5), token_bytes=2)
        a.add_output("stat", rate=3, token_bytes=4)
        b.add_input("i", rate=DynamicRate(5), token_bytes=2)
        c.add_input("i", rate=3, token_bytes=4)
        graph.connect((a, "dyn"), (b, "i"))
        graph.connect((a, "stat"), (c, "i"))
        conversion = vts_convert(graph)
        static_edge = conversion.graph.edge_between("A", "C")
        assert static_edge.source.rate == 3
        assert static_edge.token_bytes == 4
        assert static_edge.name not in conversion.edge_info


class TestKernelWrapping:
    def test_dynamic_kernel_packs_and_unpacks(self):
        graph = DataflowGraph("wrap")
        produced = [10, 20, 30]

        def src_kernel(k, inputs):
            return {"o": list(produced)}

        received = []

        def snk_kernel(k, inputs):
            received.extend(inputs["i"])
            return {}

        a = graph.actor("A", kernel=src_kernel)
        b = graph.actor("B", kernel=snk_kernel)
        a.add_output("o", rate=DynamicRate(5), token_bytes=2)
        b.add_input("i", rate=DynamicRate(5), token_bytes=2)
        graph.connect((a, "o"), (b, "i"))
        conversion = vts_convert(graph)
        out = conversion.graph.get_actor("A").fire(0, {})
        assert len(out["o"]) == 1
        token = out["o"][0]
        assert isinstance(token, PackedToken)
        assert token.unpack() == produced
        conversion.graph.get_actor("B").fire(0, {"i": [token]})
        assert received == produced

    def test_bound_violation_raises(self):
        graph = DataflowGraph("over")

        def src_kernel(k, inputs):
            return {"o": [0] * 9}

        a = graph.actor("A", kernel=src_kernel)
        b = graph.actor("B")
        a.add_output("o", rate=DynamicRate(5))
        b.add_input("i", rate=DynamicRate(5))
        graph.connect((a, "o"), (b, "i"))
        conversion = vts_convert(graph)
        with pytest.raises(GraphError, match="outside the declared range"):
            conversion.graph.get_actor("A").fire(0, {})

    def test_empty_firing_needs_zero_minimum(self):
        def empty_kernel(k, inputs):
            return {"o": []}

        for minimum, ok in ((0, True), (1, False)):
            graph = DataflowGraph(f"empty{minimum}")
            a = graph.actor("A", kernel=empty_kernel)
            b = graph.actor("B")
            a.add_output("o", rate=DynamicRate(5, minimum=minimum))
            b.add_input("i", rate=DynamicRate(5, minimum=minimum))
            graph.connect((a, "o"), (b, "i"))
            conversion = vts_convert(graph)
            if ok:
                out = conversion.graph.get_actor("A").fire(0, {})
                assert out["o"][0].size == 0
            else:
                with pytest.raises(GraphError):
                    conversion.graph.get_actor("A").fire(0, {})

    def test_data_dependent_cycles_wrapped(self):
        graph = DataflowGraph("cyc")
        a = graph.actor("A")
        b = graph.actor(
            "B", cycles=lambda k, inputs: 10 * len(inputs.get("i", []))
        )
        a.add_output("o", rate=DynamicRate(5))
        b.add_input("i", rate=DynamicRate(5))
        graph.connect((a, "o"), (b, "i"))
        conversion = vts_convert(graph)
        wrapped = conversion.graph.get_actor("B")
        token = PackedToken.pack([1, 2, 3], 4)
        assert wrapped.execution_cycles(0, {"i": [token]}) == 30


class TestFeedbackDelay:
    def test_no_path(self, chain_graph):
        edge = chain_graph.edge_between("A", "B")
        assert minimum_feedback_delay(chain_graph, edge) is None

    def test_min_delay_path(self, cyclic_graph):
        forward = cyclic_graph.edge_between("A", "B")
        assert minimum_feedback_delay(cyclic_graph, forward) == 1
        backward = cyclic_graph.edge_between("B", "A")
        assert minimum_feedback_delay(cyclic_graph, backward) == 0


class TestSharedUnpack:
    """A converted actor's cycle model and kernel share one unpack of
    each firing's inputs."""

    @staticmethod
    def _run(monkeypatch, unpack_every_call=False):
        import repro.dataflow.graph as graph_module
        import repro.dataflow.vts as vts_module
        from repro.apps.particle_filter import (
            CrackGrowthModel,
            build_particle_filter_graph,
            simulate_crack_history,
        )
        from repro.spi import SpiSystem

        unpacks = []
        unpack = vts_module._unpack_inputs

        def counting_unpack(inputs, dynamic_inputs):
            unpacks.append(inputs)
            return unpack(inputs, dynamic_inputs)

        monkeypatch.setattr(vts_module, "_unpack_inputs", counting_unpack)
        if unpack_every_call:
            monkeypatch.setattr(
                vts_module._RawInputs,
                "__call__",
                lambda self, inputs: vts_module._unpack_inputs(
                    inputs, self.dynamic_inputs
                ),
            )
        model = CrackGrowthModel()
        _, observations = simulate_crack_history(model, steps=12, seed=3)
        system = build_particle_filter_graph(
            model, observations, n_particles=16, n_pes=2, seed=5
        )
        converted = {
            actor.name
            for actor in system.graph.actors
            if actor.is_dynamic and actor.kernel is not None
        }
        # the filter's cycle models are constants: give its converted
        # actors data-dependent ones, so both adapters read each firing
        for name in converted:
            actor = system.graph.get_actor(name)
            actor.cycles = lambda k, inputs, base=actor.cycles: base + sum(
                len(values) for values in inputs.values()
            )
        assert any(
            callable(system.graph.get_actor(name).cycles) for name in converted
        )
        firings = []
        fire = graph_module.Actor.fire

        def counting_fire(self, firing_index, inputs):
            if self.name in converted:
                firings.append(self.name)
            return fire(self, firing_index, inputs)

        monkeypatch.setattr(graph_module.Actor, "fire", counting_fire)
        compiled = SpiSystem.compile(system.graph, system.partition)
        del unpacks[:]  # compile-time cycle estimates are not firings
        compiled.run(iterations=12)
        return len(unpacks), len(firings), system.estimates()

    def test_one_unpack_per_firing(self, monkeypatch):
        unpacks, firings, _ = self._run(monkeypatch)
        assert firings > 0
        assert unpacks == firings

    def test_outputs_equal_an_unpack_per_call(self, monkeypatch):
        _, _, shared = self._run(monkeypatch)
        unpacks, firings, separate = self._run(
            monkeypatch, unpack_every_call=True
        )
        assert unpacks > firings
        assert [v.hex() for v in shared] == [v.hex() for v in separate]
