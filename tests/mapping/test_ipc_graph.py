"""Unit tests for IPC-graph construction (paper §4.1)."""


from repro.mapping import (
    EdgeKind,
    Partition,
    build_ipc_graph,
    build_selftimed_schedule,
)


def ipc_of(graph, assignment):
    partition = Partition.manual(graph, assignment)
    schedule = build_selftimed_schedule(graph, partition)
    return build_ipc_graph(schedule)


class TestConstruction:
    def test_vertices_match_tasks(self, chain_graph, two_pe_partition):
        schedule = build_selftimed_schedule(chain_graph, two_pe_partition)
        ipc = build_ipc_graph(schedule)
        assert {v.name for v in ipc.vertices} == {"A", "B", "C"}
        assert ipc.vertex("B").pe == 1
        assert ipc.vertex("B").cycles == 20

    def test_intra_edges_follow_program_order(self, chain_graph, two_pe_partition):
        ipc = build_ipc_graph(
            build_selftimed_schedule(chain_graph, two_pe_partition)
        )
        intra = {
            (e.src, e.snk, e.delay) for e in ipc.edges_of_kind(EdgeKind.INTRA)
        }
        # PE0 runs A then C, with the unit-delay wrap C -> A;
        # PE1 runs only B, with the self wrap B -> B.
        assert ("A", "C", 0) in intra
        assert ("C", "A", 1) in intra
        assert ("B", "B", 1) in intra

    def test_ipc_edges_cross_pe_only(self, chain_graph, two_pe_partition):
        ipc = build_ipc_graph(
            build_selftimed_schedule(chain_graph, two_pe_partition)
        )
        crossing = {(e.src, e.snk) for e in ipc.edges_of_kind(EdgeKind.IPC)}
        assert crossing == {("A", "B"), ("B", "C")}

    def test_single_pe_has_no_ipc_edges(self, chain_graph):
        ipc = ipc_of(chain_graph, {"A": 0, "B": 0, "C": 0})
        assert not ipc.edges_of_kind(EdgeKind.IPC)

    def test_application_delay_preserved(self, cyclic_graph):
        ipc = ipc_of(cyclic_graph, {"A": 0, "B": 1})
        back = [
            e for e in ipc.edges_of_kind(EdgeKind.IPC) if e.src == "B"
        ]
        assert back and back[0].delay == 1

    def test_multirate_expansion_tasks(self, multirate_graph):
        ipc = ipc_of(multirate_graph, {"A": 0, "B": 1, "C": 1})
        names = {v.name for v in ipc.vertices}
        assert names == {"A#0", "A#1", "A#2", "B#0", "B#1", "C#0"}
        # every A invocation feeds some B invocation across PEs
        crossing = {e.src for e in ipc.edges_of_kind(EdgeKind.IPC)}
        assert crossing == {"A#0", "A#1", "A#2"}

    def test_eq3_semantics_no_zero_delay_cycle(self, chain_graph, two_pe_partition):
        ipc = build_ipc_graph(
            build_selftimed_schedule(chain_graph, two_pe_partition)
        )
        assert not ipc.has_zero_delay_cycle()
