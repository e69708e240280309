"""The graph's per-actor edge lists and connected-port sets agree with a
scan of every edge.

``DataflowGraph`` answers ``in_edges``/``out_edges`` and the "port
already connected" checks of ``connect`` and the collective builders
from indexes it keeps as edges are added.  These tests drive random
construction sequences (plain connections, wrong-direction attempts,
every collective kind, ``copy_structure``) and compare every answer
with the brute-force scan over ``graph.edges``, in edge order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow import DataflowGraph, GraphError

ACTORS = 4
PORTS = 3
COLLECTIVES = ("broadcast", "gather")


def build_graph():
    graph = DataflowGraph("indexed")
    for a in range(ACTORS):
        actor = graph.actor(f"A{a}")
        for p in range(PORTS):
            actor.add_output(f"o{p}", rate=2)
            actor.add_input(f"i{p}", rate=2)
    return graph


def port(graph, actor, kind, index):
    return graph.get_actor(f"A{actor}").port(f"{kind}{index}")


def scanned_in_edges(graph, actor):
    return [e for e in graph.edges if e.snk_actor is actor]


def scanned_out_edges(graph, actor):
    return [e for e in graph.edges if e.src_actor is actor]


def connected_by_scan(graph, p):
    return any(e.source is p or e.sink is p for e in graph.edges)


def check_queries(graph):
    for actor in graph.actors:
        assert graph.in_edges(actor) == scanned_in_edges(graph, actor)
        assert graph.out_edges(actor) == scanned_out_edges(graph, actor)
        # the query returns a fresh list the caller may change
        graph.in_edges(actor).append(None)
        assert None not in graph.in_edges(actor)


def expected_connect_error(graph, src, snk):
    """The ``connect`` error a full edge scan predicts, or None."""
    if any(e.source is src for e in graph.edges):
        return f"output port {src.qualified_name} is already connected"
    if any(e.sink is snk for e in graph.edges):
        return f"input port {snk.qualified_name} is already connected"
    return None


def expected_collective_error(graph, ports):
    """The first "already connected" port a full edge scan finds."""
    for p in {id(p): p for p in ports}.values():
        if connected_by_scan(graph, p):
            return (
                f"port {p.qualified_name} is already connected "
                f"(a port belongs to at most one connection)"
            )
    return None


def apply(graph, op):
    """Run one construction step and check its outcome against a scan."""
    kind = op[0]
    before = list(graph.edges)
    if kind == "connect":
        _, a, i, b, j, wrong_direction = op
        src = port(graph, a, "i" if wrong_direction else "o", i)
        snk = port(graph, b, "i", j)
        expected = expected_connect_error(graph, src, snk)
        try:
            edge = graph.connect(src, snk)
        except GraphError as exc:
            if expected is not None:
                assert str(exc) == expected
            else:
                assert wrong_direction and "not an output port" in str(exc)
            assert list(graph.edges) == before
            return
        assert expected is None and not wrong_direction
        assert list(graph.edges) == before + [edge]
        return
    _, a, i, branches = op
    shared_src = port(graph, a, "o", i)
    shared_snk = port(graph, a, "i", i)
    if kind == "broadcast":
        sinks = [port(graph, b, "i", j) for b, j in branches]
        ports = [shared_src] + sinks
        args = (shared_src, sinks)
    else:
        sources = [port(graph, b, "o", j) for b, j in branches]
        ports = sources + [shared_snk]
        args = (sources, shared_snk)
    expected = expected_collective_error(graph, ports)
    try:
        connection = getattr(graph, f"add_{kind}")(*args)
    except GraphError as exc:
        if expected is not None:
            assert str(exc) == expected
        assert list(graph.edges) == before
        return
    assert expected is None
    assert list(graph.edges) == before + list(connection.edges)


endpoint = st.tuples(st.integers(0, ACTORS - 1), st.integers(0, PORTS - 1))
connect_op = st.tuples(
    st.just("connect"),
    st.integers(0, ACTORS - 1),
    st.integers(0, PORTS - 1),
    st.integers(0, ACTORS - 1),
    st.integers(0, PORTS - 1),
    st.booleans(),
)
collective_op = st.tuples(
    st.sampled_from(COLLECTIVES),
    st.integers(0, ACTORS - 1),
    st.integers(0, PORTS - 1),
    st.lists(endpoint, min_size=1, max_size=3),
)


@given(ops=st.lists(st.one_of(connect_op, collective_op), max_size=30))
@settings(max_examples=150, deadline=None)
def test_indexes_match_a_full_edge_scan(ops):
    graph = build_graph()
    for op in ops:
        apply(graph, op)
        check_queries(graph)
    clone = graph.copy_structure()
    assert [e.name for e in clone.edges] == [e.name for e in graph.edges]
    check_queries(clone)
    # the clone's connected-port sets are its own: replaying the same
    # steps on it must give the scan's verdicts again
    for op in ops:
        apply(clone, op)
        check_queries(clone)


def test_foreign_actor_with_a_known_name_has_no_edges():
    graph = build_graph()
    graph.connect(port(graph, 0, "o", 0), port(graph, 1, "i", 0))
    twin = build_graph()
    for name in ("A0", "A1"):
        assert graph.in_edges(twin.get_actor(name)) == []
        assert graph.out_edges(twin.get_actor(name)) == []
