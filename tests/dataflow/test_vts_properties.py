"""Property tests for the VTS buffer-bound analysis (paper eqs. 1/2).

Hypothesis drives the bound formulas over the whole small-parameter
space: ``b_max(e)`` must equal ``max(prod bound, cons bound) * raw
token bytes``, ``c(e) = c_sdf(e) * b_max(e)`` (eq. 1), and the IPC
buffer bound ``B(e) = (G + delay(e)) * c(e)`` (eq. 2) must be exact and
monotone in both the dynamic-rate bounds and the feedback delay.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow import DataflowGraph, DynamicRate
from repro.dataflow.vts import minimum_feedback_delay, vts_convert


def _dynamic_cycle(prod_bound, cons_bound, token_bytes, delay, feedback=True):
    """A -> B dynamic edge, optionally closed by B -> A with ``delay``."""
    graph = DataflowGraph("vts_prop")
    a = graph.actor("A", cycles=5)
    b = graph.actor("B", cycles=5)
    a.add_output(
        "o", rate=DynamicRate(prod_bound), token_bytes=token_bytes
    )
    b.add_input("i", rate=DynamicRate(cons_bound), token_bytes=token_bytes)
    graph.connect((a, "o"), (b, "i"))
    if feedback:
        b.add_output("r", rate=1, token_bytes=token_bytes)
        a.add_input("r", rate=1, token_bytes=token_bytes)
        graph.connect((b, "r"), (a, "r"), delay=delay)
    graph.validate()
    return graph


BOUNDS = st.integers(min_value=1, max_value=8)
BYTES = st.integers(min_value=1, max_value=8)
DELAYS = st.integers(min_value=1, max_value=6)


class TestEquationOne:
    @given(prod=BOUNDS, cons=BOUNDS, nbytes=BYTES, delay=DELAYS)
    @settings(max_examples=60, deadline=None)
    def test_b_max_and_c_are_exact(self, prod, cons, nbytes, delay):
        conversion = vts_convert(_dynamic_cycle(prod, cons, nbytes, delay))
        edge = conversion.graph.edge_between("A", "B")
        info = conversion.edge_info[edge.name]
        assert info.producer_bound == prod
        assert info.consumer_bound == cons
        assert info.b_max_bytes == max(prod, cons) * nbytes
        assert info.c_bytes == info.c_sdf * info.b_max_bytes

    @given(prod=BOUNDS, cons=BOUNDS, nbytes=BYTES, bump=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_b_max_monotone_in_rate_bounds(self, prod, cons, nbytes, bump):
        small = vts_convert(_dynamic_cycle(prod, cons, nbytes, delay=1))
        grown = vts_convert(
            _dynamic_cycle(prod + bump, cons + bump, nbytes, delay=1)
        )
        edge_small = small.graph.edge_between("A", "B")
        edge_grown = grown.graph.edge_between("A", "B")
        grown_info = grown.edge_info[edge_grown.name]
        small_info = small.edge_info[edge_small.name]
        assert grown_info.b_max_bytes >= small_info.b_max_bytes
        assert grown_info.c_bytes >= small_info.c_bytes


class TestEquationTwo:
    @given(prod=BOUNDS, cons=BOUNDS, nbytes=BYTES, delay=DELAYS)
    @settings(max_examples=60, deadline=None)
    def test_buffer_bound_is_feedback_times_c(self, prod, cons, nbytes, delay):
        conversion = vts_convert(_dynamic_cycle(prod, cons, nbytes, delay))
        edge = conversion.graph.edge_between("A", "B")
        feedback = minimum_feedback_delay(conversion.graph, edge)
        assert feedback == delay  # the cycle's only return path
        bound = conversion.ipc_buffer_bound_bytes(edge)
        c_bytes = conversion.edge_info[edge.name].c_bytes
        assert bound == (feedback + edge.delay) * c_bytes

    @given(prod=BOUNDS, cons=BOUNDS, nbytes=BYTES, delay=DELAYS,
           extra=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_buffer_bound_monotone_in_delay(
        self, prod, cons, nbytes, delay, extra
    ):
        near = vts_convert(_dynamic_cycle(prod, cons, nbytes, delay))
        far = vts_convert(_dynamic_cycle(prod, cons, nbytes, delay + extra))
        edge_near = near.graph.edge_between("A", "B")
        edge_far = far.graph.edge_between("A", "B")
        bound_near = near.ipc_buffer_bound_bytes(edge_near)
        bound_far = far.ipc_buffer_bound_bytes(edge_far)
        assert bound_near is not None and bound_far is not None
        assert bound_far >= bound_near

    @given(prod=BOUNDS, cons=BOUNDS, nbytes=BYTES)
    @settings(max_examples=30, deadline=None)
    def test_no_feedback_means_no_bound(self, prod, cons, nbytes):
        """Without a return path eq. 2 has no finite G: bound is None."""
        conversion = vts_convert(
            _dynamic_cycle(prod, cons, nbytes, delay=1, feedback=False)
        )
        edge = conversion.graph.edge_between("A", "B")
        assert minimum_feedback_delay(conversion.graph, edge) is None
        assert conversion.ipc_buffer_bound_bytes(edge) is None
