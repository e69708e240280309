"""Unit tests for the heterogeneous PE class cost model.

The contract under test: a ``gpp`` is the *identity* model (so mapping
onto gpp PEs stays bit-identical to the homogeneous platform), while an
``accelerator`` pays ``dispatch_cycles`` once per dispatch and then
``ceil(native * cycles_per_element)`` per firing — the amortization
batching exploits.
"""

import pytest

from repro.platform import GPP, PEClass, ProcessingElement


class TestPEClass:
    def test_gpp_is_identity_model(self):
        assert not GPP.is_accelerator
        assert GPP.firing_cycles(10) == 10
        assert GPP.batch_cycles([10, 20, 30]) == 60
        # batching never saves cycles on a gpp (no launch overhead)
        assert GPP.dispatch_cycles_saved(8) == 0

    def test_gpp_rejects_accelerator_parameters(self):
        # the gpp no-op rule is load-bearing for bit-identity: a "gpp"
        # with dispatch overhead would silently change every makespan
        with pytest.raises(ValueError, match="gpp"):
            PEClass(dispatch_cycles=5)
        with pytest.raises(ValueError, match="gpp"):
            PEClass(cycles_per_element=0.5)

    def test_kind_validation(self):
        with pytest.raises(ValueError, match="unknown PE class kind"):
            PEClass(kind="dsp")

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="dispatch_cycles"):
            PEClass(kind="accelerator", dispatch_cycles=-1)
        with pytest.raises(ValueError, match="cycles_per_element"):
            PEClass(kind="accelerator", cycles_per_element=0)
        with pytest.raises(ValueError, match="resource_cost"):
            PEClass(kind="accelerator", resource_cost=0)

    def test_accelerator_firing_cycles_ceil(self):
        accel = PEClass(
            kind="accelerator", dispatch_cycles=10, cycles_per_element=0.3
        )
        assert accel.firing_cycles(10) == 3  # ceil(3.0)
        assert accel.firing_cycles(1) == 1  # ceil(0.3): never free
        assert accel.firing_cycles(0) == 0
        with pytest.raises(ValueError, match="native cycles"):
            accel.firing_cycles(-1)

    def test_batch_cycles_charges_dispatch_once(self):
        accel = PEClass(
            kind="accelerator", dispatch_cycles=10, cycles_per_element=0.3
        )
        # 10 (one dispatch) + 3 * ceil(10 * 0.3)
        assert accel.batch_cycles([10, 10, 10]) == 19
        assert accel.batch_cycles([10]) == 13
        # an empty dispatch is never issued, so it costs nothing
        assert accel.batch_cycles([]) == 0

    def test_dispatch_cycles_saved(self):
        accel = PEClass(
            kind="accelerator", dispatch_cycles=10, cycles_per_element=0.5
        )
        assert accel.dispatch_cycles_saved(1) == 0
        assert accel.dispatch_cycles_saved(4) == 30
        with pytest.raises(ValueError, match="batch"):
            accel.dispatch_cycles_saved(0)


class TestProcessingElementBatchAccounting:
    def test_batched_dispatch_keeps_firings_logical(self):
        pe = ProcessingElement(index=1)
        # the sequencer records one firing per task *execution*; the
        # batched-dispatch hook must add the burst's remaining B-1 so
        # ``firings`` stays the logical invocation count
        pe.busy_cycles, pe.firings = 40, 1
        pe.record_batched_dispatch(firings=4, cycles_saved=30)
        assert pe.firings == 4
        assert pe.batched_firings == 4
        assert pe.batch_dispatches == 1
        assert pe.amortized_dispatch_cycles_saved == 30

    def test_batched_dispatch_validation(self):
        pe = ProcessingElement(index=0)
        with pytest.raises(ValueError, match=">= 2 firings"):
            pe.record_batched_dispatch(firings=1, cycles_saved=0)
        with pytest.raises(ValueError, match="cycles_saved"):
            pe.record_batched_dispatch(firings=2, cycles_saved=-1)
