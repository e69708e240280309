"""Operation registry: spec validation, lookup, execution plumbing."""

import pytest

from repro.service import (
    OperationSpec,
    Param,
    RegistryError,
    RunContext,
    get_operation,
    list_operations,
    run_operation,
)


def _spec():
    return OperationSpec(
        params=(
            Param("seed", int, required=True, minimum=0),
            Param("iterations", int, default=4, minimum=1),
            Param("quick", bool, default=False),
            Param("app", str, default="lpc", choices=("lpc", "pf")),
            Param("shape", dict, default=None),
        )
    )


class TestParamValidation:
    def test_fills_defaults(self):
        resolved = _spec().validate({"seed": 3})
        assert resolved == {
            "seed": 3,
            "iterations": 4,
            "quick": False,
            "app": "lpc",
            "shape": None,
        }

    def test_unknown_param_rejected(self):
        with pytest.raises(RegistryError, match="unknown parameter"):
            _spec().validate({"seed": 1, "sneed": 2})

    def test_missing_required_rejected(self):
        with pytest.raises(RegistryError, match="missing required"):
            _spec().validate({"iterations": 2})

    def test_wrong_type_rejected(self):
        with pytest.raises(RegistryError, match="expected int, got str"):
            _spec().validate({"seed": "7"})

    def test_bool_is_not_an_int(self):
        # bool subclasses int; an int param must still reject it
        with pytest.raises(RegistryError, match="expected int, got bool"):
            _spec().validate({"seed": True})

    def test_minimum_enforced(self):
        with pytest.raises(RegistryError, match="below the minimum"):
            _spec().validate({"seed": -1})

    def test_choices_enforced(self):
        with pytest.raises(RegistryError, match="not in"):
            _spec().validate({"seed": 0, "app": "fft"})

    def test_validation_is_idempotent(self):
        """A defaulted dict (parent-validated campaign unit) must pass a
        second validation unchanged — including None-valued defaults."""
        first = _spec().validate({"seed": 5})
        assert _spec().validate(first) == first


class TestRegistry:
    def test_unknown_operation(self):
        with pytest.raises(RegistryError, match="unknown operation"):
            get_operation("no.such.op")

    def test_builtins_registered(self):
        names = [operation.name for operation in list_operations()]
        for expected in (
            "ablate.resync",
            "bench.figure",
            "conform.seed",
            "simulate.app",
        ):
            assert expected in names

    def test_run_operation_validates_before_executing(self):
        with pytest.raises(RegistryError, match="missing required"):
            run_operation("conform.seed", {})

    @pytest.mark.parametrize("name", ["simulate.app", "ablate.resync"])
    def test_single_pe_chain_rejected_at_validation(self, name):
        spec = get_operation(name).spec
        with pytest.raises(RegistryError, match="at least 2 PEs"):
            spec.validate({"app": "chain", "pes": 1})
        assert spec.validate({"app": "chain", "pes": 2})["pes"] == 2

    def test_run_operation_executes(self):
        result = run_operation(
            "simulate.app",
            {"app": "lpc", "pes": 2, "iterations": 2},
            RunContext(),
        )
        assert result.ok
        assert result.payload["cycles"] > 0

    def test_every_builtin_documents_its_params(self):
        for operation in list_operations():
            assert operation.description
            for param in operation.spec.params:
                assert param.help
