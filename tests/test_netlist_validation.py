"""Tests for structural netlist validation (the Table II taxonomy)."""

import pytest

from repro.bench.problems.fundamental import mzi_ps_golden
from repro.bench.problems.interconnects import optical_hybrid_golden
from repro.netlist import (
    BadComponentNameError,
    BoundIOPortError,
    DanglingPortError,
    DuplicateConnectionError,
    ErrorCategory,
    Instance,
    InstancesModelsConfusedError,
    Netlist,
    OtherSyntaxError,
    PortSpec,
    UndefinedModelError,
    WrongPortCountError,
    WrongPortError,
    collect_violations,
    validate_netlist,
)
from repro.sim import evaluate_netlist


@pytest.fixture
def golden():
    return mzi_ps_golden()


class TestValidNetlists:
    def test_golden_passes(self, golden):
        validate_netlist(golden)

    def test_golden_passes_with_port_spec(self, golden):
        validate_netlist(golden, port_spec=PortSpec(1, 1))

    def test_collect_violations_empty_for_golden(self, golden):
        assert collect_violations(golden) == []

    def test_implicit_model_reference_accepted(self):
        # An instance whose component name is itself a registry model does not
        # need an explicit models entry (SAX resolves these directly too).
        netlist = Netlist(
            instances={"wg": Instance("waveguide")},
            ports={"I1": "wg,I1", "O1": "wg,O1"},
        )
        validate_netlist(netlist)


class TestInstanceNames:
    def test_underscore_rejected(self, golden):
        golden.instances["phase_shifter1"] = golden.instances.pop("phaseShifter")
        with pytest.raises(BadComponentNameError):
            validate_netlist(golden)

    def test_comma_rejected(self, golden):
        golden.instances["bad,name"] = Instance("waveguide")
        with pytest.raises(BadComponentNameError):
            validate_netlist(golden)

    def test_leading_digit_rejected(self, golden):
        golden.instances["1mmi"] = Instance("mmi1x2")
        with pytest.raises(BadComponentNameError):
            validate_netlist(golden)

    def test_empty_netlist_rejected(self):
        with pytest.raises(OtherSyntaxError, match="no instances"):
            validate_netlist(Netlist())


class TestModelsSection:
    def test_undefined_model_reference(self, golden):
        golden.models["waveguide"] = "wire"
        with pytest.raises(UndefinedModelError):
            validate_netlist(golden)

    def test_component_without_model(self, golden):
        golden.instances["mystery"] = Instance("unobtainium")
        with pytest.raises(UndefinedModelError):
            validate_netlist(golden)

    def test_non_string_model_value(self, golden):
        golden.models["waveguide"] = {"component": "waveguide"}
        with pytest.raises(InstancesModelsConfusedError):
            validate_netlist(golden)

    def test_inverted_models_section(self):
        # models written as {"<ref>": "<component>"} with distinct alias names.
        netlist = Netlist(
            instances={"wg": Instance("myWaveguide")},
            ports={"I1": "wg,I1", "O1": "wg,O1"},
            models={"waveguide": "myWaveguide"},
        )
        with pytest.raises(InstancesModelsConfusedError):
            validate_netlist(netlist)


class TestPorts:
    def test_missing_ports_section(self, golden):
        golden.ports = {}
        with pytest.raises(WrongPortCountError):
            validate_netlist(golden)

    def test_wrong_port_count_against_spec(self, golden):
        del golden.ports["O1"]
        with pytest.raises(WrongPortCountError):
            validate_netlist(golden, port_spec=PortSpec(1, 1))
        # without a spec, a missing output is not flagged as a count problem
        validate_netlist(golden)

    def test_off_convention_port_name(self, golden):
        golden.ports["result"] = golden.ports.pop("O1")
        with pytest.raises(WrongPortCountError):
            validate_netlist(golden, port_spec=PortSpec(1, 1))

    def test_port_on_unknown_instance(self, golden):
        golden.ports["O1"] = "ghost,O1"
        with pytest.raises(DanglingPortError):
            validate_netlist(golden)

    def test_port_on_unknown_port(self, golden):
        golden.ports["O1"] = "mmi2,O9"
        with pytest.raises(WrongPortError):
            validate_netlist(golden)

    def test_two_external_ports_same_endpoint(self, golden):
        golden.ports["O2"] = golden.ports["O1"]
        with pytest.raises(DuplicateConnectionError):
            validate_netlist(golden)


class TestConnections:
    def test_duplicate_connection(self, golden):
        golden.connections["mmi1,O1"] = "mmi2,I1"  # mmi2,I1 already used
        with pytest.raises(DuplicateConnectionError):
            validate_netlist(golden)

    def test_connection_to_unknown_instance(self, golden):
        golden.connections["phaseShifter,O1"] = "ghost,I1"
        with pytest.raises((DanglingPortError, DuplicateConnectionError)):
            validate_netlist(golden)

    def test_connection_to_unknown_port(self, golden):
        golden.connections["waveBottom,O1"] = "mmi2,I7"
        with pytest.raises((WrongPortError, DuplicateConnectionError)):
            validate_netlist(golden)

    def test_bound_io_port(self, golden):
        golden.connections["mmi1,I1"] = "waveBottom,I1"
        violations = collect_violations(golden)
        categories = {type(v) for v in violations}
        assert BoundIOPortError in categories

    def test_self_connection(self):
        netlist = Netlist(
            instances={"splitter": Instance("mmi1x2")},
            connections={"splitter,O2": "splitter,O2"},
            ports={"I1": "splitter,I1", "O1": "splitter,O1"},
            models={"mmi1x2": "mmi1x2"},
        )
        with pytest.raises(DuplicateConnectionError):
            validate_netlist(netlist)

    def test_malformed_endpoint(self, golden):
        golden.connections["justoneword"] = "mmi2,I2"
        violations = collect_violations(golden)
        assert any(isinstance(v, OtherSyntaxError) for v in violations)


class TestCollectViolations:
    def test_multiple_violations_reported(self, golden):
        golden.models["waveguide"] = "wire"
        golden.connections["phaseShifter,O1"] = "ghost,I1"
        violations = collect_violations(golden)
        assert len(violations) >= 2
        categories = {v.category for v in violations}
        assert ErrorCategory.UNDEFINED_MODEL in categories

    def test_first_violation_raised(self, golden):
        golden.instances["bad_name"] = Instance("waveguide")
        golden.models["waveguide"] = "wire"
        with pytest.raises(BadComponentNameError):
            validate_netlist(golden)

    def test_every_violation_is_syntax_category(self, golden):
        golden.models["waveguide"] = "wire"
        for violation in collect_violations(golden):
            assert violation.category.is_syntax


class TestNonFiniteSettings:
    @pytest.mark.parametrize(
        "value",
        [float("nan"), float("inf"), float("-inf"), [1.0, [2.0, float("nan")]], (0.5, float("inf"))],
        ids=["nan", "inf", "-inf", "nan-in-nested-list", "inf-in-tuple"],
    )
    def test_non_finite_setting_is_other_syntax(self, golden, value):
        golden.instances["waveBottom"].settings["length"] = value
        violations = collect_violations(golden)
        assert len(violations) == 1
        assert isinstance(violations[0], OtherSyntaxError)
        assert violations[0].category is ErrorCategory.OTHER_SYNTAX
        assert "'waveBottom'" in str(violations[0]) and "'length'" in str(violations[0])
        with pytest.raises(OtherSyntaxError, match="not a finite number"):
            validate_netlist(golden)

    def test_non_finite_inside_a_nested_object(self, golden):
        golden.instances["waveBottom"].settings["extra"] = {"a": [1.0, {"b": float("nan")}]}
        assert [type(v) for v in collect_violations(golden)] == [OtherSyntaxError]

    def test_nan_length_no_longer_reaches_the_solver(self, golden, wavelengths):
        # Before the check, this netlist validated and the engine returned a
        # degraded but all-finite S-matrix.
        golden.instances["waveBottom"].settings["length"] = float("nan")
        with pytest.raises(OtherSyntaxError):
            evaluate_netlist(golden, wavelengths)

    def test_finite_and_non_numeric_settings_pass(self, golden):
        golden.instances["waveBottom"].settings.update(
            {"length": 1e308, "tags": ["a", 1, True, None, [2.5]], "mode": "te"}
        )
        assert not any(
            "finite" in str(violation) for violation in collect_violations(golden)
        )
