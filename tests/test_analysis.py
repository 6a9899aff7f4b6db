"""Tests for frequency-response extraction and golden comparison."""

import numpy as np
import pytest

from repro.sim import compare_responses, evaluate_netlist
from repro.sim.analysis import ComparisonResult, FrequencyResponse
from repro.bench.problems.fundamental import mzi_ps_golden, mzm_golden


@pytest.fixture
def golden_response(wavelengths):
    return FrequencyResponse.from_smatrix(evaluate_netlist(mzi_ps_golden(), wavelengths))


class TestFrequencyResponse:
    def test_from_smatrix_covers_all_pairs(self, golden_response):
        assert set(golden_response.ports) == {"I1", "O1"}
        assert len(golden_response.transmission) == 4

    def test_serialisation_roundtrip(self, golden_response):
        rebuilt = FrequencyResponse.from_dict(golden_response.to_dict())
        assert rebuilt.ports == golden_response.ports
        for pair, spectrum in golden_response.transmission.items():
            assert np.allclose(rebuilt.transmission[pair], spectrum)

    def test_values_are_powers(self, golden_response):
        for spectrum in golden_response.transmission.values():
            assert np.all(spectrum >= 0.0)
            assert np.all(spectrum <= 1.0 + 1e-9)


class TestCompareResponses:
    def test_identical_passes(self, wavelengths, golden_response):
        candidate = evaluate_netlist(mzi_ps_golden(), wavelengths)
        result = compare_responses(candidate, golden_response)
        assert result.passed
        assert result.max_abs_error < 1e-12

    def test_comparison_result_truthiness(self, wavelengths, golden_response):
        candidate = evaluate_netlist(mzi_ps_golden(), wavelengths)
        assert bool(compare_responses(candidate, golden_response))

    def test_parameter_change_fails(self, wavelengths, golden_response):
        modified = mzi_ps_golden(delta_length=25.0)
        result = compare_responses(evaluate_netlist(modified, wavelengths), golden_response)
        assert not result.passed
        assert result.mismatched_pairs
        assert "deviates" in result.reason

    def test_different_structure_fails(self, wavelengths, golden_response):
        result = compare_responses(evaluate_netlist(mzm_golden(), wavelengths), golden_response)
        assert not result.passed

    def test_port_name_mismatch_fails(self, wavelengths, golden_response):
        candidate = evaluate_netlist(mzi_ps_golden(), wavelengths)
        renamed = candidate.renamed({"O1": "out"})
        result = compare_responses(renamed, golden_response)
        assert not result.passed
        assert "port names" in result.reason

    def test_wavelength_grid_mismatch_fails(self, golden_response):
        other_grid = np.linspace(1.52, 1.58, golden_response.wavelengths.size)
        candidate = evaluate_netlist(mzi_ps_golden(), other_grid)
        result = compare_responses(candidate, golden_response)
        assert not result.passed
        assert "wavelength" in result.reason

    def test_tolerance_is_respected(self, wavelengths, golden_response):
        # A barely-different design passes with a loose tolerance.
        modified = mzi_ps_golden(delta_length=10.0001)
        candidate = evaluate_netlist(modified, wavelengths)
        loose = compare_responses(candidate, golden_response, atol=0.5)
        assert loose.passed

    @pytest.mark.parametrize(
        "side, every_sample",
        [("candidate", True), ("candidate", False), ("golden", False)],
        ids=["all-nan-candidate", "one-nan-sample-candidate", "one-nan-sample-golden"],
    )
    def test_non_finite_spectrum_fails(self, golden_response, side, every_sample):
        # NaN compares False against atol and vanishes in max(): without the
        # explicit check the pair would pass with max_abs_error 0.0.
        transmission = {}
        for pair, spectrum in golden_response.transmission.items():
            spectrum = spectrum.copy()
            if every_sample:
                spectrum[:] = np.nan
            elif pair == ("O1", "I1"):
                spectrum[spectrum.size // 2] = np.nan
            transmission[pair] = spectrum
        poisoned = FrequencyResponse(
            golden_response.wavelengths, golden_response.ports, transmission
        )
        if side == "candidate":
            result = compare_responses(poisoned, golden_response)
        else:
            result = compare_responses(golden_response, poisoned)
        assert not result.passed
        assert result.max_abs_error == float("inf")
        assert "non-finite" in result.reason
        expected = list(transmission) if every_sample else [("O1", "I1")]
        assert result.mismatched_pairs == expected
