"""Tests for frequency-response extraction and golden comparison."""

import json
import math

import numpy as np
import pytest

from repro.constants import DEFAULT_FUNCTIONAL_ATOL
from repro.sim import compare_responses, evaluate_netlist
from repro.sim.analysis import ComparisonResult, FrequencyResponse
from repro.sim.sparams import SMatrix
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


# ----------------------------------------------------------------------
# Equivalence with the per-pair comparison loop
# ----------------------------------------------------------------------
def _oracle_transmission(response):
    """Per-pair ``|S|^2`` dict, extracted one pair at a time."""
    if isinstance(response, SMatrix):
        return {
            (po, pi): np.abs(response.s(po, pi)) ** 2
            for po in response.ports
            for pi in response.ports
        }
    return dict(response.transmission)


def _oracle_compare(candidate, golden, *, atol=DEFAULT_FUNCTIONAL_ATOL):
    """The per-pair comparison loop, kept as the oracle of the vectorised one."""
    candidate_ports = tuple(candidate.ports)
    golden_ports = tuple(golden.ports)
    candidate_wavelengths = np.asarray(candidate.wavelengths, dtype=float)
    golden_wavelengths = np.asarray(golden.wavelengths, dtype=float)
    candidate_transmission = _oracle_transmission(candidate)
    golden_transmission = _oracle_transmission(golden)
    if set(candidate_ports) != set(golden_ports):
        missing = sorted(set(golden_ports) - set(candidate_ports))
        extra = sorted(set(candidate_ports) - set(golden_ports))
        return ComparisonResult(
            passed=False,
            max_abs_error=float("inf"),
            reason=(
                "external port names differ from the specification"
                + (f"; missing {missing}" if missing else "")
                + (f"; unexpected {extra}" if extra else "")
            ),
        )
    if candidate_wavelengths.shape != golden_wavelengths.shape or not np.allclose(
        candidate_wavelengths, golden_wavelengths
    ):
        return ComparisonResult(
            passed=False,
            max_abs_error=float("inf"),
            reason="wavelength grids of candidate and golden responses differ",
        )
    max_error = 0.0
    mismatched = []
    nonfinite = 0
    for pair, golden_spectrum in golden_transmission.items():
        candidate_spectrum = candidate_transmission.get(pair)
        if candidate_spectrum is None:
            mismatched.append(pair)
            max_error = float("inf")
            continue
        error = float(np.max(np.abs(candidate_spectrum - golden_spectrum)))
        if not math.isfinite(error):
            nonfinite += 1
            mismatched.append(pair)
            max_error = float("inf")
            continue
        max_error = max(max_error, error)
        if error > atol:
            mismatched.append(pair)
    if nonfinite:
        return ComparisonResult(
            passed=False,
            max_abs_error=float("inf"),
            reason=(
                "non-finite power transmission in the candidate or golden "
                f"response on {nonfinite} port pair(s)"
            ),
            mismatched_pairs=mismatched,
        )
    if mismatched:
        return ComparisonResult(
            passed=False,
            max_abs_error=max_error,
            reason=(
                f"power transmission deviates from the golden response by up to "
                f"{max_error:.3e} (tolerance {atol:.1e}) on {len(mismatched)} port pair(s)"
            ),
            mismatched_pairs=mismatched,
        )
    return ComparisonResult(passed=True, max_abs_error=max_error)


def _fields(result):
    return (
        result.passed,
        result.max_abs_error,
        result.reason,
        [tuple(pair) for pair in result.mismatched_pairs],
        type(result.max_abs_error),
    )


def _assert_equivalent(candidate, golden, **kwargs):
    with np.errstate(invalid="ignore"):
        expected = _fields(_oracle_compare(candidate, golden, **kwargs))
        got = _fields(compare_responses(candidate, golden, **kwargs))
    assert got == expected
    return got


def _random_smatrix(seed, ports=("I1", "I2", "O1", "O2", "O3"), num_wavelengths=9):
    rng = np.random.default_rng(seed)
    shape = (num_wavelengths, len(ports), len(ports))
    data = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * 0.4
    return SMatrix(np.linspace(1.51, 1.59, num_wavelengths), ports, data)


def _perturbed(smatrix, seed, scale=1e-3):
    rng = np.random.default_rng(seed)
    noise = rng.normal(size=smatrix.data.shape) * scale
    return SMatrix(smatrix.wavelengths, smatrix.ports, smatrix.data + noise)


def _both_forms(smatrix):
    return [smatrix, FrequencyResponse.from_smatrix(smatrix)]


class TestCompareEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_candidates_every_input_form(self, seed):
        golden = _random_smatrix(100)
        for scale in (0.0, 1e-9, 1e-4, 1e-2):
            candidate = _perturbed(golden, seed, scale)
            for cand in _both_forms(candidate):
                for gold in _both_forms(golden):
                    _assert_equivalent(cand, gold)
                    _assert_equivalent(cand, gold, atol=1e-3)

    @pytest.mark.parametrize("seed", range(4))
    def test_candidate_ports_permuted(self, seed):
        golden = _random_smatrix(7)
        order = list(np.random.default_rng(seed).permutation(golden.ports))
        for scale in (0.0, 1e-2):
            candidate = _perturbed(golden, seed, scale).reordered(order)
            for cand in _both_forms(candidate):
                for gold in _both_forms(golden):
                    _assert_equivalent(cand, gold)

    def test_golden_ports_permuted_against_physical_candidate(self, wavelengths):
        smatrix = evaluate_netlist(mzi_ps_golden(delta_length=12.0), wavelengths)
        golden = FrequencyResponse.from_smatrix(smatrix.reordered(("O1", "I1")))
        got = _assert_equivalent(smatrix, golden)
        assert got[0] is True

    def test_missing_pair_in_candidate_response(self):
        golden = FrequencyResponse.from_smatrix(_random_smatrix(3))
        for dropped in (0, 7, len(golden.transmission) - 1):
            transmission = dict(golden.transmission)
            del transmission[list(transmission)[dropped]]
            candidate = FrequencyResponse(golden.wavelengths, golden.ports, transmission)
            got = _assert_equivalent(candidate, golden)
            assert got[0] is False and got[1] == float("inf")

    def test_golden_pair_the_candidate_smatrix_lacks(self):
        smatrix = _random_smatrix(4)
        transmission = dict(FrequencyResponse.from_smatrix(smatrix).transmission)
        transmission[("O1", "X9")] = np.zeros(smatrix.num_wavelengths)
        golden = FrequencyResponse(smatrix.wavelengths, smatrix.ports, transmission)
        for cand in _both_forms(smatrix):
            got = _assert_equivalent(cand, golden)
            assert got[0] is False and got[3] == [("O1", "X9")]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("side", ["candidate", "golden", "both"])
    def test_non_finite_values(self, value, side):
        clean = _random_smatrix(5)
        poisoned_data = clean.data.copy()
        poisoned_data[2, 1, 3] = value
        poisoned_data[:, 4, 0] = complex(value, 0.0)
        poisoned = SMatrix(clean.wavelengths, clean.ports, poisoned_data)
        candidate = poisoned if side in ("candidate", "both") else clean
        golden = poisoned if side in ("golden", "both") else clean
        for cand in _both_forms(candidate):
            for gold in _both_forms(golden):
                got = _assert_equivalent(cand, gold)
                assert got[0] is False and got[1] == float("inf")

    def test_non_finite_with_a_missing_pair(self):
        golden = FrequencyResponse.from_smatrix(_random_smatrix(6))
        transmission = {pair: spectrum.copy() for pair, spectrum in golden.transmission.items()}
        pairs = list(transmission)
        del transmission[pairs[1]]
        transmission[pairs[5]][0] = np.nan
        candidate = FrequencyResponse(golden.wavelengths, golden.ports, transmission)
        _assert_equivalent(candidate, golden)

    def test_error_exactly_at_and_just_above_atol(self):
        golden = _random_smatrix(8)
        candidate = _perturbed(golden, 1, 1e-4)
        error = _oracle_compare(candidate, golden, atol=1.0).max_abs_error
        assert 0.0 < error < 1.0
        for cand in _both_forms(candidate):
            for gold in _both_forms(golden):
                at = _assert_equivalent(cand, gold, atol=error)
                assert at[0] is True and at[1] == error
                above = _assert_equivalent(cand, gold, atol=np.nextafter(error, 0.0))
                assert above[0] is False and above[1] == error

    def test_identical_responses(self, wavelengths):
        smatrix = evaluate_netlist(mzm_golden(), wavelengths)
        for cand in _both_forms(smatrix):
            for gold in _both_forms(smatrix):
                got = _assert_equivalent(cand, gold)
                assert got[0] is True and got[1] == 0.0

    def test_port_and_grid_mismatches(self, wavelengths):
        smatrix = evaluate_netlist(mzi_ps_golden(), wavelengths)
        renamed = smatrix.renamed({"O1": "out"})
        regridded = SMatrix(wavelengths + 1e-3, smatrix.ports, smatrix.data)
        for cand in (*_both_forms(renamed), *_both_forms(regridded)):
            for gold in _both_forms(smatrix):
                _assert_equivalent(cand, gold)


class TestFrequencyResponseStack:
    def test_from_smatrix_matches_per_pair_extraction(self):
        smatrix = _random_smatrix(9)
        response = FrequencyResponse.from_smatrix(smatrix)
        oracle = _oracle_transmission(smatrix)
        assert list(response.transmission) == list(oracle)
        for pair, spectrum in oracle.items():
            assert response.transmission[pair].tobytes() == spectrum.tobytes()

    def test_transmission_values_are_views_of_one_stack(self):
        response = FrequencyResponse.from_smatrix(_random_smatrix(10))
        assert response.power.shape == (25, 9)
        for row, spectrum in zip(response.power, response.transmission.values()):
            assert np.shares_memory(spectrum, response.power)
            assert np.array_equal(spectrum, row)
        assert not response.power.flags.writeable

    def test_dict_constructor(self):
        wavelengths = np.linspace(1.5, 1.6, 4)
        transmission = {
            ("O1", "I1"): [0.5, 0.5, 0.25, 0.0],
            ("I1", "O1"): np.array([0.1, 0.2, 0.3, 0.4]),
        }
        response = FrequencyResponse(wavelengths, ("I1", "O1"), transmission)
        assert list(response.transmission) == [("O1", "I1"), ("I1", "O1")]
        assert response.transmission[("O1", "I1")].tolist() == [0.5, 0.5, 0.25, 0.0]
        assert response.power.shape == (2, 4)
        empty = FrequencyResponse(wavelengths, (), {})
        assert empty.power.shape == (0, 4) and empty.transmission == {}

    def test_to_dict_round_trip_is_byte_identical(self, wavelengths):
        for smatrix in (_random_smatrix(11), evaluate_netlist(mzi_ps_golden(), wavelengths)):
            response = FrequencyResponse.from_smatrix(smatrix)
            text = json.dumps(response.to_dict())
            rebuilt = FrequencyResponse.from_dict(json.loads(text))
            assert json.dumps(rebuilt.to_dict()) == text
            oracle = {
                "wavelengths": smatrix.wavelengths.tolist(),
                "ports": list(smatrix.ports),
                "transmission": {
                    f"{po}->{pi}": spectrum.tolist()
                    for (po, pi), spectrum in _oracle_transmission(smatrix).items()
                },
            }
            assert text == json.dumps(oracle)
