"""Frequency-response containers and golden-vs-candidate comparison.

The functional evaluation of the benchmark (Section III-C of the paper)
"simply compare[s] the simulation results between generated code completions
and golden reference solutions".  We compare the power transmission ``|S|^2``
between every pair of external ports over the full wavelength grid; the port
*names* must also match, since the problem descriptions specify them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..constants import DEFAULT_FUNCTIONAL_ATOL
from .sparams import SMatrix

__all__ = ["FrequencyResponse", "ComparisonResult", "compare_responses"]


@dataclass(frozen=True)
class FrequencyResponse:
    """A serialisable snapshot of a circuit's power frequency response.

    Attributes
    ----------
    wavelengths:
        Wavelength grid in microns.
    ports:
        External port names of the circuit.
    transmission:
        Mapping ``(output_port, input_port) -> |S|^2`` spectrum.
    """

    wavelengths: np.ndarray
    ports: Tuple[str, ...]
    transmission: Mapping[Tuple[str, str], np.ndarray]

    @classmethod
    def from_smatrix(cls, smatrix: SMatrix) -> "FrequencyResponse":
        """Extract the power response from a simulated S-matrix."""
        transmission = {
            (po, pi): np.abs(smatrix.s(po, pi)) ** 2
            for po in smatrix.ports
            for pi in smatrix.ports
        }
        return cls(
            wavelengths=np.asarray(smatrix.wavelengths, dtype=float),
            ports=tuple(smatrix.ports),
            transmission=transmission,
        )

    def to_dict(self) -> Dict[str, object]:
        """Serialise to plain Python containers (JSON friendly)."""
        return {
            "wavelengths": self.wavelengths.tolist(),
            "ports": list(self.ports),
            "transmission": {
                f"{po}->{pi}": spectrum.tolist()
                for (po, pi), spectrum in self.transmission.items()
            },
        }

    @classmethod
    def from_dict(cls, obj: Mapping[str, object]) -> "FrequencyResponse":
        """Inverse of :meth:`to_dict`."""
        transmission: Dict[Tuple[str, str], np.ndarray] = {}
        for key, spectrum in dict(obj["transmission"]).items():  # type: ignore[index]
            out_port, in_port = str(key).split("->")
            transmission[(out_port, in_port)] = np.asarray(spectrum, dtype=float)
        return cls(
            wavelengths=np.asarray(obj["wavelengths"], dtype=float),
            ports=tuple(obj["ports"]),  # type: ignore[arg-type]
            transmission=transmission,
        )


@dataclass
class ComparisonResult:
    """Outcome of comparing a candidate response against the golden response."""

    passed: bool
    max_abs_error: float
    reason: Optional[str] = None
    mismatched_pairs: List[Tuple[str, str]] = field(default_factory=list)

    def __bool__(self) -> bool:  # pragma: no cover - trivial
        return self.passed


def compare_responses(
    candidate: FrequencyResponse | SMatrix,
    golden: FrequencyResponse | SMatrix,
    *,
    atol: float = DEFAULT_FUNCTIONAL_ATOL,
) -> ComparisonResult:
    """Compare a candidate frequency response against the golden one.

    The comparison fails when the external port names differ, the wavelength
    grids differ, any ``|S|^2`` spectrum deviates by more than ``atol``, or
    either response holds a non-finite value (``max_abs_error`` is then
    ``inf``).
    """
    if isinstance(candidate, SMatrix):
        candidate = FrequencyResponse.from_smatrix(candidate)
    if isinstance(golden, SMatrix):
        golden = FrequencyResponse.from_smatrix(golden)

    if set(candidate.ports) != set(golden.ports):
        missing = sorted(set(golden.ports) - set(candidate.ports))
        extra = sorted(set(candidate.ports) - set(golden.ports))
        return ComparisonResult(
            passed=False,
            max_abs_error=float("inf"),
            reason=(
                "external port names differ from the specification"
                + (f"; missing {missing}" if missing else "")
                + (f"; unexpected {extra}" if extra else "")
            ),
        )

    if candidate.wavelengths.shape != golden.wavelengths.shape or not np.allclose(
        candidate.wavelengths, golden.wavelengths
    ):
        return ComparisonResult(
            passed=False,
            max_abs_error=float("inf"),
            reason="wavelength grids of candidate and golden responses differ",
        )

    max_error = 0.0
    mismatched: List[Tuple[str, str]] = []
    nonfinite = 0
    for pair, golden_spectrum in golden.transmission.items():
        candidate_spectrum = candidate.transmission.get(pair)
        if candidate_spectrum is None:
            mismatched.append(pair)
            max_error = float("inf")
            continue
        error = float(np.max(np.abs(candidate_spectrum - golden_spectrum)))
        if not math.isfinite(error):
            # A NaN sample on either side makes the error NaN, which passes
            # ``error > atol`` and vanishes in ``max``: fail the pair outright.
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
