"""Frequency-response containers and golden-vs-candidate comparison.

The functional evaluation of the benchmark (Section III-C of the paper)
"simply compare[s] the simulation results between generated code completions
and golden reference solutions".  We compare the power transmission ``|S|^2``
between every pair of external ports over the full wavelength grid; the port
*names* must also match, since the problem descriptions specify them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

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
        Mapping ``(output_port, input_port) -> |S|^2`` spectrum.  The values
        are read-only row views of :attr:`power`.
    power:
        The spectra stacked once into a read-only ``(pairs, W)`` array, in
        ``transmission`` order.  Built by the constructor from whatever
        mapping it is given.
    """

    wavelengths: np.ndarray
    ports: Tuple[str, ...]
    transmission: Mapping[Tuple[str, str], np.ndarray]
    power: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.transmission:
            power = np.array(list(self.transmission.values()), dtype=float)
        else:
            power = np.zeros((0, np.size(self.wavelengths)))
        power.flags.writeable = False
        object.__setattr__(self, "power", power)
        object.__setattr__(self, "transmission", dict(zip(self.transmission, power)))

    @classmethod
    def from_smatrix(cls, smatrix: SMatrix) -> "FrequencyResponse":
        """Extract the power response from a simulated S-matrix.

        Pairs are ordered output-major: ``(ports[i], ports[j])`` is row
        ``i * P + j``, the order of ``SMatrix.data`` flattened per wavelength.
        """
        size = len(smatrix.ports)
        power = np.abs(smatrix.data.reshape(smatrix.data.shape[0], size * size))
        np.square(power, out=power)
        pairs = [(po, pi) for po in smatrix.ports for pi in smatrix.ports]
        return cls(
            wavelengths=np.asarray(smatrix.wavelengths, dtype=float),
            ports=tuple(smatrix.ports),
            transmission=dict(zip(pairs, power.T)),
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


def _power_in_order(
    candidate: FrequencyResponse | SMatrix, pairs: Sequence[Tuple[str, str]]
) -> Tuple[np.ndarray, np.ndarray]:
    """Gather the candidate's ``|S|^2`` for ``pairs`` with one fancy index.

    Returns a fresh ``(W, found)`` array with the power of the pairs the
    candidate has, in ``pairs`` order, and the boolean mask of which pairs
    it has.
    """
    if isinstance(candidate, SMatrix):
        size = len(candidate.ports)
        index = {port: k for k, port in enumerate(candidate.ports)}
        rows = np.array(
            [
                index[out_port] * size + index[in_port]
                if out_port in index and in_port in index
                else -1
                for out_port, in_port in pairs
            ],
            dtype=np.intp,
        )
        found = rows >= 0
        power = np.abs(candidate.data.reshape(candidate.data.shape[0], size * size))
        np.square(power, out=power)
        return power[:, rows[found]], found
    index = {pair: k for k, pair in enumerate(candidate.transmission)}
    rows = np.array([index.get(pair, -1) for pair in pairs], dtype=np.intp)
    found = rows >= 0
    return candidate.power[rows[found]].T, found


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
    ``inf``).  Every golden pair is checked in one vectorised pass over the
    golden :attr:`FrequencyResponse.power` stack; mismatched pairs are listed
    in golden order.
    """
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

    pairs = tuple(golden.transmission)
    candidate_power, found = _power_in_order(candidate, pairs)
    golden_power = golden.power if found.all() else golden.power[found]
    # In place: the gathered array is this call's own temporary.
    np.subtract(candidate_power, golden_power.T, out=candidate_power)
    np.abs(candidate_power, out=candidate_power)
    errors = np.full(len(pairs), np.inf)
    errors[found] = candidate_power.max(axis=0)
    # A NaN sample on either side makes the error NaN, which passes
    # ``error > atol`` and vanishes in ``max``: fail the pair outright.
    nonfinite = found & ~np.isfinite(errors)
    bad = ~found | nonfinite | (errors > atol)
    mismatched = [pairs[k] for k in np.flatnonzero(bad)]
    if nonfinite.any():
        return ComparisonResult(
            passed=False,
            max_abs_error=float("inf"),
            reason=(
                "non-finite power transmission in the candidate or golden "
                f"response on {int(nonfinite.sum())} port pair(s)"
            ),
            mismatched_pairs=mismatched,
        )
    max_error = float(errors.max()) if pairs else 0.0
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
