"""Host-speed probes: fixed pieces of Python or numpy work, timed.

The benchmark's host is shared, and its speed drifts by a third or more over
minutes, for every program alike.  A run times this probe between its units
of work (never while the program runs) and reports its times scaled to a
host on which one probe round takes ``REFERENCE_ROUND_S``::

    reference seconds = wall seconds * REFERENCE_ROUND_S / probe round seconds

The probe runs only the benchmark's own code, so a change to the program
cannot move it: a faster program still shows in full, while a slow host
phase shows in the probe and in the program together and cancels.  A slow
phase slows interpreter-bound and array-bound code by different amounts,
so there are two probes: ``python`` for the interpreter-bound workloads and
``numpy`` (stacks of small complex matrices) for the array-bound one.
"""

from __future__ import annotations

import json
import statistics
import time
from typing import List

import numpy as np

#: Seconds one round of each probe takes on the reference host (the median
#: on a 2-vCPU x86-64 VM in a fast phase); the scale of the reported times.
REFERENCE_ROUND_S = {"python": 0.035, "numpy": 0.035}

#: 4096 fixed 4 x 4 unitary matrices: their products keep unit-size
#: entries, so no round slows down on denormal numbers.
_UNITARIES = np.linalg.qr(np.exp(1j * np.linspace(0.0, 3.0, 4096 * 16)).reshape(4096, 4, 4))[0]


def _python_round() -> int:
    """An interpreter loop, then dict and JSON work."""
    total = 0
    for i in range(100_000):
        total += i * i % 7
    table = {str(i): i for i in range(25_000)}
    return total + len(json.dumps(table))


def _numpy_round() -> float:
    """Stacked small complex matrix products and elementwise phases."""
    matrices = _UNITARIES
    for _ in range(4):
        matrices = np.exp(1j * np.angle(matrices @ _UNITARIES)) * 0.5
    return float(np.abs(matrices).sum())


_ROUNDS = {"python": _python_round, "numpy": _numpy_round}


def probe(rounds: int, kind: str = "python") -> List[float]:
    """Wall seconds of ``rounds`` rounds of the ``kind`` probe."""
    work = _ROUNDS[kind]
    times = []
    for _ in range(rounds):
        began = time.perf_counter()
        work()
        times.append(time.perf_counter() - began)
    return times


def scale(round_times: List[float], kind: str = "python") -> float:
    """Factor from wall seconds to reference seconds (median of the rounds)."""
    return REFERENCE_ROUND_S[kind] / statistics.median(round_times)
