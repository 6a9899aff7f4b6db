"""Workload inputs generated from the benchmark seed, and output digests.

Every input of a run is a pure function of ``--seed``: the seed selects one
of ``REFERENCE_SEEDS`` recorded input sets (``seed % REFERENCE_SEEDS``), so
each run's outputs can be checked against ``reference.json``, which
``record.py`` computes without the service or tracing.

Only knob-free entry points are used: ``SweepConfig`` sample/grid/seed/problem
fields, ``monte_carlo_yield`` with a default ``ExecutionEngine()``, and
``JobSpec`` fields that describe what is evaluated (never how).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Tuple

#: Number of distinct recorded input sets; ``--seed`` is reduced modulo this.
REFERENCE_SEEDS = 16


@dataclass(frozen=True)
class Sizes:
    """Input sizes of the three workloads (``FULL`` is the benchmark)."""

    sweep_samples: int = 5
    sweep_wavelengths: int = 161
    #: ``None`` sweeps every core problem (the paper's Table III/IV sweep).
    sweep_problems: int | None = None
    mc_draws: int = 256
    mc_wavelengths: int = 401
    #: A job evaluates every core problem (``job_problems=None``) with one
    #: sample, so all jobs cost about the same whatever the seed picks.
    job_samples: int = 1
    job_wavelengths: int = 161
    job_problems: int | None = None
    #: Seconds between submits: 2.5 jobs/s, 100 jobs in a 40 s run.  A cold
    #: job takes about half the period, so jobs seldom overlap: a job's
    #: latency is its own run, not its place in a queue of jobs whose
    #: contention for the interpreter varies from run to run.
    job_period_s: float = 0.4
    #: Every ``repeat_every``-th job repeats an earlier spec.
    repeat_every: int = 4
    #: A repeat only targets a fresh spec submitted at least this long ago,
    #: so its earlier job has finished and the repeat runs warm.
    repeat_age_s: float = 4.0
    #: Every ``dedupe_every``-th repeat is submitted with ``dedupe``.
    dedupe_every: int = 8
    #: Fresh job specs recorded per input set (bounds the run length).
    recorded_fresh_jobs: int = 80


FULL = Sizes()
TINY = Sizes(
    sweep_samples=1,
    sweep_wavelengths=11,
    sweep_problems=2,
    mc_draws=8,
    mc_wavelengths=21,
    job_samples=1,
    job_wavelengths=11,
    job_problems=3,
    job_period_s=0.125,
    repeat_age_s=1.0,
    dedupe_every=2,
    recorded_fresh_jobs=24,
)
SIZES = {"full": FULL, "tiny": TINY}


def input_seed(seed: int) -> int:
    """The recorded input set a ``--seed`` selects."""
    return int(seed) % REFERENCE_SEEDS


def digest(text: str) -> str:
    """Content digest of one canonical document."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical_json(payload: object) -> str:
    """Sorted-key, compact JSON (the store's canonical report form)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# core-sweep
# ----------------------------------------------------------------------
def sweep_config(seed: int, sizes: Sizes):
    """The ``SweepConfig`` of one core sweep."""
    from repro.bench.suite import all_problems
    from repro.harness.runner import SweepConfig

    problems = None
    if sizes.sweep_problems is not None:
        problems = tuple(p.name for p in all_problems()[: sizes.sweep_problems])
    return SweepConfig(
        samples_per_problem=sizes.sweep_samples,
        num_wavelengths=sizes.sweep_wavelengths,
        base_seed=input_seed(seed),
        problems=problems,
    )


def sweep_digest(result) -> str:
    """Digest of a sweep's canonical reports."""
    return digest(canonical_json(result.to_dict()))


# ----------------------------------------------------------------------
# mc-yield
# ----------------------------------------------------------------------
def yield_designs():
    """``(name, nominal netlist, YieldSpec)`` of the three nominal designs."""
    from repro.bench.problems import variability as v

    return [
        ("interferometer_nominal", v.interferometer_nominal(),
         v.YieldSpec("O1", "I1", min_transmission=0.538, metric="mean")),
        ("ring_filter_nominal", v.ring_filter_nominal(),
         v.YieldSpec("O2", "I1", min_transmission=0.95, metric="max")),
        ("wdm_link_nominal", v.wdm_link_nominal(),
         v.YieldSpec("O1", "I1", min_transmission=0.02, metric="max")),
    ]


def yield_seed(seed: int, design_index: int) -> int:
    """Draw seed of one design's yield analysis."""
    return 1000 * input_seed(seed) + design_index


# ----------------------------------------------------------------------
# service-jobs
# ----------------------------------------------------------------------
def job_problems(sizes: Sizes) -> Tuple[str, ...]:
    """The core problems every job evaluates."""
    from repro.bench.suite import all_problems

    return tuple(p.name for p in all_problems()[: sizes.job_problems])


def fresh_job(seed: int, index: int, sizes: Sizes) -> Dict[str, object]:
    """The ``index``-th fresh evaluate job of an input set (plain fields).

    Every job evaluates the same problems; consecutive fresh jobs step
    through the profiles, and the restriction setting flips once per pass
    through them, so each stretch of a run has the same mix.
    """
    from repro.llm.profiles import profile_names

    profiles = profile_names()
    s = input_seed(seed)
    return {
        "model": profiles[index % len(profiles)],
        "with_restrictions": bool((index // len(profiles)) % 2),
        "problems": job_problems(sizes),
        "base_seed": 100_000 + 1000 * s + index,
        "samples": sizes.job_samples,
        "wavelengths": sizes.job_wavelengths,
    }


def job_spec(job: Dict[str, object]):
    """The service ``JobSpec`` of one job."""
    from repro.service.spec import JobSpec

    return JobSpec(
        kind="evaluate",
        models=(job["model"],),
        restrictions=(job["with_restrictions"],),
        samples_per_problem=job["samples"],
        num_wavelengths=job["wavelengths"],
        base_seed=job["base_seed"],
        problems=job["problems"],
    )


@dataclass(frozen=True)
class Submit:
    """One scheduled submit of the open-loop generator."""

    due_s: float  # offset from the schedule start
    fresh_index: int  # which fresh spec the job evaluates
    repeat: bool
    dedupe: bool


def job_schedule(seconds: float, sizes: Sizes) -> List[Submit]:
    """One submit every ``job_period_s`` for ``seconds``.

    Every ``repeat_every``-th job repeats the fresh specs in submission
    order, each once, as soon as the next one was submitted at least
    ``repeat_age_s`` earlier (a fresh spec until then); the others are fresh
    specs.  So about three jobs in four run cold, and the median and p90
    job both lie among them rather than between cold and warm jobs.  Every
    ``dedupe_every``-th repeat asks for ``dedupe``.  Repeating a
    spec only once also dedupes it at most once: the service names a deduped
    job after the stored run, so a second dedupe would reuse the job id.
    The schedule is the same for every seed; the seed picks the specs.
    """
    schedule: List[Submit] = []
    fresh_due: List[float] = []
    repeats = 0
    while len(schedule) * sizes.job_period_s < seconds:
        due = len(schedule) * sizes.job_period_s
        turn = len(schedule) % sizes.repeat_every == sizes.repeat_every - 1
        if turn and fresh_due[repeats] <= due - sizes.repeat_age_s:
            repeats += 1
            schedule.append(Submit(due, repeats - 1, True, repeats % sizes.dedupe_every == 0))
        else:
            schedule.append(Submit(due, len(fresh_due), False, False))
            fresh_due.append(due)
    return schedule


def report_digests(result: Dict[str, object]) -> List[str]:
    """Digests of the canonical reports of one ``result`` response."""
    reports = result["reports"]
    return [digest(canonical_json(reports[key])) for key in sorted(reports)]
