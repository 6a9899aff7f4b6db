"""Experiment sweeps reproducing the paper's evaluation (Tables III and IV).

The paper evaluates five LLMs with and without the Table II restrictions and
with 0, 1 and 3 error-feedback iterations, reporting syntax and functionality
Pass@1 and Pass@5.  One run with ``max_feedback_iterations = 3`` contains all
the information needed to derive the 0/1/3-feedback columns, so the sweep runs
each (model, restrictions) pair exactly once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..bench.golden import GoldenStore
from ..bench.packs import CORE_PACK_NAME, PackParams, get_pack
from ..bench.problem import Problem
from ..bench.suite import all_problems
from ..engine.engine import EXECUTION_MODES, EngineConfig, ExecutionEngine
from ..engine.procpool import ProcessScheduler, UnitFailure, WorkerSpec, aggregate_engine_stats
from ..evalkit.evaluator import EvaluationConfig, Evaluator
from ..evalkit.outcome import AttemptRecord, EvalReport, SampleResult
from ..faults import RetryPolicy, fault_point, fault_stats
from .journal import SweepJournal, sweep_fingerprint, unit_key
from ..llm.base import LLMClient
from ..llm.profiles import DEFAULT_PROFILES, DesignerProfile
from ..llm.simulated import SimulatedDesigner
from ..netlist.errors import ErrorCategory
from ..prompts.system_prompt import PromptConfig

__all__ = ["SweepConfig", "SweepResult", "run_model", "run_sweep"]

#: Feedback-iteration counts reported by the paper's tables.
FEEDBACK_COLUMNS: Tuple[int, ...] = (0, 1, 3)

#: Pass@k values reported by the paper's tables.
PASS_AT: Tuple[int, ...] = (1, 5)


@dataclass(frozen=True)
class SweepConfig:
    """Configuration of a full table sweep.

    ``pack`` selects the problem pack the sweep enumerates (default: the
    paper's ``core`` suite) and ``pack_params`` overrides the pack's
    generation parameters (parametric packs such as ``wdm-links``).

    ``workers`` and ``cache_dir`` configure the execution engine: the sweep's
    nested loops are flattened into independent ``(client, restrictions,
    problem, sample)`` work units and run on a thread pool of ``workers``
    threads (``1`` = sequential, ``0`` = one per core), with simulations
    served from a content-addressed cache optionally persisted under
    ``cache_dir``.  Reports are byte-identical for any worker count.

    ``plan_cache_entries`` (capacity of the solver's topology-keyed
    compiled-plan cache -- structurally identical candidate netlists across
    samples and workers compile once), ``wavelength_chunk`` (bounds the solver's peak per-evaluation workspace
    on large grids) and ``batch_size`` (when > 1, trajectories advance in
    lockstep and each feedback iteration's structure-sharing candidate
    netlists -- samples that differ only in instance settings -- are fused
    into shared batched executor passes of at most ``batch_size`` samples)
    change sweep runtime but never the reported numbers.

    ``execution_mode`` selects the parallel tier: ``"thread"`` (default)
    runs work units on the engine's thread pool; ``"process"`` shards them
    across ``processes`` worker processes (``0`` = one per core), each of
    which rebuilds its engine and clients from a picklable spec and shares
    the on-disk simulation cache and compiled-plan spill through
    ``cache_dir``.  Results merge in unit order, so process-sharded sweeps
    are byte-identical to sequential ones.  Process mode requires
    spec-constructible clients (the bundled :class:`SimulatedDesigner`);
    live API clients hold sockets that cannot cross a process boundary.

    Robustness knobs: ``retry_attempts`` / ``retry_backoff`` budget the
    process tier's per-unit crash/hang recovery (isolated re-runs on fresh
    pools with exponential backoff), ``unit_timeout`` arms the hung-worker
    watchdog, and ``journal_dir`` enables incremental checkpointing -- every
    completed trajectory is appended to a line-JSON journal keyed by the
    sweep's semantic fingerprint, so a killed run restarted with ``resume``
    recomputes only the missing samples and reports byte-identically (see
    :mod:`repro.harness.journal`).  None of these knobs changes reported
    numbers.
    """

    samples_per_problem: int = 5
    max_feedback_iterations: int = 3
    num_wavelengths: int = 41
    base_seed: int = 0
    problems: Optional[Tuple[str, ...]] = None
    workers: int = 1
    cache_dir: Optional[str] = None
    pack: str = CORE_PACK_NAME
    pack_params: Optional[PackParams] = None
    plan_cache_entries: int = 128
    wavelength_chunk: Optional[int] = None
    batch_size: int = 1
    execution_mode: str = "thread"
    processes: int = 0
    retry_attempts: int = 2
    retry_backoff: float = 0.1
    unit_timeout: Optional[float] = None
    journal_dir: Optional[str] = None
    resume: bool = False

    def __post_init__(self) -> None:
        if self.execution_mode not in EXECUTION_MODES:
            raise ValueError(
                f"unknown execution_mode {self.execution_mode!r}; "
                f"choose one of {list(EXECUTION_MODES)}"
            )
        if self.retry_attempts < 1:
            raise ValueError("retry_attempts must be >= 1")

    def unit_retry_policy(self) -> RetryPolicy:
        """The process tier's per-unit retry budget these knobs describe."""
        return RetryPolicy(attempts=self.retry_attempts, base_delay=self.retry_backoff)

    def engine_config(self) -> EngineConfig:
        """Build the corresponding :class:`EngineConfig`."""
        return EngineConfig(
            workers=self.workers,
            cache_dir=self.cache_dir,
            plan_cache_entries=self.plan_cache_entries,
            wavelength_chunk=self.wavelength_chunk,
            batch_size=self.batch_size,
            execution_mode=self.execution_mode,
            processes=self.processes,
        )

    def evaluation_config(self, *, include_restrictions: bool) -> EvaluationConfig:
        """Build the corresponding :class:`EvaluationConfig`."""
        return EvaluationConfig(
            samples_per_problem=self.samples_per_problem,
            max_feedback_iterations=self.max_feedback_iterations,
            num_wavelengths=self.num_wavelengths,
            include_restrictions=include_restrictions,
            base_seed=self.base_seed,
        )

    def select_problems(self) -> List[Problem]:
        """Resolve the problem subset of the configured pack.

        Defaults to every problem of ``pack`` (for ``core``, the full
        24-problem suite); ``problems`` narrows the selection by name.
        """
        problems = list(all_problems(self.pack, self.pack_params))
        if self.problems is None:
            return problems
        wanted = set(self.problems)
        selected = [p for p in problems if p.name in wanted]
        missing = wanted - {p.name for p in selected}
        if missing:
            raise KeyError(f"unknown problems requested: {sorted(missing)}")
        return selected

    def prompt_config(self, *, include_restrictions: bool) -> PromptConfig:
        """Build the prompt configuration, with the pack note for non-core packs."""
        pack = get_pack(self.pack)
        return PromptConfig(
            include_restrictions=include_restrictions,
            pack_note=pack.prompt_note() if pack.name != CORE_PACK_NAME else None,
        )


@dataclass
class SweepResult:
    """Reports of a sweep, keyed by (model name, with_restrictions).

    ``engine_stats`` is populated by process-mode sweeps: the per-worker
    ``ExecutionEngine.stats()`` snapshots merged with
    :func:`repro.engine.procpool.aggregate_engine_stats` (counters summed,
    rates recomputed).  Thread-mode sweeps leave it ``None`` -- the caller
    holds the live engine and can ask it directly.
    """

    config: SweepConfig
    reports: Dict[Tuple[str, bool], EvalReport] = field(default_factory=dict)
    engine_stats: Optional[Dict[str, object]] = None

    def report(self, model: str, *, with_restrictions: bool) -> EvalReport:
        """Look up one report."""
        return self.reports[(model, with_restrictions)]

    def models(self) -> List[str]:
        """Model names present in the sweep, in insertion order."""
        seen: List[str] = []
        for model, _ in self.reports:
            if model not in seen:
                seen.append(model)
        return seen

    def packs(self) -> List[str]:
        """Problem packs present in the sweep's reports, in insertion order."""
        seen: List[str] = []
        for report in self.reports.values():
            if report.pack not in seen:
                seen.append(report.pack)
        return seen

    def to_dict(self) -> Dict[str, object]:
        """Serialise every report (used for persistence)."""
        return {
            f"{model}|{'with' if restrictions else 'without'}_restrictions": report.to_dict()
            for (model, restrictions), report in self.reports.items()
        }

    def save(self, path: Path | str) -> None:
        """Write the sweep results to a JSON file."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2)

    @classmethod
    def load(cls, path: Path | str, config: Optional[SweepConfig] = None) -> "SweepResult":
        """Reload a sweep previously written by :meth:`save`.

        The reloaded result supports every aggregation (Pass@k tables, error
        breakdowns) without re-running the evaluation.
        """
        path = Path(path)
        with path.open("r", encoding="utf-8") as handle:
            payload = json.load(handle)
        result = cls(config=config if config is not None else SweepConfig())
        for key, report_payload in payload.items():
            model, _, suffix = key.rpartition("|")
            with_restrictions = suffix == "with_restrictions"
            report = EvalReport.from_dict(report_payload)
            result.reports[(model or report.model, with_restrictions)] = report
        return result


# ----------------------------------------------------------------------
# Process-sharded execution
#
# The parent never ships live objects to workers: each worker receives a
# picklable payload (the SweepConfig, designer profiles, seeds) and rebuilds
# its own engine, golden store, evaluators and clients once per process.
# Work units are index tuples into the worker-rebuilt structures, and the
# scheduler merges results back in unit order, so process-sharded sweeps are
# byte-identical to sequential ones.
# ----------------------------------------------------------------------
def _client_specs(clients: Sequence[LLMClient]) -> List[Tuple[DesignerProfile, int]]:
    """Picklable rebuild specs of the sweep's clients (process mode only)."""
    specs: List[Tuple[DesignerProfile, int]] = []
    for client in clients:
        if not isinstance(client, SimulatedDesigner):
            raise ValueError(
                "execution_mode='process' requires spec-constructible clients "
                f"(the bundled SimulatedDesigner); got {type(client).__name__}. "
                "Run live API clients in thread mode."
            )
        specs.append((client.profile, client.base_seed))
    return specs


def _build_sweep_worker(payload: Dict[str, object]) -> Dict[str, object]:
    """Worker initializer: rebuild one process's full evaluation context.

    Runs once per worker process (resolved by dotted reference from
    :class:`~repro.engine.procpool.WorkerSpec`).  The worker's engine is
    single-threaded thread-mode -- parallelism lives at the process tier --
    but shares the parent's ``cache_dir`` (simulation ``.npz`` entries and
    the compiled-plan spill), so workers warm each other across the sweep.
    """
    config: SweepConfig = payload["config"]  # type: ignore[assignment]
    engine = ExecutionEngine(
        replace(config.engine_config(), execution_mode="thread", workers=1, processes=0)
    )
    golden_store = GoldenStore(
        num_wavelengths=config.num_wavelengths,
        engine=engine,
        pack=config.pack,
        pack_params=config.pack_params,
    )
    restriction_settings: Tuple[bool, ...] = tuple(payload["restrictions"])  # type: ignore[arg-type]
    return {
        "config": config,
        "engine": engine,
        "problems": config.select_problems(),
        "clients": [
            SimulatedDesigner(profile, base_seed=seed)
            for profile, seed in payload["clients"]  # type: ignore[union-attr]
        ],
        "evaluators": {
            include_restrictions: Evaluator(
                config.evaluation_config(include_restrictions=include_restrictions),
                golden_store=golden_store,
                engine=engine,
            )
            for include_restrictions in restriction_settings
        },
        "prompt_configs": {
            include_restrictions: config.prompt_config(
                include_restrictions=include_restrictions
            )
            for include_restrictions in restriction_settings
        },
    }


def _run_sweep_unit(context: Dict[str, object], unit: Tuple[bool, int, int, int]):
    """Worker runner: one (restrictions, client, problem, sample) trajectory."""
    include_restrictions, client_index, problem_index, sample_index = unit
    return context["evaluators"][include_restrictions].run_sample(  # type: ignore[index]
        context["clients"][client_index],  # type: ignore[index]
        context["problems"][problem_index],  # type: ignore[index]
        sample_index,
        prompt_config=context["prompt_configs"][include_restrictions],  # type: ignore[index]
    )


def _run_sweep_shard(context: Dict[str, object], units: List[Tuple[bool, int, int, int]]):
    """Worker shard runner for ``batch_size > 1``: fuse the shard's units.

    Contiguous runs of the shard sharing one restriction setting advance in
    lockstep through ``run_samples_batched``, preserving the batch-fusion
    wins of PR 5 inside each shard.  Each trajectory is a pure function of
    its own history, so any sharding yields the same per-unit results.
    """
    results = []
    lo = 0
    while lo < len(units):
        include_restrictions = units[lo][0]
        hi = lo
        while hi < len(units) and units[hi][0] == include_restrictions:
            hi += 1
        results.extend(
            context["evaluators"][include_restrictions].run_samples_batched(  # type: ignore[index]
                [
                    (
                        context["clients"][client_index],  # type: ignore[index]
                        context["problems"][problem_index],  # type: ignore[index]
                        sample_index,
                    )
                    for _, client_index, problem_index, sample_index in units[lo:hi]
                ],
                prompt_config=context["prompt_configs"][include_restrictions],  # type: ignore[index]
            )
        )
        lo = hi
    return results


def _sweep_worker_stats(context: Dict[str, object]) -> Dict[str, object]:
    """Worker stats snapshot, merged in the parent across all workers."""
    return context["engine"].stats()  # type: ignore[union-attr]


def _crashed_sample(problem_name: str, sample_index: int, failure: UnitFailure) -> SampleResult:
    """Synthesize the failure record of a unit whose worker died or raised."""
    detail = (
        "worker process crashed while evaluating this unit"
        if failure.crashed
        else f"worker failed to evaluate this unit: {failure.message}"
    )
    sample = SampleResult(problem=problem_name, sample_index=sample_index)
    sample.attempts.append(
        AttemptRecord(
            iteration=0,
            syntax_ok=False,
            functional_ok=False,
            error_category=ErrorCategory.OTHER_SYNTAX,
            error_detail=detail,
        )
    )
    return sample


def _open_journal(
    config: SweepConfig,
    model_names: Sequence[str],
    restriction_settings: Sequence[bool],
) -> Tuple[Optional[SweepJournal], Dict[Tuple[bool, str, str, int], SampleResult]]:
    """The sweep's journal and its already-completed trajectories.

    ``(None, {})`` when journalling is off.  Without ``resume`` an existing
    journal file for the same fingerprint is discarded first, so the fresh
    run's checkpoint history starts clean.
    """
    if config.journal_dir is None:
        return None, {}
    fingerprint = sweep_fingerprint(config, tuple(model_names), tuple(restriction_settings))
    journal = SweepJournal(config.journal_dir, fingerprint)
    if config.resume:
        return journal, journal.load()
    journal.discard()
    return journal, {}


def _map_units_process(
    config: SweepConfig,
    client_specs: List[Tuple[DesignerProfile, int]],
    restriction_settings: Tuple[bool, ...],
    units: List[Tuple[bool, int, int, int]],
    problems: List[Problem],
    model_names: Optional[Sequence[str]] = None,
    journal: Optional[SweepJournal] = None,
    completed: Optional[Dict[Tuple[bool, str, str, int], SampleResult]] = None,
) -> Tuple[List[SampleResult], Dict[str, object]]:
    """Run unit specs on a process pool; returns ordered samples and stats.

    With a journal, units already completed by a prior run are served from
    ``completed`` without touching the pool, and each freshly finished unit
    is checkpointed the moment its shard result lands in the parent.
    """
    spec = WorkerSpec(
        builder_ref="repro.harness.runner:_build_sweep_worker",
        payload={
            "config": config,
            "clients": client_specs,
            "restrictions": restriction_settings,
        },
    )
    scheduler = ProcessScheduler(
        spec,
        processes=config.processes,
        retry_policy=config.unit_retry_policy(),
        unit_timeout=config.unit_timeout,
    )
    completed = completed or {}
    keys = [
        unit_key(
            unit[0],
            model_names[unit[1]] if model_names is not None else str(unit[1]),
            problems[unit[2]].name,
            unit[3],
        )
        for unit in units
    ]
    pending = [index for index, key in enumerate(keys) if key not in completed]

    def on_result(position: int, outcome: object) -> None:
        key = keys[pending[position]]
        fault_point("sweep.unit", key="|".join(map(str, key)))
        if journal is not None and isinstance(outcome, SampleResult):
            journal.record(key, outcome)

    per_task = config.batch_size <= 1
    raw, stats_list = scheduler.map(
        "repro.harness.runner:_run_sweep_unit"
        if per_task
        else "repro.harness.runner:_run_sweep_shard",
        [units[index] for index in pending],
        per_task=per_task,
        stats_ref="repro.harness.runner:_sweep_worker_stats",
        on_result=on_result if journal is not None else None,
    )
    samples: List[Optional[SampleResult]] = [completed.get(key) for key in keys]
    for index, outcome in zip(pending, raw):
        if isinstance(outcome, UnitFailure):
            samples[index] = _crashed_sample(problems[units[index][2]].name, units[index][3], outcome)
        else:
            samples[index] = outcome
    engine_stats = aggregate_engine_stats(stats_list)
    engine_stats["procpool"] = dict(scheduler.counters)
    parent_faults = fault_stats()
    if parent_faults:
        engine_stats["parent_faults"] = parent_faults
    assert all(sample is not None for sample in samples)
    return samples, engine_stats  # type: ignore[return-value]


def run_model(
    client: LLMClient,
    *,
    include_restrictions: bool,
    config: Optional[SweepConfig] = None,
    golden_store: Optional[GoldenStore] = None,
    engine: Optional[ExecutionEngine] = None,
) -> EvalReport:
    """Evaluate one client over the suite under one prompt configuration.

    With ``config.execution_mode == "process"`` (and no live ``engine`` /
    ``golden_store``, which cannot cross process boundaries) the problem x
    sample units are sharded across worker processes; the report is
    byte-identical to the thread-mode run.
    """
    config = config if config is not None else SweepConfig()
    model = getattr(client, "name", type(client).__name__)
    if config.execution_mode == "process" and engine is None and golden_store is None:
        client_specs = _client_specs([client])
        problems = config.select_problems()
        journal, completed = _open_journal(config, (model,), (include_restrictions,))
        units = [
            (include_restrictions, 0, problem_index, sample_index)
            for problem_index in range(len(problems))
            for sample_index in range(config.samples_per_problem)
        ]
        samples, _ = _map_units_process(
            config,
            client_specs,
            (include_restrictions,),
            units,
            problems,
            model_names=(model,),
            journal=journal,
            completed=completed,
        )
        if journal is not None:
            journal.close()
        packs = {problem.pack for problem in problems}
        report = EvalReport(
            model=model,
            with_restrictions=include_restrictions,
            samples_per_problem=config.samples_per_problem,
            max_feedback_iterations=config.max_feedback_iterations,
            pack=packs.pop() if len(packs) == 1 else "mixed",
        )
        for sample in samples:
            report.add(sample)
        return report
    if engine is None and golden_store is None:
        engine = ExecutionEngine(config.engine_config())
    if golden_store is None:
        golden_store = GoldenStore(
            num_wavelengths=config.num_wavelengths,
            engine=engine,
            pack=config.pack,
            pack_params=config.pack_params,
        )
    evaluation_config = config.evaluation_config(include_restrictions=include_restrictions)
    evaluator = Evaluator(evaluation_config, golden_store=golden_store, engine=engine)
    prompt_config = config.prompt_config(include_restrictions=include_restrictions)
    if config.journal_dir is None:
        return evaluator.run_suite(client, config.select_problems(), prompt_config=prompt_config)
    return _run_model_journaled(
        config, client, model, include_restrictions, evaluator, prompt_config
    )


def _run_model_journaled(
    config: SweepConfig,
    client: LLMClient,
    model: str,
    include_restrictions: bool,
    evaluator: Evaluator,
    prompt_config: PromptConfig,
) -> EvalReport:
    """The thread-tier twin of :meth:`Evaluator.run_suite`, checkpointed.

    Replicates ``run_suite``'s unit enumeration and fold order exactly --
    per-sample units on the engine's pool, or lockstep batched dispatch when
    ``batch_size > 1`` -- but serves journaled trajectories without
    recomputing them and records each fresh one as it completes, so the
    report is byte-identical to an uncheckpointed (or uninterrupted) run.
    """
    problems = config.select_problems()
    journal, completed = _open_journal(config, (model,), (include_restrictions,))
    assert journal is not None
    units = [
        (problem, sample_index)
        for problem in problems
        for sample_index in range(config.samples_per_problem)
    ]
    keys = [
        unit_key(include_restrictions, model, problem.name, sample_index)
        for problem, sample_index in units
    ]
    try:
        if getattr(evaluator.engine.config, "batch_size", 1) > 1:
            pending = [index for index, key in enumerate(keys) if key not in completed]
            for index in pending:
                fault_point("sweep.unit", key="|".join(map(str, keys[index])))
            fresh = evaluator.run_samples_batched(
                [(client, units[index][0], units[index][1]) for index in pending],
                prompt_config=prompt_config,
            )
            samples: List[Optional[SampleResult]] = [completed.get(key) for key in keys]
            for index, sample in zip(pending, fresh):
                journal.record(keys[index], sample)
                samples[index] = sample
        else:

            def run_unit(indexed: Tuple[int, Tuple[Problem, int]]) -> SampleResult:
                index, (problem, sample_index) = indexed
                done = completed.get(keys[index])
                if done is not None:
                    return done
                fault_point("sweep.unit", key="|".join(map(str, keys[index])))
                sample = evaluator.run_sample(
                    client, problem, sample_index, prompt_config=prompt_config
                )
                journal.record(keys[index], sample)
                return sample

            samples = evaluator.engine.map(run_unit, list(enumerate(units)))
    finally:
        journal.close()
    packs = {problem.pack for problem in problems}
    report = EvalReport(
        model=model,
        with_restrictions=include_restrictions,
        samples_per_problem=config.samples_per_problem,
        max_feedback_iterations=config.max_feedback_iterations,
        pack=packs.pop() if len(packs) == 1 else "mixed",
    )
    for sample in samples:
        assert sample is not None
        report.add(sample)
    return report


def run_sweep(
    config: Optional[SweepConfig] = None,
    *,
    profiles: Optional[Sequence[DesignerProfile]] = None,
    restriction_settings: Sequence[bool] = (False, True),
    clients: Optional[Sequence[LLMClient]] = None,
    engine: Optional[ExecutionEngine] = None,
) -> SweepResult:
    """Run the full Tables III / IV sweep.

    By default the five simulated designer profiles are used; pass ``clients``
    to evaluate real LLM API clients instead (clients must be thread-safe
    when ``config.workers > 1``; the bundled simulated designers are).

    The four nested loops of the paper's evaluation -- model, restriction
    setting, problem, sample -- are flattened into independent work units and
    executed on the engine's worker pool.  Each unit's generation seed is
    derived from ``(base_seed, problem, sample)`` alone, and results are
    folded back in loop order, so the returned reports are byte-identical for
    any worker count.
    """
    config = config if config is not None else SweepConfig()
    if clients is None:
        profiles = list(profiles) if profiles is not None else list(DEFAULT_PROFILES)
        clients = [SimulatedDesigner(profile, base_seed=config.base_seed) for profile in profiles]
    clients = list(clients)
    model_names = [getattr(client, "name", type(client).__name__) for client in clients]
    if config.execution_mode == "process":
        # Process tier: ship picklable specs, rebuild everything worker-side.
        # A caller-provided engine cannot cross the process boundary and is
        # ignored here; workers share its on-disk tiers via cache_dir.
        client_specs = _client_specs(clients)
        problems = config.select_problems()
        restriction_settings = tuple(restriction_settings)
        journal, completed = _open_journal(config, model_names, restriction_settings)
        unit_specs = [
            (include_restrictions, client_index, problem_index, sample_index)
            for include_restrictions in restriction_settings
            for client_index in range(len(clients))
            for problem_index in range(len(problems))
            for sample_index in range(config.samples_per_problem)
        ]
        samples, engine_stats = _map_units_process(
            config,
            client_specs,
            restriction_settings,
            unit_specs,
            problems,
            model_names=model_names,
            journal=journal,
            completed=completed,
        )
        if journal is not None:
            journal.close()
        result = SweepResult(config=config, engine_stats=engine_stats)
        for (include_restrictions, client_index, _, _), sample in zip(unit_specs, samples):
            client = clients[client_index]
            model = getattr(client, "name", type(client).__name__)
            report = result.reports.get((model, include_restrictions))
            if report is None:
                report = EvalReport(
                    model=model,
                    with_restrictions=include_restrictions,
                    samples_per_problem=config.samples_per_problem,
                    max_feedback_iterations=config.max_feedback_iterations,
                    pack=config.pack,
                )
                result.reports[(model, include_restrictions)] = report
            report.add(sample)
        return result
    if engine is None:
        engine = ExecutionEngine(config.engine_config())
    golden_store = GoldenStore(
        num_wavelengths=config.num_wavelengths,
        engine=engine,
        pack=config.pack,
        pack_params=config.pack_params,
    )
    problems = config.select_problems()
    restriction_settings = tuple(restriction_settings)

    evaluators = {
        include_restrictions: Evaluator(
            config.evaluation_config(include_restrictions=include_restrictions),
            golden_store=golden_store,
            engine=engine,
        )
        for include_restrictions in restriction_settings
    }
    prompt_configs = {
        include_restrictions: config.prompt_config(include_restrictions=include_restrictions)
        for include_restrictions in restriction_settings
    }

    # One work unit per (restrictions, client, problem, sample) trajectory,
    # in the exact order the sequential loops would visit them.
    units = [
        (include_restrictions, client, problem, sample_index)
        for include_restrictions in restriction_settings
        for client in clients
        for problem in problems
        for sample_index in range(config.samples_per_problem)
    ]
    journal, completed = _open_journal(config, model_names, restriction_settings)

    def key_of(unit) -> Tuple[bool, str, str, int]:
        include_restrictions, client, problem, sample_index = unit
        model = getattr(client, "name", type(client).__name__)
        return unit_key(include_restrictions, model, problem.name, sample_index)

    try:
        if config.batch_size > 1:
            # Batched dispatch: per restriction setting, all trajectories
            # advance in lockstep and every iteration's structure-sharing
            # candidates (samples that mutate settings, not topology) fuse
            # into shared executor passes.  Unit order -- and therefore the
            # folded reports -- are identical to the per-sample path.
            samples = []
            for include_restrictions in restriction_settings:
                group = [unit for unit in units if unit[0] == include_restrictions]
                pending = [unit for unit in group if key_of(unit) not in completed]
                for unit in pending:
                    fault_point("sweep.unit", key="|".join(map(str, key_of(unit))))
                fresh = iter(
                    evaluators[include_restrictions].run_samples_batched(
                        [(client, problem, s) for _, client, problem, s in pending],
                        prompt_config=prompt_configs[include_restrictions],
                    )
                )
                for unit in group:
                    key = key_of(unit)
                    done = completed.get(key)
                    if done is None:
                        done = next(fresh)
                        if journal is not None:
                            journal.record(key, done)
                    samples.append(done)
        else:

            def run_unit(unit):
                """Run one (restrictions, client, problem, sample) trajectory."""
                include_restrictions, client, problem, sample_index = unit
                key = key_of(unit)
                done = completed.get(key)
                if done is not None:
                    return done
                fault_point("sweep.unit", key="|".join(map(str, key)))
                sample = evaluators[include_restrictions].run_sample(
                    client,
                    problem,
                    sample_index,
                    prompt_config=prompt_configs[include_restrictions],
                )
                if journal is not None:
                    journal.record(key, sample)
                return sample

            samples = engine.map(run_unit, units)
    finally:
        if journal is not None:
            journal.close()

    result = SweepResult(config=config)
    for (include_restrictions, client, _, _), sample in zip(units, samples):
        model = getattr(client, "name", type(client).__name__)
        report = result.reports.get((model, include_restrictions))
        if report is None:
            report = EvalReport(
                model=model,
                with_restrictions=include_restrictions,
                samples_per_problem=config.samples_per_problem,
                max_feedback_iterations=config.max_feedback_iterations,
                pack=config.pack,
            )
            result.reports[(model, include_restrictions)] = report
        report.add(sample)
    return result
