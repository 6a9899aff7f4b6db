"""Job specifications accepted by the evaluation service.

A :class:`JobSpec` is the wire format of one unit of service work: a sweep
(or single-model evaluation) over one problem pack under one parameter set.
Specs are plain-data and JSON-round-trippable -- they cross the daemon's
line-delimited-JSON protocol and are rebuilt worker-side -- and carry a
stable content :meth:`~JobSpec.fingerprint` so the results store can
deduplicate identical re-submissions.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Dict, Optional, Tuple

from ..bench.packs import CORE_PACK_NAME, get_pack
from ..engine.engine import EXECUTION_MODES
from ..engine.fingerprint import stable_hash
from ..harness.runner import SweepConfig
from ..llm.profiles import get_profile, profile_names

__all__ = ["JOB_KINDS", "JobSpec"]

#: Recognised job kinds: ``"sweep"`` evaluates every requested model under
#: every requested restriction setting; ``"evaluate"`` is the single-model,
#: single-restriction special case (exactly one of each is enforced).
JOB_KINDS: Tuple[str, ...] = ("sweep", "evaluate")

#: Spec fields that can never change reported numbers (retry budgets and
#: watchdog timeouts).  They ride along on the wire but are excluded from
#: the fingerprint, so re-submitting a job with different robustness knobs
#: still deduplicates against its stored run -- and fingerprints computed
#: before these fields existed remain valid.
_NON_SEMANTIC_FIELDS: Tuple[str, ...] = ("retry_attempts", "retry_backoff", "unit_timeout")

#: Fields older releases wrote and this one no longer has.  ``from_dict``
#: drops them so specs journaled by those releases still load (and recover)
#: instead of failing as unknown fields.  The removed solver backend knob
#: chose between numerically equivalent executors; the solver now picks one
#: internally.
_LEGACY_FIELDS: Tuple[str, ...] = ("solver_backend",)


@dataclass(frozen=True)
class JobSpec:
    """One sweep/evaluate request, as submitted to the service.

    ``models`` names the simulated designer profiles to run (default: all
    five paper profiles) and ``restrictions`` the prompt configurations
    (default: both the with- and without-restrictions settings).  The
    remaining fields mirror :class:`~repro.harness.runner.SweepConfig`;
    ``cache_dir`` is deliberately absent -- cache placement belongs to the
    service, not the job, so it can never perturb the fingerprint.
    """

    kind: str = "sweep"
    models: Tuple[str, ...] = field(default_factory=profile_names)
    restrictions: Tuple[bool, ...] = (False, True)
    samples_per_problem: int = 5
    max_feedback_iterations: int = 3
    num_wavelengths: int = 41
    base_seed: int = 0
    problems: Optional[Tuple[str, ...]] = None
    pack: str = CORE_PACK_NAME
    pack_params: Optional[Dict[str, object]] = None
    batch_size: int = 1
    execution_mode: str = "thread"
    processes: int = 0
    retry_attempts: int = 2
    retry_backoff: float = 0.1
    unit_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ValueError(f"unknown job kind {self.kind!r}; choose one of {list(JOB_KINDS)}")
        if self.execution_mode not in EXECUTION_MODES:
            raise ValueError(
                f"unknown execution_mode {self.execution_mode!r}; "
                f"choose one of {list(EXECUTION_MODES)}"
            )
        object.__setattr__(self, "models", tuple(self.models))
        object.__setattr__(self, "restrictions", tuple(bool(r) for r in self.restrictions))
        if self.problems is not None:
            object.__setattr__(self, "problems", tuple(self.problems))
        if not self.models:
            raise ValueError("a job must request at least one model")
        if not self.restrictions:
            raise ValueError("a job must request at least one restriction setting")
        if self.kind == "evaluate" and (len(self.models) != 1 or len(self.restrictions) != 1):
            raise ValueError(
                "an 'evaluate' job runs exactly one model under one restriction "
                f"setting; got {len(self.models)} models x {len(self.restrictions)} settings"
            )
        if self.samples_per_problem < 1:
            raise ValueError("samples_per_problem must be >= 1")
        if self.num_wavelengths < 1:
            raise ValueError("num_wavelengths must be >= 1")
        if self.retry_attempts < 1:
            raise ValueError("retry_attempts must be >= 1")

    def validate(self) -> None:
        """Resolve every referenced entity, raising on unknown names.

        Submission-time validation: unknown model profiles or packs fail the
        submit call with a clear error instead of failing the job later in a
        worker.
        """
        for model in self.models:
            get_profile(model)
        get_pack(self.pack)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Plain-container form (tuples become lists; JSON-ready)."""
        payload = asdict(self)
        payload["models"] = list(self.models)
        payload["restrictions"] = list(self.restrictions)
        payload["problems"] = list(self.problems) if self.problems is not None else None
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "JobSpec":
        """Rebuild a spec from :meth:`to_dict` output (or protocol JSON)."""
        data = {k: v for k, v in payload.items() if k not in _LEGACY_FIELDS}
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown JobSpec fields: {sorted(unknown)}")
        for key in ("models", "restrictions", "problems"):
            if data.get(key) is not None:
                data[key] = tuple(data[key])  # type: ignore[arg-type]
        return cls(**data)  # type: ignore[arg-type]

    def canonical_json(self) -> str:
        """Sorted-key, compact JSON form -- the fingerprint payload."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def fingerprint(self) -> str:
        """Stable content address of the spec.

        Two submissions describing the same evaluation -- regardless of who
        submitted them or when -- share a fingerprint, which is what lets
        the store deduplicate identical re-submissions.  Robustness knobs
        (:data:`_NON_SEMANTIC_FIELDS`) are excluded: they never change the
        numbers a job reports.
        """
        payload = self.to_dict()
        for name in _NON_SEMANTIC_FIELDS:
            payload.pop(name, None)
        return stable_hash(
            "jobspec", json.dumps(payload, sort_keys=True, separators=(",", ":"))
        )

    # ------------------------------------------------------------------
    # Execution plumbing
    # ------------------------------------------------------------------
    def sweep_config(
        self,
        *,
        cache_dir: Optional[str] = None,
        workers: int = 1,
        journal_dir: Optional[str] = None,
        resume: bool = False,
    ) -> SweepConfig:
        """The :class:`SweepConfig` this job runs under.

        ``cache_dir``, ``workers``, ``journal_dir`` and ``resume`` are
        service-owned placement/parallelism/checkpointing knobs layered on
        top of the spec (they never affect results, so they are not part of
        the spec or its fingerprint).
        """
        return SweepConfig(
            samples_per_problem=self.samples_per_problem,
            max_feedback_iterations=self.max_feedback_iterations,
            num_wavelengths=self.num_wavelengths,
            base_seed=self.base_seed,
            problems=self.problems,
            workers=workers,
            cache_dir=cache_dir,
            pack=self.pack,
            pack_params=self.pack_params,
            batch_size=self.batch_size,
            execution_mode=self.execution_mode,
            processes=self.processes,
            retry_attempts=self.retry_attempts,
            retry_backoff=self.retry_backoff,
            unit_timeout=self.unit_timeout,
            journal_dir=journal_dir,
            resume=resume,
        )
