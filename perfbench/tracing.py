"""In-memory span tracing around the public functions of each layer.

``Tracer.install()`` replaces each target in ``TARGETS`` with a wrapper that
records a span -- name, start, end, parent, trace id -- and restores every
original attribute on ``uninstall()``.  Nothing under ``src/`` is changed:
the wrappers live here and are installed only for the traced run.

A span's self time is its duration minus the time its child spans cover
(children run on the same thread, so they never overlap).  Spans marked
``root`` start a new trace id: one per trajectory, yield analysis or job.

Coverage counts only the self time of the layers below the entry points.
The entry points' own self time (``ENTRY_LAYERS``) is whatever no wrapper
below them caught, so it counts as uncovered: a layer left unwrapped drops
the coverage instead of hiding in its caller.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: Where runs write their records and the last traced run's spans.
OUT_DIR = Path(__file__).resolve().parent.parent / ".perfbench_out"

#: ``(span name, "module:attribute path", starts a trace, outcome of result)``.
#: Module-level functions are patched where the caller binds them.
TARGETS: Tuple[Tuple[str, str, bool, Optional[Callable[[object], bool]]], ...] = (
    ("harness", "repro.harness.runner:run_sweep", False, None),
    ("harness", "repro.harness.runner:run_model", True, None),
    ("harness", "repro.service.service:run_model", True, None),
    ("evalkit", "repro.evalkit.evaluator:Evaluator.run_sample", True, None),
    ("llm.complete", "repro.llm.simulated:SimulatedDesigner.complete", False, None),
    ("prompts.build", "repro.evalkit.evaluator:build_system_prompt", False, None),
    ("prompts.build", "repro.evalkit.evaluator:build_user_prompt", False, None),
    ("prompts.build", "repro.evalkit.evaluator:build_feedback", False, None),
    ("netlist.parse", "repro.evalkit.evaluator:split_response", False, None),
    ("netlist.parse", "repro.evalkit.evaluator:parse_netlist_text", False, None),
    ("netlist.validate", "repro.evalkit.evaluator:validate_netlist", False, None),
    ("analysis.compare", "repro.evalkit.evaluator:compare_responses", False,
     lambda result: bool(result.passed)),
    ("golden.response_for", "repro.bench.golden:GoldenStore.response_for", False, None),
    ("engine.evaluate", "repro.engine.engine:ExecutionEngine.evaluate", False, None),
    ("engine.evaluate", "repro.engine.engine:ExecutionEngine.evaluate_batch", False, None),
    ("engine.evaluate", "repro.engine.engine:ExecutionEngine.evaluate_many", False, None),
    ("engine.key", "repro.engine.engine:ExecutionEngine.simulation_key", False, None),
    ("engine.cache.get", "repro.engine.cache:SimulationCache.get", False, None),
    ("engine.cache.put", "repro.engine.cache:SimulationCache.put", False, None),
    ("sim.solve", "repro.sim.circuit:CircuitSolver.evaluate", False, None),
    ("sim.solve", "repro.sim.circuit:CircuitSolver.evaluate_batch", False, None),
    ("sim.compile", "repro.sim.circuit:compile_netlist", False, None),
    ("variability", "repro.bench.problems.variability:monte_carlo_yield", True, None),
    ("variability.draw", "repro.bench.problems.variability:monte_carlo_settings", False, None),
    ("variability.score", "repro.bench.problems.variability:YieldSpec.score", False, None),
    ("service.store.record_job", "repro.service.store:ResultsStore.record_job", False, None),
    ("service.store.save_run", "repro.service.store:ResultsStore.save_run", False, None),
)


def _resolve(target: str):
    """``(owner, attribute name)`` of a ``module:Attr.path`` target."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


class Span:
    """One recorded call."""

    __slots__ = ("span_id", "trace_id", "parent_id", "name", "start", "end", "child", "error", "outcome")

    def __init__(self, span_id, trace_id, parent_id, name, start):
        self.span_id = span_id
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end = start
        self.child = 0.0
        self.error = False
        self.outcome: Optional[bool] = None

    @property
    def self_s(self) -> float:
        return (self.end - self.start) - self.child

    def as_dict(self) -> Dict[str, object]:
        return {slot: getattr(self, slot) for slot in self.__slots__ if slot != "child"}


class Tracer:
    """Collects spans from wrappers installed around ``targets``."""

    def __init__(self, targets=TARGETS) -> None:
        self.targets = targets
        self.spans: List[Span] = []
        self.unpatched: List[str] = []
        self._patched: List[Tuple[object, str, object]] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._traces = itertools.count(1)

    def _wrap(self, name: str, fn, root: bool, outcome):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent = stack[-1] if stack else None
            trace_id = next(tracer._traces) if root or parent is None else parent.trace_id
            span = Span(next(tracer._ids), trace_id, parent.span_id if parent else None,
                        name, time.perf_counter())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
                if outcome is not None:
                    span.outcome = outcome(result)
                return result
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child += span.end - span.start
                tracer.spans.append(span)

        traced._perfbench_span = name
        return traced

    def install(self) -> "Tracer":
        """Patch every resolvable target; unresolvable ones are listed.

        Every target is resolved (its module imported) before any is
        patched, so no module binds a wrapper at import time.
        """
        resolved = []
        for name, target, root, outcome in self.targets:
            try:
                owner, attr = _resolve(target)
                resolved.append((name, owner, attr, owner.__dict__[attr], root, outcome))
            except (ImportError, AttributeError, KeyError):
                self.unpatched.append(target)
        for name, owner, attr, original, root, outcome in resolved:
            setattr(owner, attr, self._wrap(name, original, root, outcome))
            self._patched.append((owner, attr, original))
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, workload: str) -> None:
        """Write the spans as JSON lines (once, when the run ends)."""
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / f"spans-{workload}.jsonl", "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")


def all_restored() -> bool:
    """Whether no target attribute is a tracing wrapper any more."""
    for _, target, _, _ in TARGETS:
        try:
            owner, attr = _resolve(target)
        except (ImportError, AttributeError):
            continue
        if hasattr(owner.__dict__.get(attr), "_perfbench_span"):
            return False
    return True


def layer_totals(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, self seconds, raised calls, positive outcomes."""
    totals: Dict[str, Dict[str, float]] = {}
    for span in spans:
        entry = totals.setdefault(span.name, {"calls": 0, "self_s": 0.0, "errors": 0, "positive": 0})
        entry["calls"] += 1
        entry["self_s"] += span.self_s
        entry["errors"] += int(span.error)
        entry["positive"] += int(bool(span.outcome))
    return totals


#: Layers of the entry points (``run_sweep``/``run_model``, ``run_sample``,
#: ``monte_carlo_yield``); their self time is left out of the coverage.
ENTRY_LAYERS = ("harness", "evalkit", "variability")
#: Least coverage a traced core sweep must reach.
MIN_COVERAGE = 0.9

#: Span names whose call counts are reported.
COUNTED = (
    "llm.complete", "netlist.parse", "netlist.validate", "engine.evaluate",
    "engine.cache.put", "sim.solve", "sim.compile", "analysis.compare",
    "golden.response_for", "service.store.record_job",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(totals: Dict[str, Dict[str, float]], engine_stats: Dict[str, object],
                  wall_s: float) -> Dict[str, float]:
    """Per-layer metrics from span totals and ``ExecutionEngine.stats()``."""
    def get(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0)

    metrics: Dict[str, float] = {f"{name}.calls": get(name, "calls") for name in COUNTED}
    for name in sorted({span_name for span_name, _, _, _ in TARGETS}):
        metrics[f"{name}.self_s"] = get(name, "self_s")
    completions = get("llm.complete", "calls")
    metrics["netlist.reject_frac"] = _ratio(
        get("netlist.parse", "errors") + get("netlist.validate", "errors"), completions
    )
    metrics["evalkit.attempts_per_trajectory"] = _ratio(completions, get("evalkit", "calls"))
    metrics["analysis.pass_frac"] = _ratio(
        get("analysis.compare", "positive"), get("analysis.compare", "calls")
    )
    cache = engine_stats.get("simulation_cache") or {}
    metrics["engine.cache.hit_rate"] = _ratio(
        cache.get("hits", 0), cache.get("hits", 0) + cache.get("misses", 0)
    )
    metrics["sim.plan.hit_rate"] = float(engine_stats.get("plan_hit_rate") or 0.0)
    metrics["sim.executor_passes"] = (engine_stats.get("solver_batch") or {}).get("executor_passes", 0)
    metrics["sim.fusion_rate"] = float(engine_stats.get("batch_fusion_rate") or 0.0)
    metrics["sim.degraded"] = (engine_stats.get("solver_degradations") or {}).get("total", 0)
    metrics["trace.coverage_frac"] = _ratio(
        sum(entry["self_s"] for name, entry in totals.items() if name not in ENTRY_LAYERS), wall_s
    )
    return metrics
