"""Fast self-check of the benchmark at tiny input sizes (about a minute).

Asserts that

1. every metric named in ``BENCHMARK.json`` is emitted, on every workload,
   untraced and traced, and the tiny runs pass their checks;
2. an altered output fails the correctness check: an altered sweep report
   in-process, and altered reference entries end to end (non-zero exit);
3. the tracing wrappers leave every module unpatched afterwards;
4. the coverage check of the traced sweep holds with every wrapper and
   fails when one layer is left unwrapped.

Run from the repository root: ``python3 perfbench/selfcheck.py``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import record  # noqa: E402
import rep  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

WORK = ROOT / ".perfbench_tmp" / "selfcheck"
SEED = 7


def bench(reference: Path, workload: str, trace: int):
    """Run the benchmark at tiny sizes; (exit code, final JSON line)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "2", "--trace", str(trace), "--size", "tiny", "--reference", str(reference)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics_emitted(reference: Path) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert expected[0] == run.END_TO_END and expected[1] == run.PER_LAYER, "BENCHMARK.json out of date"
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            code, line = bench(reference, workload, trace)
            assert code == 0 and line["correct"], (workload, trace, line)
            got = {name: entry["unit"] for name, entry in line["metrics"].items()}
            assert got == expected[trace], (workload, trace, sorted(set(got) ^ set(expected[trace])))
            if trace == 0:
                assert all(entry["value"] > 0 for entry in line["metrics"].values()), (workload, line)
    print("ok: every metric is emitted on every workload")


def check_altered_outputs_fail(reference: Path) -> None:
    from repro.engine.engine import ExecutionEngine
    from repro.harness.runner import run_sweep

    sizes = inputs.TINY
    recorded = json.loads(reference.read_text())
    result = run_sweep(inputs.sweep_config(SEED, sizes), engine=ExecutionEngine())
    good = run.Run("core-sweep", SEED)
    run.check_rep(good, {"output": {"digest": inputs.sweep_digest(result)}},
                  recorded["core-sweep"][str(inputs.input_seed(SEED))])
    assert good.failed == 0, good.errors
    report = next(iter(result.reports.values()))
    attempt = next(iter(report.results.values()))[0].attempts[-1]
    attempt.functional_ok = not attempt.functional_ok
    altered = run.Run("core-sweep", SEED)
    run.check_rep(altered, {"output": {"digest": inputs.sweep_digest(result)}},
                  recorded["core-sweep"][str(inputs.input_seed(SEED))])
    assert altered.failed == 1, "an altered sweep report passed the check"

    key = str(inputs.input_seed(SEED))
    corrupt = json.loads(reference.read_text())
    corrupt["core-sweep"][key] = "0" * 64
    corrupt["mc-yield"][key][0]["metrics"][0] += 1e-6
    corrupt["service-jobs"][key] = ["0" * 64 for _ in corrupt["service-jobs"][key]]
    path = WORK / "corrupt.json"
    path.write_text(json.dumps(corrupt))
    for workload in run.WORKLOADS:
        code, line = bench(path, workload, 0)
        assert code != 0 and not line["correct"] and line["failed"] > 0, (workload, line)
    print("ok: altered outputs fail the correctness check")


def check_tracing_restores() -> None:
    originals = {}
    for _, target, _, _ in tracing.TARGETS:
        owner, attr = tracing._resolve(target)
        originals[target] = owner.__dict__[attr]
    tracer = tracing.Tracer().install()
    try:
        assert not tracer.unpatched, tracer.unpatched
        assert not tracing.all_restored()
        from repro.bench.problems import variability
        from repro.engine.engine import ExecutionEngine

        name, netlist, spec = inputs.yield_designs()[1]
        variability.monte_carlo_yield(netlist, spec, draws=4, seed=1, engine=ExecutionEngine())
        assert {s.name for s in tracer.spans} >= {"variability", "variability.draw", "sim.solve"}
    finally:
        tracer.uninstall()
    for target, original in originals.items():
        owner, attr = tracing._resolve(target)
        assert owner.__dict__[attr] is original, f"{target} left patched"
    assert tracing.all_restored()
    print("ok: tracing leaves every module unpatched")


def traced_coverage(targets) -> float:
    """``trace.coverage_frac`` of a tiny sweep traced with ``targets``."""
    unit, engine = rep.setup_core(SEED, inputs.TINY)
    tracer = tracing.Tracer(targets).install()
    try:
        began = time.perf_counter()
        unit()
        wall = time.perf_counter() - began
    finally:
        tracer.uninstall()
    return tracing.layer_metrics(tracing.layer_totals(tracer.spans), engine.stats(), wall)[
        "trace.coverage_frac"
    ]


def check_coverage() -> None:
    full = traced_coverage(tracing.TARGETS)
    assert full >= tracing.MIN_COVERAGE, f"coverage {full:.3f} with every wrapper"
    without_llm = tuple(t for t in tracing.TARGETS if t[0] != "llm.complete")
    dropped = traced_coverage(without_llm)
    assert dropped < tracing.MIN_COVERAGE, f"coverage {dropped:.3f} without the llm layer"
    print(f"ok: coverage {full:.3f} with every wrapper, {dropped:.3f} without the llm layer")


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        reference = WORK / "reference-tiny.json"
        reference.write_text(json.dumps(record.record(inputs.TINY)))
        check_tracing_restores()
        check_coverage()
        check_altered_outputs_fail(reference)
        check_metrics_emitted(reference)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
