"""One repetition of ``core-sweep`` or ``mc-yield`` in a fresh process.

Started by ``run.py`` once per repetition, so every repetition pays what a
user's run pays: interpreter start, imports, pack build and engine
construction (the set-up), then one unit of work on cold caches.  Prints one
JSON line: when set-up finished, the unit's wall and CPU time, peak RSS,
the outputs to check and, with ``--trace``, the per-layer span totals.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback

import inputs
import tracing


def setup_core(seed: int, sizes: inputs.Sizes):
    """Build the pack and a fresh engine; returns the unit and its engine."""
    from repro.bench.suite import all_problems
    from repro.engine.engine import ExecutionEngine
    from repro.harness import runner

    all_problems()
    config = inputs.sweep_config(seed, sizes)
    engine = ExecutionEngine()

    def unit():
        result = runner.run_sweep(config, engine=engine)
        samples = [s for r in result.reports.values() for ss in r.results.values() for s in ss]
        return {
            "digest": inputs.sweep_digest(result),
            "trajectories": len(samples),
            "attempts": sum(len(s.attempts) for s in samples),
        }

    return unit, engine


def setup_mc(seed: int, sizes: inputs.Sizes):
    """Build the nominal designs, the grid and a fresh engine."""
    from repro.bench.problems import variability
    from repro.constants import default_wavelength_grid
    from repro.engine.engine import ExecutionEngine

    designs = inputs.yield_designs()
    grid = default_wavelength_grid(sizes.mc_wavelengths)
    engine = ExecutionEngine()

    def unit():
        analyses = []
        for index, (name, netlist, spec) in enumerate(designs):
            result = variability.monte_carlo_yield(
                netlist, spec, draws=sizes.mc_draws, seed=inputs.yield_seed(seed, index),
                wavelengths=grid, engine=engine,
            )
            analyses.append({"design": name, "passes": result.passes, "metrics": list(result.metrics)})
        return {"analyses": analyses, "draws": sum(len(a["metrics"]) for a in analyses)}

    return unit, engine


SETUPS = {"core-sweep": setup_core, "mc-yield": setup_mc}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SETUPS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=sorted(inputs.SIZES), default="full")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    try:
        unit, engine = SETUPS[args.workload](args.seed, inputs.SIZES[args.size])
        setup_done = time.time()
        tracer = tracing.Tracer().install() if args.trace else None
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            output = unit()
        finally:
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
            if tracer is not None:
                tracer.uninstall()
        record = {
            "setup_done": setup_done,
            "wall_s": wall,
            "cpu_s": cpu,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "output": output,
            "engine_stats": engine.stats(),
        }
        if tracer is not None:
            tracer.write(args.workload)
            record["totals"] = tracing.layer_totals(tracer.spans)
            record["unpatched"] = tracer.unpatched
            record["restored"] = tracing.all_restored()
    except Exception:  # noqa: BLE001 - reported to the parent as a failed unit
        print(json.dumps({"error": traceback.format_exc()}))
        return 1
    print(json.dumps(record, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
