"""Record the reference outputs the benchmark checks its runs against.

Computes, for every recorded input set, the outputs of the three workloads
without the service or tracing: the digest of the core sweep's canonical
reports and each yield analysis' pass count and per-draw metrics (the units
``rep.py`` times), and the digest of each fresh service job's report,
through ``run_model`` directly.

Run from the repository root (writes ``perfbench/reference.json``)::

    python3 perfbench/record.py

Re-record only when a change is meant to alter reported results.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import rep  # noqa: E402
from repro.engine.engine import ExecutionEngine  # noqa: E402
from repro.harness.runner import SweepConfig, run_model  # noqa: E402
from repro.llm.profiles import get_profile  # noqa: E402
from repro.llm.simulated import SimulatedDesigner  # noqa: E402


def record_jobs(seed: int, sizes: inputs.Sizes, engine) -> List[str]:
    """Report digests of the input set's fresh service jobs, in index order."""
    digests = []
    for index in range(sizes.recorded_fresh_jobs):
        job = inputs.fresh_job(seed, index, sizes)
        report = run_model(
            SimulatedDesigner(get_profile(job["model"]), base_seed=job["base_seed"]),
            include_restrictions=job["with_restrictions"],
            config=SweepConfig(
                samples_per_problem=job["samples"],
                num_wavelengths=job["wavelengths"],
                base_seed=job["base_seed"],
                problems=job["problems"],
            ),
            engine=engine,
        )
        digests.append(inputs.digest(inputs.canonical_json(report.to_dict())))
    return digests


def record(sizes: inputs.Sizes, log=None) -> Dict[str, object]:
    """The whole reference document."""
    reference: Dict[str, object] = {
        "reference_seeds": inputs.REFERENCE_SEEDS,
        "sizes": asdict(sizes),
        "core-sweep": {},
        "mc-yield": {},
        "service-jobs": {},
    }
    job_engine = ExecutionEngine()
    for seed in range(inputs.REFERENCE_SEEDS):
        reference["core-sweep"][str(seed)] = rep.setup_core(seed, sizes)[0]()["digest"]
        reference["mc-yield"][str(seed)] = [
            {**analysis, "metrics": [round(m, 12) for m in analysis["metrics"]]}
            for analysis in rep.setup_mc(seed, sizes)[0]()["analyses"]
        ]
        reference["service-jobs"][str(seed)] = record_jobs(seed, sizes, job_engine)
        if log is not None:
            print(f"recorded input set {seed}", file=log, flush=True)
    return reference


def main() -> int:
    reference = record(inputs.FULL, log=sys.stderr)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
