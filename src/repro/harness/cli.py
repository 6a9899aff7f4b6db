"""Command-line interface of the experiment harness.

Examples
--------
Regenerate the static tables and figures::

    python -m repro.harness table1
    python -m repro.harness table2
    python -m repro.harness fig2
    python -m repro.harness fig3
    python -m repro.harness fig4

Run the evaluation sweeps (Tables III and IV)::

    python -m repro.harness table3 --samples 5 --wavelengths 41
    python -m repro.harness table4 --samples 5 --wavelengths 41
    python -m repro.harness sweep --output results.json

Work with problem packs::

    python -m repro.harness --list-packs
    python -m repro.harness table1 --pack wdm-links
    python -m repro.harness sweep --pack wdm-links --pack-param "channels=[2, 4]"

Run the evaluation service (forwarded to :mod:`repro.service.cli`)::

    python -m repro.harness serve --db results.db --port 7341
    python -m repro.harness jobs --port 7341 submit --pack core --wait
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Sequence

from ..engine.engine import EXECUTION_MODES
from .ablation import restriction_ablation_text, run_restriction_ablation
from .figures import figure2_text, figure3_text, figure4_text
from .runner import SweepConfig, run_sweep
from .tables import (
    error_breakdown_text,
    packs_text,
    table1_text,
    table2_text,
    table3_text,
    table4_text,
)

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    """Build the harness argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate the PICBench paper's tables and figures.",
    )
    parser.add_argument(
        "target",
        nargs="?",
        choices=[
            "table1",
            "table2",
            "table3",
            "table4",
            "sweep",
            "errors",
            "ablate",
            "fig2",
            "fig3",
            "fig4",
        ],
        help="which artefact to regenerate (optional with --list-packs)",
    )
    parser.add_argument(
        "--model",
        type=str,
        default="GPT-4o",
        help="designer profile used by the 'ablate' target",
    )
    parser.add_argument("--samples", type=int, default=5, help="samples per problem (n of Pass@k)")
    parser.add_argument(
        "--feedback", type=int, default=3, help="maximum number of error-feedback iterations"
    )
    parser.add_argument(
        "--wavelengths", type=int, default=41, help="number of evaluation wavelength points"
    )
    parser.add_argument("--seed", type=int, default=0, help="base random seed of the sweep")
    parser.add_argument(
        "--problems",
        nargs="*",
        default=None,
        help="restrict the sweep to these problem names (default: the whole pack)",
    )
    parser.add_argument("--output", type=str, default=None, help="write sweep results to this JSON file")
    parser.add_argument(
        "--pack",
        type=str,
        default="core",
        help="problem pack to enumerate (see --list-packs; default: the paper's 24-problem core suite)",
    )
    parser.add_argument(
        "--pack-param",
        action="append",
        default=None,
        metavar="KEY=VALUE",
        help="override one generation parameter of a parametric pack "
        "(repeatable; VALUE is parsed as JSON, e.g. channels='[2, 4]')",
    )
    parser.add_argument(
        "--list-packs",
        action="store_true",
        help="list the registered problem packs and exit",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker threads of the execution engine (1 = sequential, 0 = one per core); "
        "reports are identical for any worker count",
    )
    parser.add_argument(
        "--cache-dir",
        type=str,
        default=None,
        help="directory for persistent simulation-cache artefacts (.npz); "
        "reused across runs to skip repeated simulations",
    )
    parser.add_argument(
        "--plan-cache-entries",
        type=int,
        default=128,
        help="capacity of the solver's topology-keyed compiled-plan cache; "
        "structurally identical netlists (samples that only mutate settings) "
        "pay for assembly and condensation once; 0 recompiles every call",
    )
    parser.add_argument(
        "--wavelength-chunk",
        type=int,
        default=None,
        metavar="POINTS",
        help="solve at most this many wavelength points per batch, bounding "
        "the solver's peak workspace on large grids (default: whole grid at "
        "once); results are identical for any chunk size",
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=1,
        metavar="SAMPLES",
        help="fuse up to this many structure-sharing candidate netlists into "
        "one solver executor pass (trajectories then advance in lockstep "
        "per feedback iteration); 1 (default) evaluates sweep work per "
        "sample; reports are identical for any batch size",
    )
    parser.add_argument(
        "--execution-mode",
        type=str,
        default="thread",
        choices=list(EXECUTION_MODES),
        help="parallel tier of the sweep: 'thread' runs work units on the "
        "engine's thread pool, 'process' shards them across worker "
        "processes (sidestepping the GIL for the pure-Python evaluation "
        "loop) that share the on-disk caches under --cache-dir; reports "
        "are byte-identical in both modes",
    )
    parser.add_argument(
        "--processes",
        type=int,
        default=0,
        metavar="N",
        help="worker-process count for --execution-mode process "
        "(default 0 = one per core)",
    )
    parser.add_argument(
        "--retry-attempts",
        type=int,
        default=2,
        metavar="N",
        help="total tries per transiently failing work unit before it is "
        "recorded as crashed (1 = no retries)",
    )
    parser.add_argument(
        "--retry-backoff",
        type=float,
        default=0.1,
        metavar="SECONDS",
        help="base seconds of the exponential (deterministically jittered) "
        "backoff between unit retries",
    )
    parser.add_argument(
        "--unit-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-unit watchdog budget in --execution-mode process: hung "
        "worker processes are killed and their units retried singly "
        "(default: no timeout)",
    )
    parser.add_argument(
        "--journal-dir",
        type=str,
        default=None,
        metavar="DIR",
        help="checkpoint every completed trajectory to a line-JSON journal "
        "in this directory, keyed by the sweep's semantic fingerprint",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="with --journal-dir: skip trajectories already journaled by an "
        "earlier (possibly killed) run of the same sweep; the finished "
        "report is byte-identical to an uninterrupted run",
    )
    return parser


def _parse_pack_params(raw: Optional[Sequence[str]]) -> Optional[Dict[str, object]]:
    """Parse repeated ``--pack-param KEY=VALUE`` flags into a mapping.

    Values are parsed as JSON when possible (``channels=[2, 4]``,
    ``spacing=0.1``) and fall back to the raw string otherwise.
    """
    if not raw:
        return None
    params: Dict[str, object] = {}
    for item in raw:
        key, separator, value = item.partition("=")
        if not separator or not key:
            raise SystemExit(f"--pack-param must look like KEY=VALUE, got {item!r}")
        try:
            params[key] = json.loads(value)
        except json.JSONDecodeError:
            params[key] = value
    return params


def _sweep_config(args: argparse.Namespace) -> SweepConfig:
    """Translate parsed CLI arguments into a :class:`SweepConfig`."""
    return SweepConfig(
        samples_per_problem=args.samples,
        max_feedback_iterations=args.feedback,
        num_wavelengths=args.wavelengths,
        base_seed=args.seed,
        problems=tuple(args.problems) if args.problems else None,
        workers=args.workers,
        cache_dir=args.cache_dir,
        pack=args.pack,
        pack_params=_parse_pack_params(args.pack_param),
        plan_cache_entries=args.plan_cache_entries,
        wavelength_chunk=args.wavelength_chunk,
        batch_size=args.batch_size,
        execution_mode=args.execution_mode,
        processes=args.processes,
        retry_attempts=args.retry_attempts,
        retry_backoff=args.retry_backoff,
        unit_timeout=args.unit_timeout,
        journal_dir=args.journal_dir,
        resume=args.resume,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``python -m repro.harness``."""
    argv = list(argv) if argv is not None else sys.argv[1:]
    if argv and argv[0] in ("serve", "jobs"):
        # Service verbs forward to the evaluation-service CLI, so the
        # harness front door covers both one-shot sweeps and the daemon:
        # ``python -m repro.harness serve ...`` / ``... jobs submit ...``.
        from ..service.cli import main as service_main

        return service_main(argv)
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_packs:
        print(packs_text())
        return 0
    if args.target is None:
        parser.error("a target is required (or pass --list-packs)")

    if args.target == "table1":
        print(table1_text(args.pack, _parse_pack_params(args.pack_param)))
        return 0
    if args.target == "table2":
        print(table2_text())
        return 0
    if args.target == "fig2":
        print(figure2_text())
        return 0
    if args.target == "fig3":
        print(figure3_text())
        return 0
    if args.target == "fig4":
        print(figure4_text(num_wavelengths=args.wavelengths))
        return 0

    config = _sweep_config(args)
    if args.target == "ablate":
        from ..llm.simulated import SimulatedDesigner

        result = run_restriction_ablation(SimulatedDesigner(args.model), config=config)
        print(restriction_ablation_text(result))
        return 0
    if args.target == "table3":
        sweep = run_sweep(config, restriction_settings=(False,))
        print(table3_text(sweep))
    elif args.target == "table4":
        sweep = run_sweep(config, restriction_settings=(True,))
        print(table4_text(sweep))
    elif args.target == "errors":
        sweep = run_sweep(config)
        print(error_breakdown_text(sweep))
    else:  # sweep
        sweep = run_sweep(config)
        print(table3_text(sweep))
        print()
        print(table4_text(sweep))
        print()
        print(error_breakdown_text(sweep))
    if args.output:
        sweep.save(args.output)
        print(f"\nsweep results written to {args.output}", file=sys.stderr)
    return 0
