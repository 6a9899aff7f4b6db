"""End-to-end PICBench benchmark: core sweep, Monte-Carlo yield, service jobs.

Run from the repository root::

    python3 perfbench/run.py --workload core-sweep --seed 1 --seconds 40 --trace 0

``--trace 0`` times the workload untraced and reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced repetitions and
reports the per-layer metrics.  Every output is checked against
``perfbench/reference.json``.  The last line of standard output is one JSON
object (``correct``, ``attempted``, ``failed``, ``metrics``); the line before
it is the run record.  The exit code is non-zero when any check fails.
``--workload all`` runs the three workloads one after another.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional

import hostspeed
import inputs
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"
WORKLOADS = ("core-sweep", "mc-yield", "service-jobs")

#: End-to-end metrics, reported on every workload.  The unit of work is a
#: sweep (1,200 trajectories) on core-sweep, a three-design yield analysis
#: (768 draws) on mc-yield and one job on service-jobs.
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of the traced run (0 where a layer is not reached).
PER_LAYER = {
    "llm.complete.calls": "count", "llm.complete.self_s": "s",
    "prompts.build.self_s": "s",
    "netlist.parse.calls": "count", "netlist.parse.self_s": "s",
    "netlist.validate.calls": "count", "netlist.validate.self_s": "s",
    "netlist.reject_frac": "ratio",
    "evalkit.attempts_per_trajectory": "count", "evalkit.self_s": "s",
    "engine.evaluate.calls": "count", "engine.evaluate.self_s": "s",
    "engine.key.self_s": "s", "engine.cache.hit_rate": "ratio",
    "engine.cache.get.self_s": "s", "engine.cache.put.calls": "count",
    "engine.cache.put.self_s": "s",
    "sim.solve.calls": "count", "sim.solve.self_s": "s",
    "sim.compile.calls": "count", "sim.compile.self_s": "s",
    "sim.plan.hit_rate": "ratio", "sim.executor_passes": "count",
    "sim.fusion_rate": "ratio", "sim.degraded": "count",
    "analysis.compare.calls": "count", "analysis.compare.self_s": "s",
    "analysis.pass_frac": "ratio",
    "golden.response_for.calls": "count", "golden.response_for.self_s": "s",
    "variability.self_s": "s", "variability.draw.self_s": "s",
    "variability.score.self_s": "s",
    "harness.self_s": "s",
    "service.submit_rtt_p50_s": "s", "service.queue_wait_p50_s": "s",
    "service.queue_wait_p90_s": "s", "service.run_p50_s": "s",
    "service.store.record_job.calls": "count",
    "service.store.record_job.self_s": "s", "service.store.save_run.self_s": "s",
    "service.dedupe_frac": "ratio", "service.repeat_frac": "ratio",
    "loadgen.late_max_s": "s",
    "trace.overhead_frac": "ratio", "trace.coverage_frac": "ratio",
}

#: Tolerance of per-draw yield metrics against the reference.
METRIC_ATOL = 1e-9
#: Set-ups a timed run measures (``setup_s`` is their median): at least this
#: many repetitions of core-sweep/mc-yield, and this many daemon starts of
#: service-jobs.
SETUP_SAMPLES = 3
DAEMON_STARTS = 5
#: Host-speed probe rounds (about 35 ms each) before each repetition and
#: after the last, or around each daemon start and the service load.
PROBE_ROUNDS = 10
#: During the service load, probe rounds fill the last this many seconds
#: before each submit, when the previous job has mostly finished, and stop
#: this many seconds (more than a round) before the submit is due.
PROBE_LEAD_S = 0.14
PROBE_STOP_S = 0.06
#: The host-speed probe of each repeated workload: mc-yield spends its time
#: in numpy array code, core-sweep (like service-jobs, which uses the
#: default ``python`` probe) in the interpreter.
PROBE_KIND = {"core-sweep": "python", "mc-yield": "numpy"}


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def p90(values: List[float]) -> float:
    """The 90th percentile (inclusive interpolation; the max below 2 values)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def median_dicts(dicts: List[Dict[str, float]]) -> Dict[str, float]:
    return {key: statistics.median(d.get(key, 0) for d in dicts) for key in dicts[0]} if dicts else {}


class Run:
    """Outcome of one workload run: checks, metrics and the run record."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.metrics: Dict[str, float] = {}
        self.layers: Dict[str, float] = {}
        self.record: Dict[str, object] = {
            "workload": workload,
            "seed": seed,
            "input_seed": inputs.input_seed(seed),
        }

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(message)


# ----------------------------------------------------------------------
# core-sweep and mc-yield: one fresh process per repetition
# ----------------------------------------------------------------------
def spawn_rep(workload: str, seed: int, size: str, traced: bool) -> Dict[str, object]:
    """Run one repetition in a fresh process; its record, or an ``error``."""
    command = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
               "--seed", str(seed), "--size", size]
    if traced:
        command.append("--trace")
    spawned = time.time()
    try:
        proc = subprocess.run(command, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=170)
    except subprocess.TimeoutExpired:
        return {"error": "repetition timed out", "traced": traced}
    lines = proc.stdout.strip().splitlines()
    try:
        rep = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        rep = {"error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}
    if proc.returncode != 0 and "error" not in rep:
        rep["error"] = f"exit {proc.returncode}"
    rep["traced"] = traced
    if "setup_done" in rep:
        rep["setup_s"] = rep["setup_done"] - spawned
    return rep


def check_rep(run: Run, rep: Dict[str, object], expected) -> None:
    """Check one repetition's outputs against the reference."""
    if "error" in rep:
        run.check(False, f"repetition failed: {rep['error']}")
        return
    output = rep["output"]
    if run.workload == "core-sweep":
        run.check(output["digest"] == expected,
                  f"sweep digest {output['digest'][:16]} != reference {expected[:16]}")
        return
    analyses = output["analyses"]
    if len(analyses) != len(expected):
        run.check(False, "wrong number of yield analyses")
        return
    for got, want in zip(analyses, expected):
        close = len(got["metrics"]) == len(want["metrics"]) and all(
            abs(a - b) <= METRIC_ATOL for a, b in zip(got["metrics"], want["metrics"])
        )
        run.check(got["passes"] == want["passes"] and close,
                  f"{want['design']}: passes {got['passes']} (reference {want['passes']})"
                  f"{'' if close else ', per-draw metrics deviate'}")


def run_reps(run: Run, seed: int, seconds: float, trace: bool, size: str, reference) -> None:
    """Repeat the workload's unit in fresh processes for about ``seconds``.

    The host-speed probe runs before each repetition and after the last,
    while no repetition runs.  Each repetition's times are scaled to
    reference seconds by the probe rounds just before and after it.
    """
    expected = reference[run.workload][str(run.record["input_seed"])]
    start = time.perf_counter()
    reps: List[Dict[str, object]] = []
    durations: List[float] = []
    kind = PROBE_KIND[run.workload]
    probe_sets: List[List[float]] = []
    while True:
        probe_sets.append(hostspeed.probe(PROBE_ROUNDS, kind))
        began = time.perf_counter()
        rep = spawn_rep(run.workload, seed, size, traced=trace and len(reps) % 2 == 1)
        durations.append(time.perf_counter() - began)
        check_rep(run, rep, expected)
        reps.append(rep)
        elapsed = time.perf_counter() - start
        enough = len(reps) >= (2 if trace else SETUP_SAMPLES)
        if enough and elapsed + statistics.median(durations) / 2 > seconds:
            break
    probe_sets.append(hostspeed.probe(PROBE_ROUNDS, kind))
    for index, rep in enumerate(reps):
        rep["scale"] = hostspeed.scale(probe_sets[index] + probe_sets[index + 1], kind)
    good = [rep for rep in reps if "error" not in rep]
    plain = [rep for rep in good if not rep["traced"]]
    traced = [rep for rep in good if rep["traced"]]
    units = "trajectories" if run.workload == "core-sweep" else "draws"
    if plain:
        walls = [rep["wall_s"] * rep["scale"] for rep in plain]
        per_unit = plain[0]["output"][units]
        run.metrics = {
            "setup_s": statistics.median(rep["setup_s"] * rep["scale"] for rep in good),
            # Work done over time taken: averages the host's speed over the
            # whole run, where a median of a few repetitions would not.
            "throughput_per_s": sum(rep["output"][units] for rep in plain) / sum(walls),
            "latency_p50_s": statistics.median(walls),
            "latency_p90_s": p90(walls),
            "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in plain),
        }
        run.record.update({
            f"{units}_per_rep": per_unit,
            "wall_s": [rep["wall_s"] for rep in plain],
            "cpu_s": [rep["cpu_s"] for rep in plain],
            "setup_wall_s": [rep["setup_s"] for rep in good],
        })
    run.record["probe_round_s"] = [statistics.median(rounds) for rounds in probe_sets]
    run.record["host_scale"] = [rep["scale"] for rep in reps]
    if traced:
        run.layers = median_dicts([
            tracing.layer_metrics(rep["totals"], rep["engine_stats"], rep["wall_s"])
            for rep in traced
        ])
        if plain:
            run.layers["trace.overhead_frac"] = (
                statistics.median(rep["wall_s"] for rep in traced)
                / statistics.median(rep["wall_s"] for rep in plain) - 1.0
            )
        run.record["traced_wall_s"] = [rep["wall_s"] for rep in traced]
        run.record["unpatched"] = sorted({t for rep in traced for t in rep["unpatched"]})
        run.check(all(rep["restored"] for rep in traced), "tracing left a module patched")
        if run.workload == "core-sweep":
            run.check(run.layers["trace.coverage_frac"] >= tracing.MIN_COVERAGE,
                      "layer self times cover less than 90% of the traced sweep")
    run.record["repetitions"] = len(reps)
    if run.workload == "core-sweep" and good:
        run.record["attempts_per_rep"] = good[0]["output"]["attempts"]


# ----------------------------------------------------------------------
# service-jobs: a daemon driven by an open-loop generator
# ----------------------------------------------------------------------
class Daemon:
    """One ``repro.service serve`` process on a fresh directory."""

    def __init__(self, directory: Path, totals_path: Optional[Path] = None) -> None:
        from repro.service.client import ServiceClient, ServiceError

        directory.mkdir(parents=True)
        serve = ["--db", str(directory / "results.db"), "--cache-dir", str(directory / "cache")]
        if totals_path is None:
            command = [sys.executable, "-m", "repro.service", "serve", *serve]
        else:
            command = [sys.executable, str(HERE / "serve_traced.py"), str(totals_path), *serve]
        self.peak_rss_mb: Optional[float] = None
        self.log = (directory / "daemon.log").open("w")
        started = time.time()
        self.proc = subprocess.Popen(command, cwd=ROOT, env=child_env(), text=True,
                                     stdout=subprocess.PIPE, stderr=self.log)
        try:
            address = json.loads(self.proc.stdout.readline())
            self.client = ServiceClient(address["host"], address["port"])
            deadline = time.time() + 60
            while True:
                try:
                    if self.client.ready().get("ready"):
                        break
                except ServiceError:
                    pass
                if time.time() > deadline:
                    raise RuntimeError("the daemon never became ready")
                time.sleep(0.005)
        except Exception:
            self.stop()
            raise
        self.setup_s = time.time() - started

    def stop(self) -> None:
        """Ask the daemon to shut down; kill it if it does not exit."""
        from repro.service.client import ServiceError

        if self.proc.poll() is None:
            self.peak_rss_mb = peak_rss_mb(self.proc.pid)
            try:
                self.client.shutdown()
            except (AttributeError, ServiceError):
                self.proc.terminate()
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def peak_rss_mb(pid: int) -> Optional[float]:
    """A live process's peak resident set (Linux ``VmHWM``), in MB."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def drive(run: Run, daemon: Daemon, seed: int, seconds: float, sizes, reference) -> Dict[str, object]:
    """Send the job schedule open-loop; wait for every job; check and time them.

    Host-speed probe rounds run before the load and after it, with the
    daemon idle, and just before each submit (``PROBE_LEAD_S``).  Each job's
    latency is also returned scaled to reference seconds by the rounds
    around it: those before the previous submit, its own and the next two.
    """
    from repro.service.client import ServiceError

    schedule = inputs.job_schedule(seconds, sizes)
    expected = reference["service-jobs"][str(run.record["input_seed"])]
    needed = max(s.fresh_index for s in schedule) + 1
    if needed > len(expected):
        raise RuntimeError(f"{needed} fresh jobs needed, {len(expected)} recorded: shorten --seconds")
    specs = [inputs.job_spec(inputs.fresh_job(seed, i, sizes)) for i in range(needed)]
    client = daemon.client
    probe_sets = [hostspeed.probe(PROBE_ROUNDS)]  # rounds before each submit
    begin = time.time() + 0.05
    sent = []
    for index, submit in enumerate(schedule):
        due = begin + submit.due_s
        if index > 0:
            delay = due - PROBE_LEAD_S - time.time()
            if delay > 0:
                time.sleep(delay)
            rounds: List[float] = []
            while time.time() < due - PROBE_STOP_S:
                rounds += hostspeed.probe(1)
            probe_sets.append(rounds)
        delay = due - time.time()
        if delay > 0:
            time.sleep(delay)
        at = time.time()
        try:
            job_id = client.submit(specs[submit.fresh_index], dedupe=submit.dedupe)
        except ServiceError:
            job_id = None
        sent.append({"submit": submit, "due": due, "late": at - due, "rtt": time.time() - at,
                     "job_id": job_id})
    terminal = ("done", "failed", "cancelled")
    ids = {entry["job_id"] for entry in sent if entry["job_id"]}
    deadline = time.time() + 120
    while True:
        jobs = {job["job_id"]: job for job in client.jobs()}
        if all(jobs.get(i, {}).get("state") in terminal for i in ids) or time.time() > deadline:
            break
        time.sleep(0.1)
    end = time.time()
    probe_sets.append(hostspeed.probe(PROBE_ROUNDS))
    latencies, scaled, waits, runs = [], [], [], []
    every_round = [t for rounds in probe_sets for t in rounds]
    for index, entry in enumerate(sent):
        window = probe_sets[max(0, index - 1): index + 3]
        entry["scale"] = hostspeed.scale([t for rounds in window for t in rounds] or every_round)
        job = jobs.get(entry["job_id"]) if entry["job_id"] else None
        submit = entry["submit"]
        if job is None or job["state"] != "done":
            state = job["state"] if job else "refused"
            run.check(False, f"job for fresh spec {submit.fresh_index}: {state}")
            latencies.append(end - entry["due"])  # a missing job misses every limit
            scaled.append(latencies[-1] * entry["scale"])
            continue
        digests = inputs.report_digests(client.result(entry["job_id"]))
        run.check(digests == [expected[submit.fresh_index]],
                  f"job {entry['job_id']}: report digest differs from the reference")
        latencies.append(job["finished_at"] - entry["due"])
        scaled.append(latencies[-1] * entry["scale"])
        if not job.get("deduplicated"):
            waits.append(job["started_at"] - job["submitted_at"])
            runs.append(job["finished_at"] - job["started_at"])
    stats = client.stats()
    return {
        "jobs": len(sent),
        "latencies": latencies,
        "scaled_latencies": scaled,
        "scales": [entry["scale"] for entry in sent],
        "waits": waits,
        "runs": runs,
        "rtts": [entry["rtt"] for entry in sent],
        "late_max": max(entry["late"] for entry in sent),
        "repeat_frac": sum(e["submit"].repeat for e in sent) / len(sent),
        "dedupe_frac": sum(e["submit"].dedupe for e in sent) / len(sent),
        "span_s": end - begin,
        "throughput": len(sent) / (max(j["finished_at"] for j in jobs.values() if j["finished_at"]) - begin),
        "engine_stats": stats.get("engine", {}),
    }


def run_service(run: Run, seed: int, seconds: float, trace: bool, sizes, reference) -> None:
    """Time the daemon under an open-loop job stream (trace: untraced, then traced).

    Times are reported in reference seconds: job latencies as ``drive``
    scales them, each daemon start by the probe rounds just before and
    after it.  The completed-jobs rate follows the schedule and is not
    scaled.
    """
    directory = TMP / f"service-{os.getpid()}"
    shutil.rmtree(directory, ignore_errors=True)
    daemons: List[Daemon] = []
    try:
        if not trace:
            probe_sets = [hostspeed.probe(PROBE_ROUNDS)]
            for index in range(DAEMON_STARTS):
                if daemons:
                    daemons[-1].stop()
                daemons.append(Daemon(directory / f"d{index}"))
                probe_sets.append(hostspeed.probe(PROBE_ROUNDS))
            setups = [d.setup_s * hostspeed.scale(before + after)
                      for d, before, after in zip(daemons, probe_sets, probe_sets[1:])]
            load = drive(run, daemons[-1], seed, seconds, sizes, reference)
            daemons[-1].stop()
            run.record.update({
                "setup_wall_s": [d.setup_s for d in daemons],
                "host_scale": load["scales"],
            })
            run.metrics = {
                "setup_s": statistics.median(setups),
                "throughput_per_s": load["throughput"],
                "latency_p50_s": statistics.median(load["scaled_latencies"]),
                "latency_p90_s": p90(load["scaled_latencies"]),
                "peak_rss_mb": daemons[-1].peak_rss_mb
                or resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
            }
        else:
            daemons.append(Daemon(directory / "untraced"))
            plain = drive(run, daemons[-1], seed, seconds / 2, sizes, reference)
            daemons[-1].stop()
            totals_path = directory / "totals.json"
            daemons.append(Daemon(directory / "traced", totals_path))
            load = drive(run, daemons[-1], seed, seconds / 2, sizes, reference)
            daemons[-1].stop()
            traced = json.loads(totals_path.read_text())
            run.layers = tracing.layer_metrics(traced["totals"], load["engine_stats"], load["span_s"])
            run.layers.update({
                "service.submit_rtt_p50_s": statistics.median(load["rtts"]),
                "service.queue_wait_p50_s": statistics.median(load["waits"] or [0.0]),
                "service.queue_wait_p90_s": p90(load["waits"] or [0.0]),
                "service.run_p50_s": statistics.median(load["runs"] or [0.0]),
                "service.dedupe_frac": load["dedupe_frac"],
                "service.repeat_frac": load["repeat_frac"],
                "loadgen.late_max_s": load["late_max"],
                "trace.overhead_frac": statistics.median(load["latencies"])
                / statistics.median(plain["latencies"]) - 1.0,
            })
            run.record["unpatched"] = traced["unpatched"]
            run.check(traced["restored"], "tracing left a module patched")
        run.record.update({
            "jobs": load["jobs"],
            "job_latency_s": sorted(load["latencies"]),
            "job_run_s": sorted(load["runs"]),
            "repeat_frac": load["repeat_frac"],
            "dedupe_frac": load["dedupe_frac"],
            "late_max_s": load["late_max"],
            "schedule_s": load["span_s"],
        })
    finally:
        for daemon in daemons:
            daemon.stop()
        shutil.rmtree(directory, ignore_errors=True)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def environment() -> Dict[str, object]:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
    }


def headline_metrics(run: Run) -> Dict[str, Dict[str, object]]:
    """The workload's headline metrics under their workload-specific names."""
    m = run.metrics
    named = {"setup_s": (m.get("setup_s"), "s")}
    if run.workload == "core-sweep":
        named["trajectories_per_s"] = (m.get("throughput_per_s"), "1/s")
    elif run.workload == "mc-yield":
        named["draws_per_s"] = (m.get("throughput_per_s"), "1/s")
    else:
        named["job_latency_p50_s"] = (m.get("latency_p50_s"), "s")
        named["job_latency_p90_s"] = (m.get("latency_p90_s"), "s")
    named["failed_frac"] = (run.failed / run.attempted if run.attempted else 1.0, "ratio")
    named["peak_rss_mb"] = (m.get("peak_rss_mb"), "MB")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in named.items()}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str, reference) -> Run:
    run = Run(workload, seed)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        if workload == "service-jobs":
            run_service(run, seed, seconds, trace, inputs.SIZES[size], reference)
        else:
            run_reps(run, seed, seconds, trace, size, reference)
    except Exception as error:  # noqa: BLE001 - a crashed run fails its checks
        run.check(False, f"{type(error).__name__}: {error}")
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    run.record.update({
        "environment": environment(),
        "run_wall_s": time.perf_counter() - wall0,
        "run_process_time_s": time.process_time() - cpu0,
        "children_cpu_s": children.ru_utime + children.ru_stime,
        "traced": trace,
        "metrics": headline_metrics(run),
        "errors": run.errors[:20],
    })
    return run


def result_line(run: Run, trace: bool) -> Dict[str, object]:
    names, values = (PER_LAYER, run.layers) if trace else (END_TO_END, run.metrics)
    return {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": {name: {"value": values.get(name, 0), "unit": unit} for name, unit in names.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes (tiny: the self-check)")
    parser.add_argument("--reference", default=str(HERE / "reference.json"))
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    reference = json.loads(Path(args.reference).read_text())
    if reference["sizes"] != asdict(inputs.SIZES[args.size]):
        print(f"error: {args.reference} was recorded for other input sizes", file=sys.stderr)
        return 2
    tracing.OUT_DIR.mkdir(exist_ok=True)
    trace = bool(args.trace)
    runs = [run_workload(w, args.seed, args.seconds, trace, args.size, reference)
            for w in (WORKLOADS if args.workload == "all" else (args.workload,))]
    for run in runs:
        print(json.dumps({"record": run.record}))
        (tracing.OUT_DIR / f"record-{run.workload}.json").write_text(json.dumps(run.record, indent=1))
    if len(runs) == 1:
        line = result_line(runs[0], trace)
    else:
        lines = [result_line(run, trace) for run in runs]
        line = {
            "correct": all(entry["correct"] for entry in lines),
            "attempted": sum(entry["attempted"] for entry in lines),
            "failed": sum(entry["failed"] for entry in lines),
            "metrics": {f"{run.workload}.{name}": value for run, entry in zip(runs, lines)
                        for name, value in entry["metrics"].items()},
        }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
