"""Benchmark of the ``crystals`` command line: one workload per run.

    python3 perfbench/run.py --workload build --seed 1 --seconds 20 --trace 0

Run from a source checkout; the library is imported from ``src/``.  Each job
is a ``crystals`` command line run in-process through ``crystals.cli.main``
as a single-client closed loop: the next job starts when the previous one
returns.  Every answer is checked against the committed table in
``expected/``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
replays the measured jobs with span wrappers installed and reports the
per-layer metrics.  Reported end-to-end times are scaled to a fixed machine
speed, measured by a reference task timed between jobs (``speed.py``).  The
last line of stdout is one JSON object with the result; a record of the run
is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from harness import Runner, mismatches, mutate, sha256
from population import WORKLOADS
from speed import REFERENCE_MS, SpeedProbe
from tracer import LAYER_METRICS, Totals, Tracer, install

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5

END_TO_END = [  # name, unit
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_ms.p50", "ms"),
    ("job_ms.p90", "ms"),
    ("peak_rss_mb", "MB"),
]


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_cli():
    """Import ``crystals.cli`` from this checkout's ``src/``, with the
    library's default thread count (``CRYSTAL_THREADS`` removed)."""
    src = ROOT / "src"
    if not (src / "crystals" / "cli.py").is_file():
        raise BenchmarkError(f"no crystals sources under {src}")
    os.environ.pop("CRYSTAL_THREADS", None)
    sys.path.insert(0, str(src))
    import crystals.cli

    if Path(crystals.cli.__file__).resolve().parent.parent != src.resolve():
        raise BenchmarkError(f"imported crystals from {crystals.cli.__file__}, not {src}")
    return crystals.cli


def environment() -> dict:
    from crystals.config import resolve_threads

    usable = len(os.sched_getaffinity(0))
    cpu_count = os.cpu_count() or 1
    return {
        "python": platform.python_version(),
        "cpu_count": cpu_count,
        "usable_cores": usable,
        "resolve_threads": resolve_threads(),
        "threads_flag": usable if cpu_count > usable else None,
    }


def check_definition() -> None:
    """Fail early when ``BENCHMARK.json`` and this script disagree."""
    definition = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = (
        [w["name"] for w in definition["workloads"]],
        [(m["name"], m["unit"]) for m in definition["end_to_end"]],
        [(m["name"], m["unit"], m["better"]) for m in definition["per_layer"]],
    )
    measured = (
        list(WORKLOADS),
        END_TO_END,
        [(m.name, m.unit, m.better) for m in LAYER_METRICS] + [("trace.overhead_ratio", "ratio", "lower")],
    )
    if declared != measured:
        raise BenchmarkError("BENCHMARK.json does not match the metrics this script reports")


def percentile(values: list[float], p: float) -> float:
    """The ``p`` quantile of ``values`` by the Harrell-Davis estimator: a mean
    of all order statistics, weighted by the Beta(p(n+1), (1-p)(n+1))
    density over each one's share of [0, 1].  Where jobs are few near the
    quantile, as near the 90th percentile of ``build`` and the median of
    ``product``, it moves far less from run to run than interpolating
    between the two nearest jobs."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 16  # midpoint rule within each order statistic's share
    total = weights = 0.0
    for i, x in enumerate(xs):
        weight = 0.0
        for k in range(steps):
            t = (i + (k + 0.5) / steps) / n
            weight += math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
        total += weight * x
        weights += weight
    return total / weights


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing ``crystals.cli`` from ``src/``:
    what every command-line invocation pays before it does any work."""
    env = {k: v for k, v in os.environ.items() if k != "CRYSTAL_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    start = time.perf_counter()
    # No timeout: with one, the wait polls in steps of up to 50 ms.
    subprocess.run([sys.executable, "-c", "import crystals.cli"], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - start


def set_up(cli, table: dict, workdir: Path, global_args: list[str]):
    """Fresh directories, the verify inputs, and one warm-up job.

    The warm-up is the job of median reference cost, so first-call costs
    are paid before timing.  Returns the runner and the problems found.
    """
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "run").mkdir(parents=True)
    (workdir / "inputs").mkdir()
    runner = Runner(cli, workdir / "run", workdir / "inputs", global_args)
    problems = []
    for step in table.get("setup", []):
        problems += [f"setup {step['id']}: {p}" for p in mismatches(step, runner.run(step))]
    for mutant in table.get("mutants", []):
        if sha256(mutate(runner, mutant)) != mutant["file_sha256"]:
            problems.append(f"mutant {mutant['file']}: file differs")
    ranked = sorted(table["jobs"], key=lambda j: (j["cost_ms"], j["id"]))
    warm = ranked[len(ranked) // 2]
    problems += [f"warm-up {warm['id']}: {p}" for p in mismatches(warm, runner.run(warm))]
    return runner, problems


def measure(runner, jobs: list[dict], seed: int, seconds: float, probe: SpeedProbe) -> dict:
    """Closed loop over passes of the population for ``seconds``, at least one
    whole pass.

    A pass runs every job once in a seeded order; the last pass stops when
    the time is up.  Every job runs at least once, and the metrics weigh
    every job the same however often it ran, so the job mix is the same for
    every seed.  Between jobs, outside their timing, ``probe`` samples the
    machine's speed.
    """
    rng = random.Random(seed)
    done = []  # (job, ms, answer digests, problems); outputs are not kept
    # Input units, and those used before in the same pass or the same run,
    # over whole passes.
    units = repeated_in_pass = repeated_in_run = 0
    seen_run: set[str] = set()
    start = time.perf_counter()
    whole = 0
    while not whole or time.perf_counter() - start < seconds:
        order = list(jobs)
        rng.shuffle(order)
        keys = [key for job in order for key in job["keys"]]
        for job in order:
            if whole and time.perf_counter() - start >= seconds:
                break
            outcome = runner.run(job)
            done.append((job, outcome.ms, outcome.answer(), mismatches(job, outcome)))
            probe.due()
        else:
            whole += 1
            units += len(keys)
            repeated_in_pass += len(keys) - len(set(keys))
            repeated_in_run += len(keys) - len(set(keys) - seen_run)
            seen_run.update(keys)
    return {
        "done": done,
        "passes": len(done) / len(jobs),
        "elapsed_s": time.perf_counter() - start,
        "repeat_share": repeated_in_pass / units,
        "run_repeat_share": repeated_in_run / units,
    }


def traced_replay(runner, done: list, seconds: float, scale: float,
                  record: Path) -> tuple[dict, list[str], int]:
    """Replay measured jobs with the tracer installed, for up to ``seconds``.

    ``scale`` takes the untraced run's times to the reference speed; the
    replay measures its own, so the overhead ratio leaves out the machine's
    speed drift.

    Returns the per-layer metrics, one problem line per job with a wrong
    answer or any byte difference from its untraced run, and the job count.
    """
    tracer = Tracer()
    probe = SpeedProbe()
    restore = install(tracer)
    problems = []
    untraced_ms = traced_ms = 0.0
    replayed = 0
    try:
        start = time.perf_counter()
        for job, untraced_job_ms, untraced_answer, _ in done:
            if replayed and time.perf_counter() - start >= seconds:
                break
            tracer.job = replayed
            outcome = runner.run(job)
            replayed += 1
            untraced_ms += untraced_job_ms
            traced_ms += outcome.ms
            probe.due()
            found = mismatches(job, outcome)
            if outcome.answer() != untraced_answer:
                found.append("output differs from the untraced run")
            if found:
                problems.append(f"traced {job['id']}: {'; '.join(found)}")
    finally:
        restore()
    tracer.write(record)
    totals = Totals(tracer, replayed)
    metrics = {m.name: (m.value(totals), m.unit) for m in LAYER_METRICS}
    metrics["trace.overhead_ratio"] = (traced_ms * probe.scale() / (untraced_ms * scale), "ratio")
    return metrics, problems, replayed


def run(args: argparse.Namespace) -> dict:
    cli = import_cli()
    check_definition()
    env = environment()
    table = json.loads((BENCH / "expected" / f"{args.workload}.json").read_text(encoding="utf-8"))
    global_args = [] if env["threads_flag"] is None else ["--threads", str(env["threads_flag"])]
    out = BENCH / "out"
    workdir = out / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        probe = SpeedProbe()
        setups, imports, problems = [], [], []
        probe.sample()
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            imported = import_seconds()
            runner, found = set_up(cli, table, workdir, global_args)
            setups.append(time.perf_counter() - start)
            imports.append(imported)
            problems += found
            probe.sample()
        loop = measure(runner, table["jobs"], args.seed, args.seconds, probe)
        done = loop["done"]
        problems += [f"{job['id']}: {'; '.join(found)}" for job, _, _, found in done if found]
        checks_per_setup = len(table.get("setup", [])) + len(table.get("mutants", [])) + 1
        attempted = len(done) + SETUP_REPEATS * checks_per_setup
        failed = len(problems)
        # Every time is taken at the reference speed, which takes out the
        # machine's speed drift (``speed.py``).  A job's time is its mean over
        # the run's passes: on a shared host the speed can change from one
        # millisecond to the next, and one run of a short job sees one speed.
        scale = probe.scale()
        runs_of: dict[str, list[float]] = {}
        for job, ms, _, _ in done:
            runs_of.setdefault(job["id"], []).append(ms * scale)
        job_ms = [statistics.fmean(times) for times in runs_of.values()]
        if args.trace:
            metrics, traced_problems, replayed = traced_replay(
                runner, done, args.seconds, scale, out / f"{tag}.spans.jsonl")
            problems += traced_problems
            attempted += replayed
            failed += len(traced_problems)
        else:
            metrics = {
                "setup_s": (statistics.median(setups) * scale, "s"),
                "jobs_per_s": (len(job_ms) / (sum(job_ms) / 1000), "1/s"),
                "job_ms.p50": (percentile(job_ms, 0.5), "ms"),
                "job_ms.p90": (percentile(job_ms, 0.9), "ms"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"setup_s samples {' '.join(f'{s:.3f}' for s in setups)} "
          f"(of which fresh-interpreter import {' '.join(f'{s:.3f}' for s in imports)})")
    print(f"jobs {len(done)} in {loop['passes']:.2f} passes, {loop['elapsed_s']:.2f} s "
          f"(job_ms samples: {len(job_ms)} jobs, each the mean of its runs); "
          f"repeat_share {loop['repeat_share']:.3f} within a pass, "
          f"{loop['run_repeat_share']:.3f} within the run")
    print(f"speed: reference task mean {probe.mean_ms():.3f} ms over {len(probe.samples)} samples; "
          f"end-to-end times are scaled by {scale:.4f} to the speed where it takes {REFERENCE_MS:g} ms")
    print(f"error_rate {failed / attempted:.4f} ({failed}/{attempted})")
    for problem in problems[:10]:
        print(f"  problem: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")

    out.mkdir(exist_ok=True)
    (out / f"{tag}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "environment": env, "setup_s": setups, "import_s": imports, "passes": loop["passes"],
        "reference_ms": probe.samples, "scale": scale,
        "repeat_share": loop["repeat_share"], "run_repeat_share": loop["run_repeat_share"],
        "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "jobs": [[job["id"], round(ms, 3)] for job, ms, _, _ in done],
    }, indent=1) + "\n", encoding="utf-8")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result = run(args)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
