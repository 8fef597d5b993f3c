"""ctxfam benchmark: one workload, one seed, one closed-loop run.

Usage, from the root of a ctxfam checkout:

    python3 perfbench/run.py --workload cycle-realise --seed 1 --seconds 20 --trace 0

The run generates the workload's documents from the seed, measures a
fresh ``python -m ctxfam.cli`` start-up (``setup_s``), then runs jobs
through ``ctxfam.cli.main(argv)`` in this process, one after the other
(one client, closed loop): as many whole passes of the workload as take
about ``--seconds`` at this commit (see ``workloads.PASS_S``).  Every
output is then checked independently (``checker.py``).  With ``--trace
0`` it prints the end-to-end metrics, with times at the nominal pace of
``pace.py`` and quantiles by ``quantile.py``; with ``--trace 1`` each job runs
once untraced and once traced, and the per-layer metrics are printed.
The last line of stdout is the JSON result; each run is also appended,
with its environment, to ``perfbench/_out/results.jsonl``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import workloads
from checker import CheckError
from pace import Pace
from quantile import harrell_davis
from spans import OverBudget, Tracer

ROOT = Path.cwd()
OUT = ROOT / "perfbench" / "_out"

SETUP_RUNS = 9
EDGE_REFERENCES = 8  # reference calls before and after each fresh CLI process and pass
TRACE_COST = 2.0
TEACHING = """monoid B
context Student Teacher
Alice Charlie
Bob David
context Teacher Course
Charlie Math
David CS
context Course Student
Math Alice
CS Alice
CS Bob
"""


@dataclass
class Run:
    """One execution of a job: when it started, seconds until it returned
    or was stopped (less any reference calls made inside it), the output,
    and the layer whose span was open when the budget ran out."""

    start: float
    seconds: float
    output: Optional[Tuple[int, str]]
    over_layer: Optional[str] = None
    error: Optional[str] = None


def on_alarm(tracer: Optional[Tracer]):
    def handler(_signum, _frame):
        raise OverBudget(tracer.open_layer() if tracer else "cli")
    return handler


def execute(job: workloads.Job, budget: float, tracer: Optional[Tracer],
            pace: Optional[Pace] = None) -> Run:
    """Run one job with the budget timer armed and stdout captured.  With
    ``pace``, the reference routine is sampled inside the job, and the
    time it took there is not counted in the job's time."""
    from ctxfam import cli

    def elapsed() -> float:
        end = time.perf_counter()
        return end - start - (pace.inside(start, end) if pace is not None else 0.0)

    signal.signal(signal.SIGALRM, on_alarm(tracer))
    buffer = io.StringIO()
    span = tracer.open("cli.main") if tracer and job.argv else None
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, budget)
        if pace is not None:
            pace.arm()
        try:
            with redirect_stdout(buffer), redirect_stderr(io.StringIO()):
                value = cli.main(job.argv) if job.argv is not None else job.call()
        finally:
            if pace is not None:
                pace.disarm()
            signal.setitimer(signal.ITIMER_REAL, 0)
            seconds = elapsed()
            if span is not None:
                tracer.close(span)
    except OverBudget as exc:
        return Run(start, elapsed(), None, over_layer=exc.args[0])
    except (Exception, SystemExit) as exc:  # a crash is a failed job, not a failed run
        return Run(start, elapsed(), None, error=f"{type(exc).__name__}: {exc}")
    if job.argv is not None:
        return Run(start, seconds, (value, buffer.getvalue()))
    return Run(start, seconds, job.render(value))


def measure_setup(work: Path) -> float:
    """Median time, at nominal pace, of a fresh CLI process deciding the
    teaching family."""
    doc = work / "teaching.fam"
    doc.write_text(TEACHING)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    command = [sys.executable, "-m", "ctxfam.cli", "global", str(doc)]
    pace = Pace()
    starts = []
    for attempt in range(SETUP_RUNS + 1):
        pace.tick(EDGE_REFERENCES)
        start = time.perf_counter()
        done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)
        seconds = time.perf_counter() - start
        if done.returncode != 1 or done.stdout != "globally inconsistent\n":
            raise SystemExit(f"teaching family: unexpected CLI result {done.returncode} "
                             f"{done.stdout!r} {done.stderr!r}")
        if attempt:  # the first start compiles bytecode; users pay that once
            starts.append((start, seconds))
    pace.tick(EDGE_REFERENCES)
    return statistics.median(seconds * pace.scale(start, seconds) for start, seconds in starts)


def check_all(jobs: List[workloads.Job], runs: Dict[int, Run],
              traced: Dict[int, Run]) -> Dict[int, str]:
    """Check every job whose run finished; its traced run, if any, must
    print the same bytes.  Returns the first problem of each failing job."""
    def output(index: int) -> Tuple[Optional[int], str]:
        found = (r.output for r in (runs[index], traced.get(index)) if r and r.output)
        return next(found, (None, ""))

    problems = {}
    for job in jobs:
        done = [r for r in (runs[job.index], traced.get(job.index)) if r and r.over_layer is None]
        errors = [r.error for r in done if r.error]
        outputs = [r.output for r in done if r.output is not None]
        if any(o != outputs[0] for o in outputs):
            errors.append("traced output differs from the untraced one")
        if outputs:
            try:
                job.check(outputs[0], lambda k: output(job.group[k].index))
            except CheckError as exc:
                errors.append(str(exc))
        if errors:
            problems[job.index] = f"job {job.index} {job.name}: {errors[0]}"
    return problems


def tail_share(jobs: int) -> float:
    """The highest percentile, as a share, with at least ten jobs beyond it."""
    return max(jobs - 10, 1) / jobs


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.exists():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not (ROOT / "src" / "ctxfam" / "cli.py").is_file():
        print("error: run from the root of a ctxfam checkout (src/ctxfam is missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "started": time.time(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "loadavg": os.getloadavg()[0], "commit": commit(),
        "budget_s": workloads.BUDGET_S[args.workload],
    }
    print("run " + json.dumps(info), flush=True)

    OUT.mkdir(parents=True, exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        result = measure(args, work, info)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as log:
        log.write(json.dumps({**info, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


def measure(args, work: Path, info: dict) -> dict:
    budget = workloads.BUDGET_S[args.workload]
    setup = None if args.trace else measure_setup(work)
    from ctxfam import cli  # noqa: F401  -- imported before timing starts

    tracer = Tracer() if args.trace else None
    pace = Pace()
    jobs: List[workloads.Job] = []
    runs: Dict[int, Run] = {}
    traced_runs: Dict[int, Run] = {}
    over: Dict[str, int] = {}

    def one(job: workloads.Job) -> None:
        job.index = len(jobs)
        jobs.append(job)
        pace.tick()
        # The budget is nominal time, so an over-budget job does the same
        # work before it is stopped however fast the machine runs.
        limit = budget * pace.recent()
        # A traced run compares plain and traced executions, so neither
        # carries the reference samples.
        runs[job.index] = execute(job, limit, None, pace if tracer is None else None)
        if tracer is None:
            return
        tracer.job = job.index
        tracer.install()
        try:
            traced_runs[job.index] = execute(job, limit, tracer)
        finally:
            tracer.uninstall()
            tracer.settle()
        layer = traced_runs[job.index].over_layer
        if layer is not None:
            over[layer] = over.get(layer, 0) + 1

    # A traced run executes every job twice, once with spans, so it holds
    # fewer passes.
    cost = workloads.PASS_S[args.workload] * (TRACE_COST if args.trace else 1)
    passes = max(1, round(args.seconds / cost))
    for number in range(passes):
        batch = workloads.generate(args.workload, args.seed, number, work)  # not timed
        pace.tick(EDGE_REFERENCES)
        for job in batch:
            one(job)
        pace.tick(EDGE_REFERENCES)

    problems = check_all(jobs, runs, traced_runs)
    for line in list(problems.values())[:20]:
        print("FAIL " + line, file=sys.stderr)
    finished = [i for i, r in runs.items() if r.over_layer is None]
    slow = sorted({jobs[i].name for i, r in runs.items() if r.over_layer is not None})
    if slow:
        print("over budget: " + " ".join(slow), flush=True)
    info["passes"] = passes

    if tracer is not None:
        both = [i for i in finished if traced_runs[i].over_layer is None]
        plain = sum(runs[i].seconds for i in both)
        overhead = sum(traced_runs[i].seconds for i in both) / plain - 1.0 if plain else 0.0
        metrics = tracer.metrics(len(jobs), over, overhead)
        tracer.write(OUT / f"spans-{args.workload}.tsv.gz")
    else:
        # An over-budget job enters the percentiles at the budget.
        times = [budget if r.over_layer else r.seconds * pace.scale(r.start, r.seconds)
                 for r in runs.values()]
        share = tail_share(len(times))
        info.update(tail_percentile=round(100 * share, 2), tail_samples=len(times))
        metrics = {
            "setup_s": (setup, "s"),
            "verdict_p50_ms": (harrell_davis(times, 0.5) * 1000, "ms"),
            "verdict_tail_ms": (harrell_davis(times, share) * 1000, "ms"),
            "jobs_per_s": (len(finished) / sum(times), "1/s"),
            "ok_share": (len(set(finished) - set(problems)) / len(jobs), "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        print(f"tail: p{100 * share:.1f} of {len(times)} jobs", flush=True)
    print(f"jobs: {len(jobs)} attempted in {passes} passes, {len(finished)} within budget, "
          f"{len(problems)} failed checks", flush=True)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    return {
        "correct": not problems,
        "attempted": len(jobs),
        "failed": len(problems),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
