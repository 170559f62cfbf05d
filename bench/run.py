"""pathalg benchmark.

Runs one workload as passes over a list of ``pathalg`` command lines,
each one call of ``pathalg.cli.main(argv)`` in this process with stdout
captured, checks every job's answer, and prints its metrics.  The last
line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.

    python3 bench/run.py --workload verify-deep --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it reports the end-to-end metrics, every timing scaled
to a reference host speed (see ``HostSpeed``); with ``--trace 1``
it runs each pass once plain and once traced and reports per-layer self
times and work counts.  Without ``--workload`` it runs every workload,
each in its own process.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import io
import json
import math
import os

# one process, no extra threads: numpy's BLAS must not start workers that
# compete with the jobs for the host's few cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy

import spans
import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_PROBES = 7
# reference loop run before and after each set-up probe: a tenth of the
# 0.25 s a probe takes
SETUP_REFERENCE_S = 0.25
# the setup a user of the pathalg command pays before the first job:
# interpreter start, importing pathalg.cli (with numpy), building the parser
SETUP_PROBE = ("import time\nfrom pathalg import cli\ncli.build_parser()\n"
               "print(time.monotonic())")

# the reference loop: its nominal time, and how much of it to run after
# each job, as a share of the job's time
REFERENCE_S = 0.0036
REFERENCE_SHARE = 0.1
# seconds before and after a job whose samples set that job's scale
REFERENCE_WINDOW = 0.25

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("job_s.p50", "s"),
              ("job_s.tail", "s"), ("peak_rss_mb", "MB")]


class ProgramMissing(Exception):
    pass


def import_program():
    """Import pathalg from this checkout's src directory, never from an
    installed copy."""
    if not (SRC / "pathalg" / "cli.py").is_file():
        raise ProgramMissing(f"no pathalg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from pathalg import cli, geometry, homology, rewriting
    if SRC not in Path(cli.__file__).resolve().parents:
        raise ProgramMissing(f"pathalg was imported from {cli.__file__}")
    return cli, {"rewriting": rewriting, "homology": homology,
                 "geometry": geometry}


@dataclass
class Result:
    job: workloads.Job
    label: str
    start: float
    seconds: float
    status: str
    detail: str


_REF_MATRIX = numpy.arange(36.0).reshape(6, 6) / 36
_REF_VECTOR = numpy.ones(6)


def reference_loop() -> float:
    """Time one fixed loop, about REFERENCE_S seconds on a 2-core x86-64
    virtual machine: half pure-Python integer arithmetic, half calls on
    small numpy arrays, the two kinds of work pathalg does."""
    start = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i % 7
    for _ in range(500):
        total += numpy.linalg.norm(_REF_MATRIX @ _REF_VECTOR)
    return time.perf_counter() - start


class HostSpeed:
    """Timed samples of the reference loop, taken between jobs.

    The host's speed drifts by up to 2x from one minute to the next, and
    the program slows with it.  Running the reference loop after each
    job for a tenth of that job's time samples the host evenly in time;
    ``scale`` turns seconds measured in an interval into seconds at the
    reference speed, from the samples within REFERENCE_WINDOW of it."""

    def __init__(self):
        self.starts: list[float] = []
        self.samples: list[float] = []

    def sample(self, seconds: float) -> None:
        spent = 0.0
        while spent == 0.0 or spent < REFERENCE_SHARE * seconds:
            self.starts.append(time.perf_counter())
            self.samples.append(reference_loop())
            spent += self.samples[-1]

    def scale(self, start: float = -math.inf, end: float = math.inf) -> float:
        lo = bisect.bisect_left(self.starts, start - REFERENCE_WINDOW)
        hi = bisect.bisect_right(self.starts, end + REFERENCE_WINDOW)
        return REFERENCE_S / statistics.median(self.samples[lo:hi])


def run_job(cli, job: workloads.Job, label: str) -> Result:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(list(job.argv))
    except Exception as exc:  # a job that raises is a failed job
        rc = None
        err.write(f"{type(exc).__name__}: {exc}\n")
    seconds = time.perf_counter() - start
    status, detail = workloads.check(job, rc, out.getvalue(), err.getvalue())
    return Result(job, label, start, seconds, status, detail)


def run_pass(cli, jobs, pass_index: int, tracer=None, totals=None,
             speed: HostSpeed | None = None):
    """Run one job list.  With a tracer, add its spans to totals after the
    clock stops, and the time no cli.main span covers to bench.self_s.
    With a HostSpeed, sample it before the first job and after each job;
    the returned wall time then leaves the samples out."""
    results = []
    if speed is not None:
        speed.sample(0.0)
    start = time.perf_counter()
    for i, job in enumerate(jobs):
        label = f"pass {pass_index} job {i}"
        if tracer is not None:
            tracer.job = label
        results.append(run_job(cli, job, label))
        if speed is not None:
            speed.sample(results[-1].seconds)
    wall = time.perf_counter() - start
    if speed is not None:
        wall = sum(r.seconds for r in results)
    if tracer is not None:
        recorded = tracer.take()
        spans.accumulate(recorded, totals)
        totals["bench.self_s"] += wall - sum(s.end - s.start for s in recorded
                                             if s.parent < 0)
    return wall, results


def measure_setup() -> float:
    """Median over fresh processes of the time from launch to a built
    parser, read on the system-wide monotonic clock and scaled to the
    reference speed sampled around each process."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([path] if path else [])))
    values = []
    for _ in range(SETUP_PROBES):
        speed = HostSpeed()
        speed.sample(SETUP_REFERENCE_S)
        start = time.monotonic()
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        seconds = float(done.stdout.split()[-1]) - start
        speed.sample(SETUP_REFERENCE_S)
        values.append(seconds * speed.scale())
    return statistics.median(values)


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest sample that still leaves at least ten samples above it,
    with its percentile (share of samples at or below it); the maximum
    when there are ten samples or fewer."""
    xs = sorted(samples)
    if len(xs) <= 10:
        return xs[-1], 100.0
    return xs[-11], 100.0 * (len(xs) - 10) / len(xs)


def passes(workload: str, seconds: int) -> int:
    """A fixed number of passes for a run length, so that every run of a
    workload does the same work and has the same sample count."""
    return max(1, round(seconds / workloads.WORKLOADS[workload].pass_s))


def report(results: list[Result]) -> tuple[int, int]:
    failed = [r for r in results if r.status != workloads.OK]
    for r in failed:
        print(f"FAILED {r.label}: {r.job.command()} -> {r.status}: {r.detail}")
    return len(results), len(failed)


def emit(correct: bool, attempted: int, failed: int,
         metrics: dict[str, float], units: list[tuple[str, str]]) -> None:
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units}}))


def run_plain(cli, workload: str, seed: int, seconds: int) -> None:
    setup_s = measure_setup()
    speed = HostSpeed()
    walls, raw_walls, times, results = [], [], [], []
    for p in range(passes(workload, seconds)):
        wall, res = run_pass(cli, workloads.jobs(workload, seed, p), p,
                             speed=speed)
        scaled = [r.seconds * speed.scale(r.start, r.start + r.seconds)
                  for r in res]
        walls.append(sum(scaled))
        raw_walls.append(wall)
        times += [t for t, r in zip(scaled, res) if r.status == workloads.OK]
        results += res
    tail_s, tail_pct = tail(times) if times else (0.0, 0.0)
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "job_s.p50": statistics.median(times) if times else 0.0,
        "job_s.tail": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    attempted, failed = report(results)
    print(f"workload {workload}, seed {seed}: {len(walls)} passes, "
          f"{attempted} jobs; timings at the reference speed "
          f"({REFERENCE_S * 1000:.1f} ms per reference loop)")
    notes = {"job_s.tail": f"p{tail_pct:.1f} of {len(times)} samples",
             "job_s.p50": f"{len(times)} samples",
             "wall_s": f"median of {len(walls)} passes "
                       f"(unscaled {statistics.median(raw_walls):.4f} s)",
             "setup_s": f"median of {SETUP_PROBES} processes"}
    for name, unit in END_TO_END:
        print(f"  {name:<14} {metrics[name]:12.4f} {unit:<6} {notes.get(name, '')}")
    print(f"  {'failed_ratio':<14} {failed / attempted:12.4f} {'ratio':<6} "
          f"{failed} of {attempted} jobs")
    wrong = any(r.status == workloads.WRONG for r in results)
    emit(not wrong, attempted, failed, metrics, END_TO_END)


def run_traced(cli, layers, workload: str, seed: int, seconds: int) -> None:
    totals = defaultdict(int)
    tracer = spans.Tracer(layers, cli)
    plain_wall = traced_wall = 0.0
    results, same = [], True
    for p in range(max(1, passes(workload, seconds) // 2)):
        jobs = workloads.jobs(workload, seed, p)
        wall, plain = run_pass(cli, jobs, p)
        plain_wall += wall
        with tracer:
            wall, traced = run_pass(cli, jobs, p, tracer, totals)
        traced_wall += wall
        same = same and [r.status for r in plain] == [r.status for r in traced]
        results += plain + traced
    totals["trace.wall_s"] = traced_wall
    totals["trace.overhead_s"] = traced_wall - plain_wall
    metrics = spans.layer_metrics(totals)
    attempted, failed = report(results)
    if not same:
        print("MISMATCH: a traced job ended differently from its plain run")
    print(f"workload {workload}, seed {seed}: per-layer totals over the "
          f"traced passes ({attempted // 2} jobs)")
    for name, unit in spans.PER_LAYER:
        print(f"  {name:<40} {metrics[name]:14.4f} {unit}")
    covered = sum(v for k, v in metrics.items()
                  if k.endswith(".self_s"))
    print(f"  self times sum to {covered:.6f} s of trace.wall_s {traced_wall:.6f} s")
    wrong = any(r.status == workloads.WRONG for r in results)
    emit(same and not wrong, attempted, failed, metrics, spans.PER_LAYER)


def run_all(args) -> int:
    worst = 0
    for name in workloads.WORKLOADS:
        done = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds",
                               str(args.seconds), "--trace", str(args.trace)])
        worst = max(worst, done.returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="default: every workload, one process each")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload is None:
        return run_all(args)
    try:
        cli, layers = import_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        run_traced(cli, layers, args.workload, args.seed, args.seconds)
    else:
        run_plain(cli, args.workload, args.seed, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
