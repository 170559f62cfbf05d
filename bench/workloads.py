"""Job lists and the per-job oracle for the pathalg benchmark.

A job is one ``pathalg`` command line.  A workload turns (seed, pass
index) into a list of jobs; the program sees only the generated argv.
``check`` decides from the exit code and the captured output whether a
job gave the answer the paper predicts.

The generated inputs stay inside the range that completes at this
commit and use no option that the roadmap retires: no ``--jobs``, no
``--weight-bound`` and no ``PATHALG_*`` environment override.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

OK, WRONG, ERROR = "ok", "wrong", "error"


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    expect_rc: int
    expect_text: tuple[str, ...] = ()

    def command(self) -> str:
        return "pathalg " + " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[random.Random], list[Job]]
    # seconds one pass took at this commit on a 2-core x86-64 virtual
    # machine, at its slower times; fixes how many passes a run makes
    pass_s: float


def verify_job(n: int, max_degree: int | None = None) -> Job:
    """Odd n verifies (exit 0).  Even n records the discrepancy (exit 1)
    and must list both predicted repairs, with n letters H."""
    argv = ("verify", "--n", str(n))
    if max_degree is not None:
        argv += ("--max-degree", str(max_degree))
    if n % 2:
        return Job(argv, 0)
    h = "H" * n
    return Job(argv, 1, (f"{{{h}T -> 0, {h}Y -> 0}}",
                         f"{{{h}T -> {h}, {h}Y -> 0}}"))


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(1_000_000))


# verify-deep: two 21-wide windows of the degree bound inside 500..900.
# Narrow windows keep the work of a pass nearly the same for every seed;
# D >= 1000 overflows the recursive enumerator for n = 1.
DEEP_DEGREES = (560, 840)
DEEP_JITTER = 10


def _verify_deep(rng: random.Random) -> list[Job]:
    jobs = [verify_job(n, d + rng.randint(-DEEP_JITTER, DEEP_JITTER))
            for n in range(1, 7) for d in DEEP_DEGREES]
    rng.shuffle(jobs)
    return jobs


def _verify_wide(rng: random.Random) -> list[Job]:
    jobs = [verify_job(n) for n in range(1, 21)]
    rng.shuffle(jobs)
    return jobs


# index: (k, n) pairs; the Hessian dimension is 2n * max(8, 4k + 4), from
# 16 at (0, 1) to 80 at (4, 2).  The roadmap's largest case, (4, 5) at
# dimension 200, is left out: one job of it took half a pass, and the
# median and tail job times, drawn from two samples per pair, spread
# past their bound from run to run.
INDEX_GRID = ((0, 1), (1, 1), (2, 1), (3, 1), (4, 1),
              (0, 2), (1, 2), (2, 2), (3, 2), (4, 2),
              (0, 3), (1, 3), (2, 3))


def _index(rng: random.Random) -> list[Job]:
    jobs = [Job(("geom", "index", "--n", str(n), "--k", str(k),
                 "--seed", _seed(rng)), 0) for k, n in INDEX_GRID]
    rng.shuffle(jobs)
    return jobs


# sampling: one seed per job, drawn without filtering, so the known
# "tangent vector must be orthogonal to the base" failure of
# random_real_tangent at n = 1 shows in failed_ratio
SAMPLING_SUITES = (("concat-check", 60), ("halfcircle-check", 20),
                   ("yk-check", 100))
SAMPLING_ROUNDS = 8


def _sampling(rng: random.Random) -> list[Job]:
    return [Job(("geom", suite, "--trials", str(trials), "--seed", _seed(rng)), 0)
            for _ in range(SAMPLING_ROUNDS) for suite, trials in SAMPLING_SUITES]


WORKLOADS = {w.name: w for w in (
    Workload("verify-deep", _verify_deep, 6.6),
    Workload("verify-wide", _verify_wide, 1.15),
    Workload("index", _index, 3.3),
    Workload("sampling", _sampling, 3.3),
)}


def jobs(workload: str, seed: int, pass_index: int) -> list[Job]:
    """The job list of one pass; the same arguments give the same list."""
    rng = random.Random(f"{workload}/{seed}/{pass_index}")
    return WORKLOADS[workload].make(rng)


def check(job: Job, rc: int | None, out: str, err: str) -> tuple[str, str]:
    """Classify one finished job as OK, WRONG (an answer other than the
    predicted one) or ERROR (no answer: an exception or exit code 2)."""
    if rc is None or rc == 2:
        lines = err.strip().splitlines()
        return ERROR, lines[-1] if lines else f"exit {rc}"
    if rc != job.expect_rc:
        return WRONG, f"exit {rc}, expected {job.expect_rc}"
    missing = [t for t in job.expect_text if t not in out]
    if missing:
        return WRONG, "missing " + ", ".join(missing)
    return OK, ""
