"""Job lists of the three workloads, made from a seed.

A job is one brandtlift command line plus the name of the output check
that applies to it.  Every workload is a closed loop in one process: the
next job starts when the previous one has returned.  The program never sees
the seed, only the argv lists made from it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    check: str  # key into checks.CHECKS

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _job(check: str, text: str) -> Job:
    return Job(tuple(text.split()), check)


EIGEN_170 = "--q 17 --m 10 --eigen-f 3:-2,7:2 --eigen-g 3:3"
EIGEN_174 = "--q 3 --m 58 --eigen-f 5:-3 --eigen-g 5:2"
EIGEN_222 = "--q 2 --m 111 --eigen-f 5:-4 --eigen-g 5:2"

# Long enough that ternary theta enumeration and the QSeries sums, not the
# class walk, dominate each deep-lift job.
DEEP_BOUND = 30000

# paper-check: the paper's two congruences (N=170, N=174) as users run them,
# plus N=222, whose Sturm bound 76 lies above the default count bound 60.
PAPER_CHECK = [
    _job("check_json", f"check {EIGEN_170} --ell 5 --json"),
    _job("check_json", f"check {EIGEN_174} --ell 5 --json"),
    _job("lift_golden", f"lift {EIGEN_170} --bound 99"),
    _job("lift_golden", f"lift {EIGEN_174} --bound 99"),
    _job("discover", "lift --q 17 --m 10 --discover"),
    _job("discover", "lift --q 3 --m 58 --discover"),
    _job("check_text", f"check {EIGEN_222} --ell 3"),
]

# deep-lift: one long ternary enumeration per class instead of many short
# searches; the Brandt work is one count pass per level.
DEEP_LIFT = [
    _job("lift_deep", f"lift {EIGEN_174} --bound {DEEP_BOUND}"),
    _job("lift_deep", f"lift {EIGEN_222} --bound {DEEP_BOUND}"),
    _job("check_json", f"check {EIGEN_174} --ell 5 --bound {DEEP_BOUND} --json"),
]

# class-walk: one level drawn from each stratum.  The two levels of a stratum
# are of one kind and cost the same within 4% (timed at the host's reference
# speed), so the draw changes the inputs but hardly the amount of work.
# Strata A are large ramified primes with m=1, where choose_presentation
# dominates; strata B are many-class composite levels, where the neighbour
# walk dominates.
CLASS_WALK_STRATA = [
    ("A1", [(107, 1), (109, 1)]),
    ("A2", [(127, 1), (131, 1)]),
    ("A3", [(137, 1), (139, 1)]),
    ("A4", [(157, 1), (163, 1)]),
    ("B1", [(3, 110), (3, 130)]),
    ("B2", [(5, 42), (5, 66)]),
]

# Two small jobs at N=11 (Mazur's Eisenstein congruence mod 5) that class-walk
# and deep-lift also run, about 0.4 s per pass, so that every traced layer
# does some work in every workload and no per-layer time reads 0.
PROBES = [
    _job("check_json", "check --q 11 --m 1 --eigen-f 2:-2 --eigen-g 2:3 --ell 5 --json"),
    _job("discover", "lift --q 11 --m 1 --discover"),
]

# Reference for the deep lifts below n=100 at N=222, which has no golden file.
LIFT222_BOUND99 = _job("lift_deep", f"lift {EIGEN_222} --bound 99")

WORKLOADS = ("paper-check", "class-walk", "deep-lift")


def _classes(level: tuple[int, int]) -> Job:
    return _job("classes", "classes --q {} --m {} --json".format(*level))


def pool(workload: str) -> list[Job]:
    """Every job the workload can draw, whatever the seed."""
    if workload == "paper-check":
        return list(PAPER_CHECK)
    if workload == "deep-lift":
        return DEEP_LIFT + PROBES
    if workload == "class-walk":
        return [_classes(level) for _, levels in CLASS_WALK_STRATA for level in levels] + PROBES
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The workload's job list for this seed: what is drawn and in which order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "class-walk":
        jobs = [_classes(rng.choice(levels)) for _, levels in CLASS_WALK_STRATA] + PROBES
    else:
        jobs = pool(workload)
    rng.shuffle(jobs)
    return jobs
