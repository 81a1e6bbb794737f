"""How fast the shared host runs right now, from a fixed pure-Python probe.

The machines this benchmark runs on are shared: the speed of one and the same
Python loop drifts by 10-70% over minutes as other tenants come and go, and
jumps by 25% from one second to the next.  The probe is a fixed piece of work
that uses only the standard library (int and Fraction arithmetic, lists,
dicts, a sort), so no change to brandtlift can make it faster or slower.
run.py divides job times by probe times taken over the same seconds, to
report times at the host's reference speed.

Probes taken only between jobs sample a few tenths of a second out of each
pass, too few to follow the second-to-second jumps.  Sampler therefore also
runs a short probe from a SIGALRM handler every SAMPLE_EVERY_S seconds while
the jobs run, and keeps the time spent in the handler so that it can be taken
off the job times.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

# Seconds one round of probe() takes at the reference speed: a round figure
# near the fastest per-minute medians seen on the shared 2-core x86-64 host
# (Python 3.11) the benchmark was tuned on.  It is only a scale, so that a time
# at the reference speed reads about like a wall-clock time on that host;
# changing it rescales every time and makes earlier figures incomparable.
REFERENCE_ROUND_S = 0.000375

SAMPLE_EVERY_S = 0.2
SAMPLE_ROUNDS = 10


def probe(rounds: int = 200) -> float:
    """Runs the fixed work `rounds` times; returns the wall-clock seconds per round."""
    start = perf_counter()
    digits = []
    total = 0
    for _ in range(rounds):
        acc = Fraction(0)
        table = {}
        for i in range(1, 60):
            acc += Fraction(i % 97, i)
            table[i] = [i * j for j in range(8)]
            digits.append(acc.numerator % 1000003)
        for i in range(2000):
            total += i * i % 7
        sorted(table.items(), key=lambda kv: -kv[1][1])
    if sum(digits) + total < 0:  # consume the results inside the timed region
        raise AssertionError
    return (perf_counter() - start) / rounds


def at_reference_speed(seconds: float, round_times: list[float]) -> float:
    """`seconds` measured while probe rounds took `round_times` on average,
    scaled to the reference speed."""
    return seconds * REFERENCE_ROUND_S * len(round_times) / sum(round_times)


class Sampler:
    """Probes the host every SAMPLE_EVERY_S seconds while it is entered.

    `rounds` holds the per-round time of every probe taken, `busy` the
    seconds spent in the handler, to be taken off the work timed meanwhile.
    Main thread only, as Python runs signal handlers there.
    """

    def __init__(self):
        self.rounds: list[float] = []
        self.busy = 0.0

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        self.rounds.append(probe(SAMPLE_ROUNDS))
        self.busy += perf_counter() - start

    def __enter__(self) -> Sampler:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
