"""A fixed pure-Python task that gauges how fast the host runs Python now.

On a small shared host, other tenants' work slows this process down, and
by much more for code that walks dicts and heaps than for a tight loop.
On a 2-vCPU VM this task's time swung between about 1x and 2x within a
second, and its mean over a 24-second run moved by a tenth to a quarter
(quartile spread over median) between runs minutes apart.  That would
show as a regression or a gain between two runs of the same code.

The replay and the set-up therefore run ``task`` between their timed
pieces of work, outside the timers, for about ``SHARE`` of the time those
took (see ``Gauge``), so that the task meets the same slow-downs as the
work.  The times are then multiplied by ``NOMINAL_S`` over the task's mean
time (see ``scale``) and read as seconds on a host on which the task takes
``NOMINAL_S``.  The mean, not the median, because the slow-downs come in
bursts shorter than an operation, and an operation's time is their mean
over its length.  Scaling each piece of work by the task times nearest to
it instead did no better over six sets of ten runs.

The task never calls the program, so a change to the program moves only
the scaled time, never the scale.  It builds small dicts of tuples to
Fractions, sums, sorts and formats them, which is the kind of work the
program does when it parses and solves, so both slow down together.  Its
tables stay small so that it never sets the replaying process's peak RSS.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.07  # about the task's time on an unloaded 2-vCPU Xeon VM
SHARE = 0.3  # the task's time as a share of the timed work's time
ENTRIES = 2000
ROUNDS = 8


def task() -> int:
    out = 0
    for r in range(ROUNDS):
        rng = random.Random(r)
        table = {}
        for i in range(ENTRIES):
            table[(i, rng.randrange(1000))] = Fraction(rng.randrange(1, 64), rng.randrange(1, 64))
        total = sum(table.values())
        keys = sorted(table, key=lambda k: (k[1], -k[0]))
        text = " ".join(f"{k[0]}:{table[k]}" for k in keys[: ENTRIES // 4])
        out += total.denominator + len(text.split())
    return out


def measure() -> float:
    """One timed run of ``task``, on a collected heap like an operation."""
    gc.collect()
    start = time.perf_counter()
    task()
    return time.perf_counter() - start


class Gauge:
    """Samples the host's speed between pieces of timed work.

    After each piece, ``after`` runs ``task`` until the task's total time
    is ``SHARE`` of the work's, so the samples are spread over the run as
    the work is.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.work_s = 0.0

    def after(self, seconds: float) -> None:
        self.work_s += seconds
        while sum(self.times) < SHARE * self.work_s:
            self.times.append(measure())


def scale(times: list[float]) -> float:
    """The factor that turns times measured beside these task times into
    seconds on the nominal host."""
    return NOMINAL_S / statistics.mean(times)
