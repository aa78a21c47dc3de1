"""Machine speed, measured between timed cells by a fixed pure-Python loop.

The 2-vCPU VM this benchmark was tuned on runs at a speed that wanders with
load on its host, in CPU time as much as in wall time: the median
``replan_warm`` pass took 0.23 s over one ten-second stretch and 0.13 s
over another less than a minute later.  Runs spread over half an hour then
disagree by more than any useful regression bound, however long each is.

:class:`SpeedMeter` times :func:`reference_rep` after every timed cell (a
cell's plan, run or load, or one set-up repetition) and scales the cell's
wall time by how much slower or faster the machine ran around it than
:data:`REFERENCE_REP_S`.  The loop uses nothing from ``src/``, so no change
to the program can move it: a program that gets slower reads slower by the
same share.
"""

from __future__ import annotations

import time
from typing import List

#: Median time of one :func:`reference_rep` on the 2-vCPU VM (Python 3.11)
#: the benchmark was tuned on.  Scaled times read in that machine's seconds.
REFERENCE_REP_S = 0.00135
#: A speed sample lasts at least this long ...
SAMPLE_MIN_S = 0.05
#: ... and at least this share of the cell timed just before it.
SAMPLE_SHARE = 0.25

perf_counter = time.perf_counter


def reference_rep() -> int:
    """A fixed slice of interpreter work: dict, tuple, list and int operations."""
    table = {}
    rows = []
    acc = 0
    for i in range(2800):
        key = (i * 2654435761) & 1023
        table[key] = table.get(key, 0) + i
        acc = (acc * 31 + key) & 0xFFFFFFFF
        if i & 7 == 0:
            rows.append((key, acc))
    rows.sort()
    return acc ^ len(table) ^ rows[0][1]


def sample(min_seconds: float) -> float:
    """Mean seconds per :func:`reference_rep` over at least ``min_seconds``."""
    reps = 0
    start = perf_counter()
    while True:
        reference_rep()
        reps += 1
        elapsed = perf_counter() - start
        if elapsed >= min_seconds:
            return elapsed / reps


class SpeedMeter:
    """Scales timed cells to reference-machine seconds.

    Each call to :meth:`scale` samples the machine's speed once, after the
    cell; the cell is scaled by the mean of that sample and the one before
    it.
    """

    def __init__(self) -> None:
        self.rep_s = sample(SAMPLE_MIN_S)
        #: Every sample taken, in seconds per rep.
        self.samples: List[float] = [self.rep_s]

    def scale(self, elapsed: float) -> float:
        """``elapsed`` wall seconds of the cell just timed, at reference speed."""
        before = self.rep_s
        self.rep_s = sample(max(SAMPLE_MIN_S, SAMPLE_SHARE * elapsed))
        self.samples.append(self.rep_s)
        return elapsed * REFERENCE_REP_S / ((before + self.rep_s) / 2)
