"""A fixed reference routine that sets the time scale of every timing.

The host this benchmark was built on changes speed by a third or more for
seconds to minutes at a time, with no process of its own in the way: a
plain Python loop slows as much in CPU time as in wall time.  No estimator
over raw times within one run undoes that.  So each timed piece of work is
followed at once by this routine, and its time is reported in reference
milliseconds: ``raw * REFERENCE_NS / reference time``.  Where the routine
takes ``REFERENCE_NS``, a reference millisecond is a wall millisecond.

The routine uses only the benchmark's own code and the standard library,
so no change to modsat can change it.  It does the two kinds of work
modsat's layers do: a list-and-tuple search (the benchmark's own DPLL on a
fixed formula) and exact ``Fraction`` arithmetic.
"""

from __future__ import annotations

import gc
import random
import time
from fractions import Fraction

import checks

# A round figure near the routine's median time between operations on the
# host the figures in README.md come from (1.2 to 1.5 ms; 2 vCPUs of a
# 2.1 GHz Xeon, Python 3.11), so that reference and wall milliseconds are
# close there.
REFERENCE_NS = 1_400_000


def _formula(num_vars: int, num_clauses: int, seed: int) -> list[tuple[int, ...]]:
    rng = random.Random(seed)
    return [
        tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, num_vars + 1), 3))
        for _ in range(num_clauses)
    ]


NUM_VARS = 14
CLAUSES = _formula(NUM_VARS, 60, 2012)


def routine() -> Fraction:
    checks.search_sat(NUM_VARS, CLAUSES)
    acc = Fraction(0)
    for i in range(1, 80):
        acc += Fraction(i, i + 3) * Fraction(2 * i + 1, 7)
    return acc


def time_ns() -> int:
    """One timed run of the routine, with the cyclic garbage collector off,
    so that the size of the caller's heap does not enter its time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        routine()
        return time.perf_counter_ns() - t0
    finally:
        if enabled:
            gc.enable()
