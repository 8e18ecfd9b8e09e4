"""Op timing on a shared machine: a speed detector and a fitted correction.

On a shared 2-core x86-64 machine the same code flips between a fast state
and one about 2x slower (for a pure-Python loop), for a fraction of a second
to tens of seconds at a time, at times for most of a minute.  Wall time and
CPU time show it alike; the cause is load outside this process.  So every
timed op runs inside a ``Sampler``: a fixed calibration kernel runs before
and after the op and every ``INTERVAL_S`` during it from a timer signal, and
each run gives the machine's *slowness* k at that moment: the kernel's time
over ``REFERENCE_S``, which lies midway between its times in the two states.
So k is about 0.7 in the fast state and 1.35 in the slow one.

Before each op the benchmark waits for the fast state (``wait_fast``), up to
the op's last duration and at most ``WAIT_S``, so more op time falls in it.
The kernel only detects the state; it does not say how much the program
slows.  Vectorised code slows less than the kernel, interpreter-bound code
about as much.  So the program's own sensitivity ``c`` is fitted from its op times:
an op that takes ``a`` seconds at k = 1 progresses at the rate
``1 / (1 + c (k - 1))`` while the slowness is k, so its measured time ``T``
gives ``a = T * mean(1 / (1 + c (k_i - 1)))`` over the samples k_i taken at
even intervals.  ``fit`` picks the c under which the repeated runs of each op
agree best.  A change to the program that changes how it slows changes the
fitted c, not the reported times.  Reported times are seconds at k = 1.  A
reference midway between the states keeps the correction short for both,
so an error in c moves them little.

The handler's own time is kept out of every measurement: ``clock()`` is
``perf_counter`` stopped while the handler runs.  Layer microbenchmarks use
the detector alone (``fast_median``): they keep the repeats with the lowest
slowness.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

# The kernel takes about 0.7 ms in the fast state of a shared 2-core x86-64
# machine and about 1.35 ms in its slow state.
REFERENCE_S = 1.0e-3
INTERVAL_S = 0.05
FAST = 1.0              # slowness below which the machine is in its fast state
C_GRID = np.linspace(0.0, 2.0, 201)
PRIOR = 0.03            # weight that keeps c near 1 when the runs cannot fix it
WAIT_S = 1.0            # longest wait for the fast state before an op
FIRST_WAIT_S = 0.2      # the same, before an op whose duration is not known yet

_X = np.linspace(0.1, 10.0, 15)
_paused = 0.0           # seconds spent in the signal handler so far


def clock() -> float:
    """``perf_counter`` minus the time spent in the sampler's signal handler.

    Retries if the handler ran between the two reads, which would otherwise
    pair an old ``perf_counter`` with a new ``_paused``.
    """
    while True:
        paused = _paused
        now = time.perf_counter()
        if paused == _paused:
            return now - paused


def slowness() -> float:
    """Time of a fixed interpreter-bound loop with 15-element numpy calls, over
    REFERENCE_S."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(150):
        acc += float(np.sum(np.exp(-_X * (i % 7 + 1)))) + math.sqrt(i + 1.0)
    return (time.perf_counter() - start) / REFERENCE_S


class Sampler:
    """Slowness samples on entry, on exit and from SIGALRM every INTERVAL_S.

    With ``timer=False`` only the entry and exit samples are taken.
    """

    def __init__(self, timer: bool = True):
        self.timer = timer
        self.samples = []
        self._previous = None

    def _handler(self, signum, frame):
        global _paused
        start = time.perf_counter()
        self.samples.append(slowness())
        _paused += time.perf_counter() - start

    def __enter__(self):
        self.samples = [slowness()]
        if self.timer:
            self._previous = signal.signal(signal.SIGALRM, self._handler)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(slowness())
        return False


def wait_fast(limit_s: float) -> float:
    """Poll until the machine is in its fast state or ``limit_s`` has passed;
    returns the last slowness seen."""
    end = time.perf_counter() + limit_s
    k = slowness()
    while k >= FAST and time.perf_counter() < end:
        k = slowness()
    return k


def rate(samples, c: float) -> float:
    """Mean progress rate over the samples, relative to the rate at k = 1."""
    return sum(1.0 / max(0.1, 1.0 + c * (k - 1.0)) for k in samples) / len(samples)


def fit(runs) -> float:
    """The sensitivity c under which repeated runs of each op agree best.

    ``runs`` holds (op index, seconds, slowness samples) for every op run;
    the objective is the mean square deviation of log(corrected time) from
    its op's mean, plus ``PRIOR * (c - 1)^2``.  A run whose ops all ran in
    one state cannot tell c apart: there the noise of the kernel's samples
    alone would pull c towards 0, and the prior keeps it near the kernel's
    own sensitivity of 1 instead.
    """
    by_op = {}
    for op, seconds, samples in runs:
        by_op.setdefault(op, []).append((math.log(seconds), samples))
    groups = [g for g in by_op.values() if len(g) > 1]
    if not groups:
        return 1.0

    count = sum(len(g) for g in groups)
    lowest = min(k for _, _, samples in runs for k in samples)

    def spread(c):
        if 1.0 + c * (lowest - 1.0) < 0.1:     # where the rate model breaks down
            return math.inf
        total = 0.0
        for g in groups:
            logs = [t + math.log(rate(s, c)) for t, s in g]
            mean = sum(logs) / len(logs)
            total += sum((x - mean) ** 2 for x in logs)
        return total / count + PRIOR * (c - 1.0) ** 2

    return float(min(C_GRID, key=spread))


def fast_median(measure, keep: int = 3, tries: int = 40) -> float:
    """Median of the ``keep`` results of ``measure()`` taken at the lowest
    slowness, repeating until ``keep`` of them fall in the fast state or
    ``tries`` have been made."""
    taken = []
    while len(taken) < tries:
        with Sampler(timer=False) as sampler:
            value = measure()
        taken.append((max(sampler.samples), value))
        if sum(k < FAST for k, _ in taken) >= keep:
            break
    return statistics.median(v for _, v in sorted(taken)[:keep])
