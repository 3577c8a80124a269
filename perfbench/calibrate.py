"""Machine-speed probe sampled while solves run.

On a shared host the same solve can take twice as long from one second to
the next, because other tenants contend for the core. A timer signal
interrupts the solve every `INTERVAL` seconds and runs `kernel`, a fixed
piece of pure-Python work, between two bytecodes of the game. A solve's
time divided by the kernel's time measured during that solve is its cost
in "cal" units, which keeps the program's speed and drops most of the
host's. The kernel mixes the two kinds of work the game does: building,
sorting and relabelling small named tuples, and exact Fraction sums. It
uses nothing from acnbounds, so a change to the package never moves it.
"""

from __future__ import annotations

import random
import signal
from fractions import Fraction
from time import perf_counter
from typing import NamedTuple

INTERVAL = 0.1

_HALF, _P, _Q = Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)


class _Event(NamedTuple):
    round: int
    packet: int
    kind: int
    msg: object = None


def kernel() -> int:
    kept = 0
    for rep in range(4):
        rng = random.Random(rep)
        events = [_Event(rng.randrange(50), i, rng.randrange(7))
                  for i in range(300)]
        events.sort(key=lambda e: (e.round, e.kind, e.packet))
        ids = {}
        relabelled = tuple(e._replace(packet=ids.setdefault(e.packet, len(ids)))
                           for e in events)
        kept += sum(1 for e in relabelled if e.kind < 5)
    total = Fraction(0)
    for i in range(120):
        prob = Fraction(1, 3)
        for bit in range(4):
            prob *= _Q if (i >> bit) & 1 else _P
        total += _HALF * prob * (_HALF if i % 5 else Fraction(1))
    return kept + total.denominator


class Calibrator:
    """Context manager that runs `kernel` on a timer and sums its time."""

    def __init__(self):
        self.busy = 0.0
        self.slices = 0

    def _tick(self, signum, frame):
        t0 = perf_counter()
        kernel()
        self.busy += perf_counter() - t0
        self.slices += 1

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
