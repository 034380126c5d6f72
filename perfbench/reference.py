"""A fixed computation that gauges the host's speed at the moment.

On a shared host one core's speed drifts by tens of percent over minutes as
other tenants come and go.  The benchmark times this kernel right before
and right after every run and divides the run's time by it, so a run's cost
in reference units stays put while the host's speed moves.  The kernel does
the kinds of work mcfnet's hot paths do, a dict-keyed Dempster fold over
bitmask focal sets and small numpy products, so both slow down together.
It never calls mcfnet, so no change to the library moves it.
"""

from __future__ import annotations

import random
import time

import numpy as np

_rng = random.Random(0)
_BODIES = [{_rng.randrange(1, 63): m, 63: 1.0 - m} for m in (_rng.uniform(0.1, 0.9) for _ in range(120))]
_COUPLING = np.random.default_rng(0).uniform(-1.0, 1.0, size=(63, 63))


def kernel() -> float:
    acc = {63: 1.0}
    for body in _BODIES:
        nxt: dict[int, float] = {}
        for b1, m1 in acc.items():
            for b2, m2 in body.items():
                inter = b1 & b2
                if inter:
                    nxt[inter] = nxt.get(inter, 0.0) + m1 * m2
        total = sum(nxt.values())
        acc = {b: m / total for b, m in nxt.items() if m / total > 1e-12}
    v = np.full((63, 6), 1.0 / 6.0)
    for _ in range(300):
        v = 0.5 * (1.0 + np.tanh(_COUPLING.T @ v * 0.01))
    return sum(acc.values()) + float(v.sum())


def time_ms() -> float:
    """Wall time of one kernel call, in ms."""
    started = time.perf_counter()
    kernel()
    return (time.perf_counter() - started) * 1000.0
