"""Calibration probe: how fast the machine runs relaymatch-like code now.

The reference machine (2 shared cores) changes speed by up to 40 % in
phases lasting tens of seconds, so raw wall times of one workload spread
by 15-25 % from run to run. A fixed piece of code with the same mix as
relaymatch's hot paths (numpy Generator calls with Python glue, as in PMA
proposals; a pure-Python enumeration loop with sigmoid evaluations, as in
exhaustive search; numpy scalar indexing, as in global_satisfaction) is
timed next to the measured work, and each measured time t is reported as
t * REF_PROBE_S / probe time. The probe never calls relaymatch, so a
change to relaymatch moves the scaled times in the same proportion as
the raw ones.
"""

from __future__ import annotations

import itertools
import math
from time import perf_counter

import numpy as np

#: probe time the scaled times are expressed at: about its time on the
#: reference machine in a fast phase
REF_PROBE_S = 0.0008

_CAPS = [[(1 + (n * 7 + l * 3) % 11) * 1e6 for l in range(10)] for n in range(13)]
_LOADS = [1, 2, 0, 3, 1, 1, 2, 0, 1, 2]


def _probe_once() -> float:
    t0 = perf_counter()
    rng = np.random.default_rng(12345)
    total = 0.0
    for n in range(13):                       # PMA-like proposals
        row = _CAPS[n]
        w = np.asarray([row[l] / (_LOADS[l] + 1) for l in range(10)])
        idx = np.flatnonzero(w > 0)
        size = int(rng.integers(1, 3))
        pick = rng.choice(idx, size=size, replace=False, p=w[idx] / w[idx].sum())
        rate = 0.0
        for l in sorted(int(i) for i in pick):
            rate += row[l] / (_LOADS[l] + 1)
        total += 1.0 / (1.0 + math.exp(-(rate * 1e-6 - 12.5)))
    spaces = [[(), (0,), (1,), (2,), (0, 1)], [(), (1,), (2,), (1, 2)],
              [(), (0,), (2,), (0, 2)], [(), (0,), (1,)]]
    for combo in itertools.product(*spaces):  # exhaustive-like enumeration
        loads = [0, 0, 0]
        for strat in combo:
            for l in strat:
                loads[l] += 1
        for n, strat in enumerate(combo):
            rate = 0.0
            for l in strat:
                rate += _CAPS[n][l] / loads[l]
            total += 1.0 / (1.0 + math.exp(-(rate * 1e-6 - 12.5)))
    caps = np.asarray(_CAPS)
    for k in range(40):                       # numpy-scalar recomputes, as in
        loads = np.zeros(10, dtype=np.int64)  # global_satisfaction
        for n in range(4):
            loads[(n + k) % 10] += 1
        for n in range(4):
            l = (n + k) % 10
            total += caps[n, l] / loads[l]
    return perf_counter() - t0


def probe(repeats: int = 3) -> float:
    """Fastest of `repeats` probe runs, in seconds."""
    return min(_probe_once() for _ in range(repeats))
