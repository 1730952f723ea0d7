"""Relay-selection solvers over a common interface.

All solvers take (topology, profiles, caps, config, rng) and return a final
Matching plus an IterationTrace. The stochastic ones draw only from the
numpy Generator rng, so fixed seeds reproduce runs bit-exactly.
"""

from __future__ import annotations

import itertools
import logging
import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from ._draws import Draws
from .errors import ConfigurationError, EnumerationLimitError
from .matching import (SATISFACTION_TOL, Matching, _MatchingState,
                       count_strategies, enumerate_strategies)

log = logging.getLogger(__name__)

SOLVER_KINDS = ("pma", "best_response", "many_to_one", "substitutable", "exhaustive")

#: most strategy profiles exhaustive_search scores per numpy block; chosen
#: by measuring throughput on 4-source instances with 7-22 sets per source
_ORACLE_CHUNK = 16384

STOP_WINDOW = 100           # iterations without improvement => converged
BETA_MAX = 1000.0           # clip for the annealing schedule
# The inverse temperature rises by 1 per ANNEAL_SCALE source activations,
# so small systems keep exploring for as many activations as large ones.
ANNEAL_SCALE = 60.0
# Convergence bookkeeping: a gain this small is indistinguishable from
# the Boltzmann wandering that finite beta cannot suppress, so it does
# not count as progress. Exact-identity checks use SATISFACTION_TOL.
IMPROVEMENT_TOL = 1e-2
# Most strategies best response enumerates per source, and exhaustive
# search's default cap on strategy profiles.
ENUMERATION_CAP = 10 ** 8
# Sources a radio holds in the substitutable baseline.
RADIO_QUOTA = 2


@dataclass
class SolverConfig:
    kind: str = "pma"
    max_iterations: int = 1000

    def __post_init__(self):
        if self.kind not in SOLVER_KINDS:
            raise ConfigurationError(f"unknown solver kind {self.kind!r}")
        if self.max_iterations < 1:
            raise ConfigurationError("max_iterations must be >= 1")


def beta(activations: int) -> float:
    """Inverse temperature after a total number of source activations."""
    return min(activations / ANNEAL_SCALE, BETA_MAX)


class IterationTrace:
    """Per-activation record of one solver run.

    A solver starts the record with IterationTrace(initial_lambda, observer),
    calls record() once per acting source and close() when it stops.
    `iteration` holds the 1-based iteration index of each entry (several
    sources act within one PMA iteration). initial_lambda is the value of
    the initial state.
    """

    def __init__(self, initial_lambda: float, observer=None):
        self.initial_lambda = initial_lambda
        self.convergence_iteration = None
        self.iteration, self.actor, self.accepted, self.lam = [], [], [], []
        self._observer = observer

    def record(self, iteration, actor, accepted, lam, strategies,
               event: Optional[dict] = None) -> None:
        """Log one activation and pass it, with the solver's extra event
        fields, to the observer if one is attached. `event` is read only
        then, so a solver builds it only when it has an observer."""
        self.iteration.append(iteration)
        self.actor.append(actor)
        self.accepted.append(accepted)
        self.lam.append(lam)
        if self._observer is not None:
            self._observer({"iteration": iteration, "actor": actor,
                            "accepted": accepted, "lambda": lam,
                            "strategies": tuple(strategies), **(event or {})})

    def close(self, convergence_iteration: Optional[int]) -> "IterationTrace":
        """End the record: the columns become arrays and the observer is
        released."""
        self.iteration = np.array(self.iteration, dtype=np.int64)
        self.actor = np.array(self.actor, dtype=np.int64)
        self.accepted = np.array(self.accepted, dtype=bool)
        self.lam = np.array(self.lam, dtype=np.float64)
        self.convergence_iteration = convergence_iteration
        self._observer = None
        return self

    def __len__(self):
        return len(self.lam)

    @property
    def num_iterations(self) -> int:
        return int(self.iteration[-1]) if len(self.iteration) else 0

    def lambda_per_iteration(self) -> np.ndarray:
        """Global satisfaction at the end of each iteration."""
        out = np.empty(self.num_iterations)
        last = np.flatnonzero(np.diff(self.iteration, append=-1))
        out[self.iteration[last] - 1] = self.lam[last]
        return out

    def write_csv(self, fh) -> None:
        fh.write("iteration,lambda,actor,accepted\n")
        for i in range(len(self.lam)):
            fh.write(f"{int(self.iteration[i])},{float(self.lam[i])!r},"
                     f"{int(self.actor[i])},{int(self.accepted[i])}\n")


def pma_accept(u_new: float, u_old: float, beta: float) -> float:
    """Two-point Boltzmann acceptance probability of the new strategy.

    Computed from the utility gap so pma_accept(a, b, beta) and its mirror
    sum to exactly 1.
    """
    if beta < 0:
        raise ConfigurationError("beta must be >= 0")
    d = beta * (u_new - u_old)
    if d >= 0:
        return 1.0 / (1.0 + math.exp(-d))
    return 1.0 - 1.0 / (1.0 + math.exp(d))


def _numpy_sum(xs) -> float:
    """Sum of floats in the order float64 ndarray.sum() adds them: one
    running sum below 8 terms, eight interleaved partial sums up to 128,
    halves of a multiple of 8 beyond."""
    n = len(xs)
    if n < 8:
        total = 0.0
        for x in xs:
            total += x
        return total
    if n <= 128:
        stop = n - n % 8
        r = xs[:8]
        for i in range(8, stop, 8):
            r = [a + b for a, b in zip(r, xs[i:i + 8])]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for x in xs[stop:]:
            total += x
        return total
    half = n // 2
    half -= half % 8
    return _numpy_sum(xs[:half]) + _numpy_sum(xs[half:])


def proposal_table(attractiveness: Sequence[float]) -> tuple:
    """pma_propose's preparation that depends only on the weights: the
    indices of the positive weights, their probabilities p, how many of
    those are nonzero (0 if the normaliser overflows) and the first draw's
    cdf (None when nothing can be drawn)."""
    w = [float(x) for x in attractiveness]
    idx = [i for i, x in enumerate(w) if x > 0]
    if not idx:
        return idx, [], 0, None
    positive = w if len(idx) == len(w) else [w[i] for i in idx]
    # The normaliser is summed in numpy's order so p is bit-identical to
    # w[idx] / w[idx].sum(), and so is every draw it decides.
    total = _numpy_sum(positive)
    p = [x / total for x in positive]
    nonzero = len(p) - p.count(0.0) if math.isfinite(total) else 0
    return idx, p, nonzero, _cdf(p) if nonzero else None


def _cdf(p) -> list:
    cdf = list(itertools.accumulate(p))
    last = cdf[-1]
    return [c / last for c in cdf]


def pma_propose(attractiveness: Sequence[float], quota: int, rng,
                size: Optional[int] = None, table: Optional[tuple] = None) -> tuple:
    """Sample a candidate radio set: size uniform in {1..quota} unless given,
    radios drawn without replacement with probability proportional to
    attractiveness.

    Successive sampling as in numpy's Generator.choice(p=..., replace=False),
    with the same draws from rng, so both give the same set and leave rng in
    the same state. rng is a Generator or a Draws on one; it is asked only
    for integers(1, quota + 1) and random(), once per radio a round still
    misses, which takes the words numpy's random(k) takes for the round.
    Raises ValueError, as numpy does, when fewer than `size` radios keep a
    nonzero probability after normalisation. A caller that proposes from
    the same weights again may pass their proposal_table(attractiveness)
    as `table`; attractiveness is then not read.
    """
    idx, p, nonzero, cdf = table or proposal_table(attractiveness)
    if not idx:
        log.info("all relay radios unattractive; proposing the empty set")
        return ()
    if size is None:
        size = int(rng.integers(1, quota + 1))
    size = min(size, len(idx))
    if nonzero < size:
        raise ValueError("fewer nonzero probabilities than the sample size")
    if size == 1:
        # the first round's one draw, as random(1) would give it
        return (idx[bisect_right(cdf, rng.random())],)
    found = []
    while len(found) < size:
        if found:
            p = p.copy()
            for j in found:
                p[j] = 0.0
            cdf = _cdf(p)
        for _ in range(size - len(found)):
            # a found radio has p == 0 and an empty cdf step, so it is never
            # drawn again; each round adds at least one radio
            j = bisect_right(cdf, rng.random())
            if j not in found:
                found.append(j)
    found.sort()
    return tuple([idx[j] for j in found])


def _random_initial(quotas, num_radios, rng):
    """Each source starts on a uniformly random nonempty radio set."""
    strategies = []
    for q in quotas:
        size = min(int(rng.integers(1, q + 1)), num_radios)
        pick = rng.choice(num_radios, size=size, replace=False)
        strategies.append(tuple(sorted(int(i) for i in pick)))
    return strategies


def run_pma(topology, profiles, caps, config: SolverConfig, rng, observer=None):
    """Potential matching: per iteration, every source (in random order)
    proposes a weighted random radio set — or a full withdrawal — which the
    relay side accepts with Boltzmann probability at the annealed inverse
    temperature.

    Sources act one at a time, so every state change is a unilateral
    deviation. The walk is stochastic, so the best state visited is tracked
    and returned; the run converges once STOP_WINDOW iterations pass without
    a material gain over that best value.
    """
    n_src, n_radio = topology.num_sources, topology.num_radios
    quotas = topology.quotas
    draws = Draws(rng)        # rejects a non-PCG64 rng before any draw
    state = _MatchingState(_random_initial(quotas, n_radio, rng), caps.tolist(),
                           profiles, n_radio)
    strategies = state.strategies
    # per source until another source's move changes its loads; a mover's
    # loads without itself, and so its table, are the same after its move
    tables = [None] * n_src
    # utility(n, ()): n's satisfaction at rate 0, with no neighbour term
    alone = [p.evaluate(0.0) for p in profiles]

    lam = state.lam
    trace = IterationTrace(lam, observer)
    best_lam = lam
    best_strategies = list(strategies)
    last_improve = 0
    converged = None
    activations = 0

    # the walk's scalar draws come from the mirror; rng ends where the same
    # numpy calls would have left it
    with draws:
        for k in range(1, config.max_iterations + 1):
            for n in draws.permutation(n_src):
                activations += 1
                current = strategies[n]
                size = draws.integers(0, quotas[n] + 1)
                if size == 0:
                    candidate = ()
                else:
                    # a radio's share if n joined it; n's own radios keep theirs
                    table = tables[n]
                    if table is None:
                        table = tables[n] = proposal_table(state.share(n))
                    candidate = pma_propose(None, quotas[n], draws, size=size,
                                            table=table)
                u_old = state.utility(n, current)
                u_new = state.utility(n, candidate) if candidate else alone[n]
                accepted = draws.random() < pma_accept(u_new, u_old, beta(activations))
                if accepted and candidate != current:
                    state.move(n, candidate)
                    kept = tables[n]
                    tables = [None] * n_src
                    tables[n] = kept
                    lam = state.lam
                    if lam > best_lam + IMPROVEMENT_TOL:
                        last_improve = k
                    if lam > best_lam + SATISFACTION_TOL:
                        best_lam = lam
                        best_strategies = list(strategies)
                event = None if observer is None else {
                    "candidate": candidate, "u_old": u_old, "u_new": u_new}
                trace.record(k, n, accepted, lam, strategies, event)
            if k - last_improve >= STOP_WINDOW:
                converged = last_improve
                break

    return Matching(best_strategies, n_radio), trace.close(converged)


def run_many_to_one(topology, profiles, caps, config: SolverConfig, rng,
                    observer=None):
    """PMA on a copy of the topology with every source's quota set to one
    radio. run_pma is looked up at call time, so wrappers of it see this."""
    one_radio = replace(topology, sources=tuple(
        replace(s, num_radios=1) for s in topology.sources))
    return run_pma(one_radio, profiles, caps, config, rng=rng, observer=observer)


def run_best_response(topology, profiles, caps, config: SolverConfig, rng,
                      observer=None):
    """Round-robin sweeps where the acting source adopts its utility-maximizing
    feasible radio set; terminates once a full sweep changes nothing.

    Each activation scores the source's whole space in one
    _MatchingState.scores pass, which skips a candidate whose own
    satisfaction cannot beat the current set. A source whose last
    activation left it in place, with no move by anyone since, would score
    the same state again, so it keeps its set unscored. All sources idle is
    a stable state, the only one in which a run cut by max_iterations
    reports convergence."""
    n_src, n_radio = topology.num_sources, topology.num_radios
    quotas = topology.quotas
    for q in quotas:
        count = count_strategies(n_radio, q)
        if count > ENUMERATION_CAP:
            raise EnumerationLimitError(
                f"per-source strategy count {count} exceeds cap {ENUMERATION_CAP}")
    candidates = {q: enumerate_strategies(n_radio, q) for q in set(quotas)}

    state = _MatchingState(_random_initial(quotas, n_radio, rng), caps.tolist(),
                           profiles, n_radio)
    strategies = state.strategies

    lam = state.lam
    trace = IterationTrace(lam, observer)
    last_improve = 0
    idle = [False] * n_src     # n would score an unchanged state

    for iteration in range(1, config.max_iterations + 1):
        n = (iteration - 1) % n_src
        best_set = strategies[n]
        if not idle[n]:
            space = candidates[quotas[n]]
            best_u = state.utility(n, best_set)
            floor = best_u + SATISFACTION_TOL - 1e-12
            for cand, u in zip(space, state.scores(n, space, floor=floor)):
                if u > best_u + SATISFACTION_TOL:
                    best_u, best_set = u, cand
        accepted = best_set != strategies[n]
        if accepted:
            state.move(n, best_set)
            lam = state.lam
            last_improve = iteration
            idle = [False] * n_src
        else:
            idle[n] = True
        event = None if observer is None else {"candidate": best_set}
        trace.record(iteration, n, accepted, lam, strategies, event)
        # at a sweep's end, all idle means the sweep changed nothing
        if n == n_src - 1 and all(idle):
            break

    return (Matching(strategies, n_radio),
            trace.close(last_improve if all(idle) else None))


def run_substitutable(topology, profiles, caps, config: SolverConfig, rng=None,
                      observer=None):
    """Deferred-acceptance baseline with substitutable radios.

    Sources propose one radio at a time in preference order (per-pair AF
    capacity); each radio holds at most RADIO_QUOTA proposers and,
    when over quota, evicts the holder whose removal costs it the least
    satisfaction. Runs until proposals are exhausted; a run that
    max_iterations cuts off with proposals still queued has no convergence
    iteration.
    """
    del rng  # deterministic
    n_src, n_radio = topology.num_sources, topology.num_radios
    caps_rows = caps.tolist()
    prefs = [sorted(range(n_radio), key=lambda l: (-caps_rows[n][l], l))
             for n in range(n_src)]
    cursor = [0] * n_src
    state = _MatchingState([()] * n_src, caps_rows, profiles, n_radio)
    strategies = state.strategies

    trace = IterationTrace(state.lam, observer)
    queue = deque(range(n_src))
    iteration = 0

    while queue and iteration < config.max_iterations:
        n = queue.popleft()
        if cursor[n] >= n_radio:
            continue
        l = prefs[n][cursor[n]]
        cursor[n] += 1
        state.move(n, (l,))
        accepted = True
        holders = state.occupants[l]
        if len(holders) > RADIO_QUOTA:
            # satisfaction of each holder at the post-eviction load
            reduced = len(holders) - 1
            scores = [(profiles[h].evaluate(caps_rows[h][l] / reduced), -h)
                      for h in holders]
            evicted = holders[scores.index(min(scores))]
            state.move(evicted, ())
            queue.append(evicted)
            if evicted == n:
                accepted = False
        iteration += 1
        trace.record(iteration, n, accepted, state.lam, strategies)

    truncated = any(cursor[k] < n_radio for k in queue)
    return (Matching(strategies, n_radio),
            trace.close(iteration if iteration and not truncated else None))


def exhaustive_search(topology, profiles, caps, cap: int = ENUMERATION_CAP):
    """Global optimum over the full Cartesian strategy space: every radio
    subset up to each source's quota, the empty set included.

    Each source's candidate sets are enumerated in canonical (size,
    lexicographic) order, and strategy profiles in itertools.product order
    over the sources, the last source varying fastest. The first profile
    attaining the maximum wins, so ties break deterministically. Raises
    EnumerationLimitError, naming the profile count, when the space exceeds
    the cap.

    A source's satisfaction depends only on its own set and the loads on
    its radios, each between 1 and the number of sources N. So every source
    gets one table, filled one set size at a time with the arithmetic of a
    from-scratch recompute (rates divided and added in radio order, then
    the profile's own evaluate): set s with loads (a_0, .., a_k-1) sits at
    start[s] + sum((a_j - 1) * N**(k-1-j)), and a_j - 1 counts the other
    sources on radio s_j. So n's entry is start_n[s_n] + sum over k != n of
    P_nk[s_n, s_k], with integer pair codes P_nk = stride_n . inc_k built
    once: no load vector is formed. A suffix-max table of the same layout
    holds the largest entry over all loads >= the given ones.

    Blocks of at most _ORACLE_CHUNK profiles, contiguous in product order,
    fix the leading sources and broadcast the trailing ones as a C-order
    grid (one axis, source t's, cut to fit). Other sources can only add
    load and IEEE addition is monotone, so every source's suffix-max entry
    at the loads that sources 0..t put on its radios (a later source's
    largest over its sets), added in source order from 0.0, bounds lambda
    exactly; the largest such sum over the block's slice of t bounds the
    block. Blocks are scored in descending bound order, ties in product
    order, until the first whose bound is strictly below the best lambda so
    far. lambda adds the looked-up satisfactions in source order, the IEEE
    additions of a per-profile loop, so the optimum and its lambda are
    bit-identical to one. np.argmax takes the first maximum within a block,
    and a block's maximum replaces the best when it is larger, or equal at
    a smaller profile index.
    """
    n_src, n_radio = topology.num_sources, topology.num_radios
    counts = [count_strategies(n_radio, q) for q in topology.quotas]
    total = math.prod(counts)
    if total > cap:
        raise EnumerationLimitError(
            f"{total} strategy profiles exceed the exhaustive-search cap of {cap}")

    per_source = [enumerate_strategies(n_radio, q) for q in topology.quotas]
    strides, starts, tables, peaks = [], [], [], []
    for n, space in enumerate(per_source):
        row, evaluate = caps[n], profiles[n].evaluate
        stride = np.zeros((n_radio, len(space)), dtype=np.intp)
        empty = np.array([evaluate(0.0)])
        table, peak, first = [empty], [empty], 1
        while first < len(space):
            k = len(space[first])
            sets = np.array(space[first:first + math.comb(n_radio, k)])
            loads = np.indices((n_src,) * k).reshape(k, -1) + 1
            rate = 0.0
            for j in range(k):
                rate = rate + row[sets[:, j], None] / loads[j]
                stride[sets[:, j], first + np.arange(len(sets))] = n_src ** (k - 1 - j)
            sat = np.array([evaluate(r) for r in rate.ravel().tolist()])
            table.append(sat)
            sat = sat.reshape((len(sets),) + (n_src,) * k)
            for axis in range(1, k + 1):
                sat = np.flip(np.maximum.accumulate(np.flip(sat, axis), axis), axis)
            peak.append(sat.ravel())
            first += len(sets)
        strides.append(stride)
        starts.append(np.cumsum([0] + [n_src ** len(s) for s in space[:-1]]))
        tables.append(np.concatenate(table))
        peaks.append(np.concatenate(peak))
    pairs = [[s.T @ (o > 0) for o in strides] for s in strides]   # inc = stride > 0

    def entries(n, idx, fixed):
        return sum((pairs[n][k][idx[n], idx[k]] for k in fixed if k != n),
                   starts[n][idx[n]])

    # sources after t form a grid of `tail` profiles; t's axis is cut to fit
    t = next(t for t in range(n_src) if math.prod(counts[t + 1:]) <= _ORACLE_CHUNK)
    tail = math.prod(counts[t + 1:])
    width = _ORACLE_CHUNK // tail
    # the bounds of a slab of leads at a time, on a (lead, t's set, later
    # source's set) grid of about _ORACLE_CHUNK entries
    n_lead = math.prod(counts[:t])
    slab = max(1, _ORACLE_CHUNK // (counts[t] * max(counts[t + 1:], default=1)))
    bounds = []
    for lo in range(0, n_lead, slab):
        lead = (np.unravel_index(np.arange(lo, min(lo + slab, n_lead)), counts[:t])
                if t else ())
        idx = ([i[:, None, None] for i in lead] + [np.arange(counts[t])[:, None]]
               + [np.arange(c) for c in counts[t + 1:]])
        bound = 0.0
        for n, peak in enumerate(peaks):
            top = peak.take(entries(n, idx, range(t + 1)))
            bound = bound + (top.max(-1, keepdims=True) if n > t else top)
        bounds.append(np.maximum.reduceat(bound.reshape(-1, counts[t]),
                                          range(0, counts[t], width), 1))
    bounds = np.concatenate(bounds)

    grid = [np.arange(c).reshape((c,) + (1,) * (n_src - 1 - k))
            for k, c in enumerate(counts)]
    best_lam, best_index = -1.0, None
    for b in np.argsort(-bounds, axis=None, kind="stable").tolist():
        if bounds.flat[b] < best_lam:
            break
        lead, a = divmod(b, bounds.shape[1])
        a *= width
        idx = [*np.unravel_index(lead, counts[:t]), grid[t][a:a + width], *grid[t + 1:]]
        lam = 0.0
        for n, table in enumerate(tables):
            lam = lam + table.take(entries(n, idx, range(n_src)))
        j = int(np.argmax(lam))
        index = (lead * counts[t] + a) * tail + j
        if lam.flat[j] > best_lam or lam.flat[j] == best_lam and index < best_index:
            best_lam, best_index = float(lam.flat[j]), index
    picks = np.unravel_index(best_index, counts)
    return (Matching([space[int(i)] for space, i in zip(per_source, picks)], n_radio),
            best_lam)


def solve(topology, profiles, caps, config: SolverConfig, rng, observer=None):
    """Dispatch a solver by config.kind; always returns (Matching, trace)."""
    if config.kind == "pma":
        return run_pma(topology, profiles, caps, config, rng, observer=observer)
    if config.kind == "best_response":
        return run_best_response(topology, profiles, caps, config, rng,
                                 observer=observer)
    if config.kind == "many_to_one":
        return run_many_to_one(topology, profiles, caps, config, rng,
                               observer=observer)
    if config.kind == "substitutable":
        return run_substitutable(topology, profiles, caps, config, rng,
                                 observer=observer)
    if config.kind == "exhaustive":
        m, lam = exhaustive_search(topology, profiles, caps)
        trace = IterationTrace(lam, observer)
        trace.record(1, -1, True, lam, m.strategies)
        return m, trace.close(1)
    raise ConfigurationError(f"unknown solver kind {config.kind!r}")
