"""Shared fixtures and instance builders for the test suite."""

from bisect import bisect_right

import numpy as np
import pytest

import relaymatch as rm
from relaymatch import solvers
from relaymatch.matching import (SATISFACTION_TOL, _MatchingState,
                                 enumerate_strategies)
from relaymatch.solvers import IterationTrace, _random_initial


def make_instance(seed, **params):
    """Generate (topology, profiles, caps) for a seeded scenario."""
    defaults = dict(num_sources=4, num_relays=3, radios_per_relay=1,
                    source_radios=(1, 2), path_loss=rm.AIR_TO_AIR)
    defaults.update(params)
    topology = rm.generate_topology(rm.TopologyParams(**defaults), seed)
    caps = rm.build_capacity_table(topology)
    profiles = rm.default_profiles(topology)
    return topology, profiles, caps


def spawn_seeds(master, count, width=2):
    """Deterministic (topology_seed, solver SeedSequences...) tuples."""
    out = []
    for child in np.random.SeedSequence(master).spawn(count):
        parts = child.spawn(width)
        out.append((int(parts[0].generate_state(1, np.uint64)[0]), *parts[1:]))
    return out


def _reference_global_satisfaction(m, profiles, caps):
    """Global satisfaction recomputed from scratch: numpy loads, each
    source's rate summed over its radios, satisfactions added in source
    order."""
    loads = m.loads()
    total = 0.0
    for n, profile in enumerate(profiles):
        rate = sum(caps[n, l] / loads[l] for l in m.radios_of(n))
        total += profile.evaluate(rate)
    return total


def _reference_relay_utility(m, source, radios, profiles, caps):
    """Relay utility recomputed from scratch: own satisfaction with the
    candidate, plus for every other source on a radio of the current or
    the candidate strategy, its satisfaction with the candidate minus its
    satisfaction with the deviator holding no radio."""
    radios = tuple(sorted(set(radios)))
    union = set(radios) | set(m.radios_of(source))
    state = m.with_strategy(source, radios)
    absent = m.with_strategy(source, ())
    value = profiles[source].evaluate(rm.sv_rate(state, source, caps))
    for k, strat in enumerate(m.strategies):
        if k != source and union.intersection(strat):
            value += (profiles[k].evaluate(rm.sv_rate(state, k, caps))
                      - profiles[k].evaluate(rm.sv_rate(absent, k, caps)))
    return value


def _reference_is_stable(m, topology, profiles, caps, tol=SATISFACTION_TOL):
    """Stability by global satisfaction: the first unilateral deviation, in
    enumeration order, that raises the from-scratch lambda by more than tol."""
    base = _reference_global_satisfaction(m, profiles, caps)
    for n, src in enumerate(topology.sources):
        for cand in enumerate_strategies(topology.num_radios, src.num_radios):
            if cand == m.radios_of(n):
                continue
            alt = _reference_global_satisfaction(m.with_strategy(n, cand),
                                                 profiles, caps)
            if alt > base + tol:
                return rm.StabilityResult(stable=False, witness=(n, cand))
    return rm.StabilityResult(stable=True)


def _reference_best_response(topology, profiles, caps, config, rng):
    """Best response as one utility() call per candidate at every
    activation: round-robin sweeps from the same random start, each source
    adopting the first candidate that beats its best so far by more than
    SATISFACTION_TOL, until a sweep changes nothing."""
    n_radio = topology.num_radios
    state = _MatchingState(_random_initial(topology.quotas, n_radio, rng),
                           caps.tolist(), profiles, n_radio)
    trace = IterationTrace(state.lam)
    last_improve, converged, iteration = 0, None, 0
    while iteration < config.max_iterations:
        changed = False
        for n, quota in enumerate(topology.quotas):
            if iteration >= config.max_iterations:
                break
            iteration += 1
            best_set = state.strategies[n]
            best_u = state.utility(n, best_set)
            for cand in enumerate_strategies(n_radio, quota):
                u = state.utility(n, cand)
                if u > best_u + SATISFACTION_TOL:
                    best_u, best_set = u, cand
            accepted = best_set != state.strategies[n]
            if accepted:
                state.move(n, best_set)
                changed = True
                last_improve = iteration
            trace.record(iteration, n, accepted, state.lam, state.strategies)
        if not changed:
            converged = last_improve
            break
    return rm.Matching(state.strategies, n_radio), trace.close(converged)


def _reference_utility(state, n, candidate):
    """_MatchingState.utility through its general path for every candidate:
    the current strategy's baseline value, else own satisfaction plus, per
    neighbour, its drops summed in a dict in radio order, then its term."""
    loads0, absent, current = state._baselines[n] or state._remove(n)
    if candidate == state.strategies[n]:
        return current
    rate = 0.0
    for l in candidate:
        rate += state.caps[n][l] / (loads0[l] + 1)
    value = state.profiles[n].evaluate(rate)
    drops = {}
    for l in candidate:
        a = loads0[l]
        if a:
            shrink = 1.0 / a - 1.0 / (a + 1)
            for k in state.occupants[l]:
                if k != n:
                    drops[k] = drops.get(k, 0.0) + state.caps[k][l] * shrink
    for k, drop in drops.items():
        base_rate, base_f = absent.get(k) or (state.rates[k], state.sat[k])
        value += state.profiles[k].evaluate(base_rate - drop) - base_f
    return value


def _reference_pma_propose(attractiveness, size, rng):
    """pma_propose's successive sampling as one rejection loop for every
    size: draw the missing radios, zero the found ones' weights, redraw."""
    idx, p, nonzero, cdf = solvers.proposal_table(attractiveness)
    if not idx:
        return ()
    size = min(size, len(idx))
    if nonzero < size:
        raise ValueError("fewer nonzero probabilities than the sample size")
    found = []
    while len(found) < size:
        draws = rng.random(size - len(found))
        if found:
            p = p.copy()
            for j in found:
                p[j] = 0.0
            cdf = solvers._cdf(p)
        for x in draws:
            j = bisect_right(cdf, x)
            if j not in found:
                found.append(j)
    return tuple(sorted(idx[j] for j in found))


def _reference_pma(topology, profiles, caps, config, rng, quota_override=None):
    """The PMA walk drawn from the Generator itself: fresh proposal weights
    at every activation, _reference_pma_propose for every proposal and
    _reference_utility for both scored candidates, withdrawals included."""
    n_radio = topology.num_radios
    quotas = [min(q, quota_override) if quota_override else q
              for q in topology.quotas]
    state = _MatchingState(_random_initial(quotas, n_radio, rng), caps.tolist(),
                           profiles, n_radio)
    trace = IterationTrace(state.lam)
    best_lam, best = state.lam, list(state.strategies)
    last_improve, converged, activations = 0, None, 0
    for k in range(1, config.max_iterations + 1):
        for n in rng.permutation(topology.num_sources).tolist():
            activations += 1
            size = int(rng.integers(0, quotas[n] + 1))
            candidate = _reference_pma_propose(state.share(n), size, rng) if size else ()
            u_old = _reference_utility(state, n, state.strategies[n])
            u_new = _reference_utility(state, n, candidate)
            accepted = rng.random() < solvers.pma_accept(
                u_new, u_old, solvers.beta(activations))
            if accepted and candidate != state.strategies[n]:
                state.move(n, candidate)
                if state.lam > best_lam + solvers.IMPROVEMENT_TOL:
                    last_improve = k
                if state.lam > best_lam + SATISFACTION_TOL:
                    best_lam, best = state.lam, list(state.strategies)
            trace.record(k, n, accepted, state.lam, state.strategies)
        if k - last_improve >= solvers.STOP_WINDOW:
            converged = last_improve
            break
    return rm.Matching(best, n_radio), trace.close(converged)


@pytest.fixture
def small_instance():
    return make_instance(7)


@pytest.fixture
def mid_instance():
    return make_instance(21, num_sources=6, num_relays=3, radios_per_relay=2,
                         source_radios=None)
