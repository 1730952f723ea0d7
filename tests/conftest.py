"""Shared fixtures and instance builders for the test suite."""

import numpy as np
import pytest

import relaymatch as rm
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


@pytest.fixture
def small_instance():
    return make_instance(7)


@pytest.fixture
def mid_instance():
    return make_instance(21, num_sources=6, num_relays=3, radios_per_relay=2,
                         source_radios=None)
