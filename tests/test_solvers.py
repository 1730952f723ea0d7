"""Unit tests for the solver family: proposal/acceptance rules, trace
bookkeeping, baselines and the exhaustive oracle."""

import hashlib
import io
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import relaymatch as rm
from relaymatch import solvers
from relaymatch._draws import Draws
from relaymatch.errors import ConfigurationError, EnumerationLimitError
from relaymatch.matching import (_MatchingState, count_strategies,
                                 enumerate_strategies)
from relaymatch.solvers import IterationTrace, _numpy_sum, _random_initial

from conftest import (_reference_best_response, _reference_global_satisfaction,
                      _reference_pma, _reference_relay_utility,
                      _reference_utility, make_instance, spawn_seeds)


class TestAcceptanceRule:
    def test_equal_utilities_give_half(self):
        assert rm.pma_accept(1.0, 1.0, beta=10.0) == 0.5

    def test_beta_zero_gives_half(self):
        assert rm.pma_accept(5.0, -3.0, beta=0.0) == 0.5

    def test_saturation_at_large_gap(self):
        p = rm.pma_accept(1.0, 0.0, beta=100.0)
        assert 1.0 - p < 1e-40

    def test_mirror_probabilities_sum_to_one_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b = rng.normal(size=2)
            beta = float(rng.uniform(0, 1000))
            assert rm.pma_accept(a, b, beta) + rm.pma_accept(b, a, beta) == 1.0

    def test_negative_beta_rejected(self):
        with pytest.raises(ConfigurationError):
            rm.pma_accept(0.0, 0.0, beta=-1.0)

    @settings(max_examples=500, deadline=None)
    @example(r=0.5, u_new=1.0, u_old=math.nextafter(1.0, 2.0), beta=5e-324)
    @example(r=0.5 - 2 ** -53, u_new=math.nextafter(1.0, 2.0), u_old=1.0,
             beta=5e-324)
    @given(r=st.one_of(st.sampled_from([0.0, 0.5 - 2 ** -53, 0.5, 1 - 2 ** -53]),
                       st.integers(0, 2 ** 53 - 1).map(lambda i: i * 2.0 ** -53)),
           u_new=st.floats(allow_nan=False, allow_infinity=False),
           u_old=st.one_of(st.none(), st.sampled_from([-1, 1]),
                           st.floats(allow_nan=False, allow_infinity=False)),
           beta=st.one_of(
               st.floats(min_value=5e-324, max_value=solvers.BETA_MAX,
                         allow_subnormal=True),
               st.floats(min_value=5e-324, max_value=1e-300, allow_subnormal=True)))
    def test_the_draw_decides_on_its_side_of_one_half(self, r, u_new, u_old, beta):
        """run_pma takes r < 0.5 as the answer whenever (r < 0.5) ==
        (u_new >= u_old): pma_accept is >= 0.5 exactly when u_new >= u_old,
        also when beta times the gap underflows to +-0. u_old None draws
        equal utilities, -1 and 1 utilities one ulp apart."""
        if u_old is None:
            u_old = u_new
        elif u_old in (-1, 1):
            u_old = math.nextafter(u_new, u_old * math.inf)
            assume(math.isfinite(u_old))
        assume((r < 0.5) == (u_new >= u_old))
        assert (r < rm.pma_accept(u_new, u_old, beta)) == (r < 0.5)


class TestProposalRule:
    def test_quota_one_always_singleton(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            cand = rm.pma_propose([5.0, 1.0, 3.0], quota=1, rng=rng)
            assert len(cand) == 1

    def test_weighted_marginal(self):
        # weights (10, 30) with one draw -> probabilities (0.25, 0.75)
        rng = np.random.default_rng(2)
        draws = [rm.pma_propose([10.0, 30.0], quota=1, rng=rng)[0]
                 for _ in range(20000)]
        assert np.mean(np.array(draws) == 1) == pytest.approx(0.75, abs=0.01)

    def test_equal_weights_uniform(self):
        rng = np.random.default_rng(3)
        draws = [rm.pma_propose([2.0] * 4, quota=1, rng=rng)[0]
                 for _ in range(20000)]
        counts = np.bincount(draws, minlength=4) / 20000
        assert np.allclose(counts, 0.25, atol=0.02)

    def test_no_duplicates_and_quota_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            cand = rm.pma_propose([1.0] * 5, quota=3, rng=rng)
            assert 1 <= len(cand) <= 3
            assert len(set(cand)) == len(cand)
            assert cand == tuple(sorted(cand))

    def test_all_zero_weights_propose_empty(self):
        rng = np.random.default_rng(5)
        assert rm.pma_propose([0.0, 0.0], quota=2, rng=rng) == ()

    @settings(max_examples=300, deadline=None)
    @given(weights=st.lists(st.one_of(st.just(0.0),
                                      st.floats(min_value=1e-3, max_value=1e9)),
                            min_size=1, max_size=40),
           quota=st.integers(min_value=1, max_value=40),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_matches_numpy_choice(self, weights, quota, seed):
        for size in range(1, quota + 1):
            ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got = rm.pma_propose(weights, quota, ours, size=size)
            assert got == _numpy_propose(weights, size, ref)
            assert ours.random() == ref.random()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(min_value=1.0, max_value=2.0), max_size=300))
    def test_normaliser_sums_in_numpy_order(self, xs):
        # one ulp in the normaliser moves a draw only with probability ~1e-16,
        # so the sampler comparison above cannot see the summation order.
        # Terms of one magnitude make almost every addition round, so any
        # other order gives a different sum.
        assert _numpy_sum(xs) == np.asarray(xs, dtype=float).sum()

    def test_underflowing_probabilities_raise_like_numpy(self):
        # 5e-324 / 1e10 underflows to a zero probability: two radios have
        # positive weight but only one can be drawn
        weights = [5e-324, 1e10]
        ours, ref = np.random.default_rng(8), np.random.default_rng(8)
        with pytest.raises(ValueError):
            _numpy_propose(weights, 2, ref)
        with pytest.raises(ValueError):
            rm.pma_propose(weights, quota=2, rng=ours, size=2)
        assert ours.random() == ref.random()
        assert rm.pma_propose(weights, quota=2, rng=ours, size=1) == (1,)

    @settings(max_examples=200, deadline=None)
    @given(weights=st.lists(st.one_of(st.just(0.0),
                                      st.floats(min_value=1e-3, max_value=1e9)),
                            min_size=1, max_size=12),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           mirror=st.booleans())
    def test_table_stands_in_for_raw_weights(self, weights, seed, mirror):
        # run_pma proposes from a cached table: the same set, the same draws
        table = solvers.proposal_table(weights)
        for size in (None, 1, 2, 3):
            outcomes = []
            for given_table in (None, table):
                gen = np.random.default_rng(seed)
                if mirror:
                    with Draws(gen) as draws:
                        got = rm.pma_propose(weights, 3, draws, size=size,
                                             table=given_table)
                else:
                    got = rm.pma_propose(weights, 3, gen, size=size, table=given_table)
                outcomes.append((got, gen.bit_generator.state))
            assert outcomes[0] == outcomes[1]
        assert table == solvers.proposal_table(weights)   # left unchanged

    def test_table_raises_like_raw_weights(self):
        weights = [5e-324, 1e10]      # one probability underflows to zero
        table = solvers.proposal_table(weights)
        states = []
        for given_table in (None, table):
            gen = np.random.default_rng(8)
            with pytest.raises(ValueError):
                rm.pma_propose(weights, quota=2, rng=gen, size=2, table=given_table)
            assert rm.pma_propose(weights, 2, gen, size=1, table=given_table) == (1,)
            states.append(gen.bit_generator.state)
        assert states[0] == states[1]
        assert rm.pma_propose([0.0, 0.0], 2, gen, size=1,
                              table=solvers.proposal_table([0.0, 0.0])) == ()

    def test_share_table_equals_proposal_table(self):
        # run_pma's table builder skips proposal_table's float() and
        # positive-index passes for a share list without 0.0, which takes
        # the fallback; [1e308, 1e308, 1.0]'s total overflows
        lists = [[0.0, 2.0, 5e-324], [0.0, 0.0], [2.0, 0.0], [1e308, 1e308, 1.0],
                 [5e-324, 1e10], [7.0], []]
        for seed in range(20):
            topo, profiles, caps = make_instance(seed, num_sources=6, num_relays=3,
                                                 radios_per_relay=2)
            initial = _random_initial(topo.quotas, topo.num_radios,
                                      np.random.default_rng(seed))
            state = _MatchingState(initial, caps.tolist(), profiles, topo.num_radios)
            lists += [state.share(n) for n in range(topo.num_sources)]

        def hexed(table):
            idx, p, nonzero, cdf = table
            return (idx, [x.hex() for x in p], nonzero,
                    cdf and [x.hex() for x in cdf])

        for w in lists:
            assert hexed(solvers._share_table(w)) == hexed(solvers.proposal_table(w)), w
        assert solvers._share_table([1e308, 1e308, 1.0])[2:] == (0, None)


def _numpy_propose(weights, size, rng):
    """Reference proposal: numpy's weighted sampling without replacement."""
    w = np.asarray(weights, dtype=float)
    idx = np.flatnonzero(w > 0)
    if idx.size == 0:
        return ()
    size = min(size, idx.size)
    pick = rng.choice(idx, size=size, replace=False, p=w[idx] / w[idx].sum())
    return tuple(sorted(int(i) for i in pick))


class TestMatchingState:
    def test_matches_reference_utility(self):
        rng = np.random.default_rng(17)
        for trial in range(20):
            topo, profiles, caps = make_instance(400 + trial, num_sources=5,
                                                 num_relays=3, radios_per_relay=1,
                                                 source_radios=None)
            space = [enumerate_strategies(topo.num_radios, q) for q in topo.quotas]
            strategies = [space[n][int(rng.integers(len(space[n])))]
                          for n in range(5)]
            m = rm.Matching(strategies, topo.num_radios)
            n = int(rng.integers(5))
            state = _MatchingState(m.strategies, caps.tolist(), profiles,
                                   topo.num_radios)
            for cand in space[n]:
                expected = _reference_relay_utility(m, n, cand, profiles, caps)
                assert state.utility(n, cand) == pytest.approx(expected, abs=1e-10)

    def test_moves_agree_with_fresh_recompute(self, mid_instance):
        topo, profiles, caps = mid_instance
        rng = np.random.default_rng(23)
        space = [enumerate_strategies(topo.num_radios, q) for q in topo.quotas]
        state = _MatchingState([()] * topo.num_sources, caps.tolist(), profiles,
                               topo.num_radios)
        for _ in range(200):
            n = int(rng.integers(topo.num_sources))
            cand = space[n][int(rng.integers(len(space[n])))]
            before = rm.Matching(state.strategies, topo.num_radios)
            du = state.utility(n, cand) - state.utility(n, state.strategies[n])
            state.move(n, cand)
            m = rm.Matching(state.strategies, topo.num_radios)
            lam = _reference_global_satisfaction(m, profiles, caps)
            assert state.lam == pytest.approx(lam, abs=1e-12)
            assert du == pytest.approx(
                lam - _reference_global_satisfaction(before, profiles, caps),
                abs=1e-10)
            assert state.loads == list(m.loads())
            assert state.occupants == [
                [k for k, strat in enumerate(m.strategies) if l in strat]
                for l in range(topo.num_radios)]

    def test_cached_baseline_matches_fresh_state(self, mid_instance):
        # utility() and share() reuse a source's baseline until the next
        # move; every answer must equal a fresh state's, bit for bit
        topo, profiles, caps = mid_instance
        rows = caps.tolist()
        rng = np.random.default_rng(31)
        space = [enumerate_strategies(topo.num_radios, q) for q in topo.quotas]
        state = _MatchingState(_random_initial(topo.quotas, topo.num_radios, rng),
                               rows, profiles, topo.num_radios)
        for _ in range(400):
            n = int(rng.integers(topo.num_sources))
            cand = space[n][int(rng.integers(len(space[n])))]
            if rng.random() < 0.2:
                state.move(n, cand)
                continue
            fresh = _MatchingState(state.strategies, rows, profiles, topo.num_radios)
            held, loads = state.strategies[n], state.loads
            assert state.share(n) == fresh.share(n) == [
                c / (loads[l] if l in held else loads[l] + 1)
                for l, c in enumerate(rows[n])]
            assert state.utility(n, cand) == fresh.utility(n, cand)
            assert state.utility(n, held) == fresh.utility(n, held)


class TestFastPaths:
    """utility()'s one-radio path and run_pma's withdrawal value against
    the general arithmetic, bit for bit."""

    @pytest.mark.parametrize("num_sources", [4, 8, 13, 20])
    def test_utility_equals_general_path(self, num_sources):
        topo, profiles, caps = make_instance(500 + num_sources,
                                             num_sources=num_sources, num_relays=5,
                                             radios_per_relay=2, source_radios=(1, 3))
        rows = caps.tolist()
        rng = np.random.default_rng(num_sources)
        space = [enumerate_strategies(topo.num_radios, q) for q in topo.quotas]
        loads_seen = set()
        for _ in range(4):
            # one radio nobody holds, one held by the first four sources
            empty, crowded = rng.choice(topo.num_radios, 2, replace=False).tolist()
            strategies = []
            for n, s in enumerate(space):
                strat = [l for l in s[int(rng.integers(len(s)))] if l != empty]
                if n < 4:
                    strat = strat[:topo.quotas[n] - 1] + [crowded]
                strategies.append(tuple(sorted(set(strat))))
            strategies[int(rng.integers(num_sources))] = ()
            state = _MatchingState(strategies, rows, profiles, topo.num_radios)
            for n in range(num_sources):
                fresh = _MatchingState(strategies, rows, profiles, topo.num_radios)
                assert [state.utility(n, c).hex() for c in space[n]] == [
                    _reference_utility(fresh, n, c).hex() for c in space[n]]
                loads_seen.update(fresh._baselines[n][0])
        # candidates joined empty radios and radios of three or more
        assert 0 in loads_seen and max(loads_seen) >= 3

    def test_withdrawal_is_satisfaction_alone(self, mid_instance):
        topo, profiles, caps = mid_instance
        rng = np.random.default_rng(5)
        strategies = _random_initial(topo.quotas, topo.num_radios, rng)
        strategies[0] = ()
        state = _MatchingState(strategies, caps.tolist(), profiles, topo.num_radios)
        # sources holding radios and source 0, holding none
        for n in range(topo.num_sources):
            assert state.utility(n, ()).hex() == profiles[n].evaluate(0.0).hex()


@pytest.mark.parametrize("num_sources", [8, 13, 20])
@pytest.mark.parametrize("kind", ["pma", "many_to_one"])
def test_pma_walk_matches_reference(kind, num_sources):
    """run_pma, fast paths and caches included, against the walk drawn from
    the Generator with the general utility and proposal for every case."""
    cfg = rm.SolverConfig(kind=kind)
    quota = 1 if kind == "many_to_one" else None
    for topo_seed, seq in spawn_seeds(80 + num_sources, 20):
        topo, profiles, caps = make_instance(topo_seed, num_sources=num_sources,
                                             num_relays=5, radios_per_relay=2,
                                             source_radios=(1, 3))
        ref_rng, rng = np.random.default_rng(seq), np.random.default_rng(seq)
        ref_m, ref = _reference_pma(topo, profiles, caps, cfg, ref_rng, quota)
        m, trace = rm.solve(topo, profiles, caps, cfg, rng)
        assert m == ref_m
        assert trace.convergence_iteration == ref.convergence_iteration
        for column in ("iteration", "actor", "accepted", "lam"):
            assert (getattr(trace, column).tobytes()
                    == getattr(ref, column).tobytes()), column
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def _check_pma_tables(topo, profiles, caps, seed, max_iterations):
    """Runs run_pma, checking every proposal table it proposes from: the
    table equals proposal_table of the source's share vector on a state
    freshly built from the strategies before the activation, and a source
    no other source's move has reached since its last proposal proposes
    from the very table it used then, its own moves included, building
    none. Returns how many proposals came after the proposer's own move,
    with no other move in between.

    The run's state is caught as it is built; each activation starts with
    one size draw, where the strategies before it are read, and a table
    built is tied to the activation that draw opened. An activation with a
    positive size proposes, from the table it built or else the one its
    source kept."""
    rows = caps.tolist()
    init, integers, build = (_MatchingState.__init__, Draws.integers,
                             solvers._share_table)
    states, befores, sizes, built = [], [], [], {}

    def init_spy(self, *args):
        init(self, *args)
        states.append(self)

    def size_spy(self, low, high):
        befores.append(tuple(states[0].strategies))
        sizes.append(integers(self, low, high))
        return sizes[-1]

    def build_spy(w):
        assert len(befores) - 1 not in built
        built[len(befores) - 1] = table = build(w)
        return table

    with mock.patch.object(_MatchingState, "__init__", init_spy), \
            mock.patch.object(Draws, "integers", size_spy), \
            mock.patch.object(solvers, "_share_table", build_spy):
        _, trace = rm.run_pma(topo, profiles, caps,
                              rm.SolverConfig(max_iterations=max_iterations),
                              np.random.default_rng(seed))
    (state,) = states
    assert befores and len(befores) == len(trace)
    afters = befores[1:] + [tuple(state.strategies)]
    last, after_own_move, mover = {}, 0, None
    for i, (n, before, after) in enumerate(zip(trace.actor.tolist(), befores, afters)):
        if sizes[i]:
            if n in last:
                assert i not in built
                table = last[n]
                after_own_move += mover == n
            else:
                table = built[i]
            fresh = _MatchingState(before, rows, profiles, topo.num_radios)
            assert table == solvers.proposal_table(fresh.share(n))
            last[n] = table
        else:
            assert i not in built
        if after != before:
            mover = n
            last = {n: last[n]} if n in last else {}
    return after_own_move


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       num_sources=st.integers(min_value=1, max_value=6),
       num_relays=st.integers(min_value=1, max_value=3),
       radios_per_relay=st.integers(min_value=1, max_value=2))
def test_mover_keeps_its_proposal_table(seed, num_sources, num_relays, radios_per_relay):
    """A mover's loads without itself, so its share vector and proposal
    table, are unchanged by its own move; run_pma keeps that table."""
    topo, profiles, caps = make_instance(seed, num_sources=num_sources,
                                         num_relays=num_relays,
                                         radios_per_relay=radios_per_relay,
                                         source_radios=None)
    _check_pma_tables(topo, profiles, caps, seed, max_iterations=30)


def test_mover_proposes_again_from_its_kept_table(mid_instance):
    topo, profiles, caps = mid_instance
    assert _check_pma_tables(topo, profiles, caps, 4, max_iterations=200) > 0


class TestIterationTrace:
    def test_default_iteration_index(self):
        # each recorded activation keeps its iteration; close() types the columns
        tr = IterationTrace(0.5)
        tr.record(1, 0, True, 1.0)
        tr.record(2, 1, False, 2.0)
        assert tr.close(2) is tr
        assert list(tr.iteration) == [1, 2]
        assert [a.dtype for a in (tr.iteration, tr.actor, tr.accepted, tr.lam)] == [
            np.int64, np.int64, bool, np.float64]
        assert tr.num_iterations == 2 and len(tr) == 2
        assert tr.convergence_iteration == 2
        assert tr.lam[-1] == 2.0 and tr.initial_lambda == 0.5

    def test_per_iteration_series_takes_last_value(self):
        tr = IterationTrace(0.0)
        for k, actor, lam in ((1, 0, 1.0), (1, 1, 1.5), (2, 0, 2.0)):
            tr.record(k, actor, True, lam)
        tr.close(None)
        assert list(tr.lambda_per_iteration()) == [1.5, 2.0]
        assert IterationTrace(0.5).close(None).lambda_per_iteration().shape == (0,)

    @pytest.mark.parametrize("kind", solvers.SOLVER_KINDS)
    def test_per_iteration_series_equals_entry_loop(self, kind, small_instance):
        topo, profiles, caps = small_instance
        _, tr = rm.solve(topo, profiles, caps, rm.SolverConfig(kind=kind),
                         np.random.default_rng(9))
        expected = [0.0] * tr.num_iterations
        for k, lam in zip(tr.iteration.tolist(), tr.lam.tolist()):
            expected[k - 1] = lam
        assert [x.hex() for x in tr.lambda_per_iteration().tolist()] == [
            x.hex() for x in expected]

    def test_csv_format(self):
        tr = IterationTrace(1.0)
        tr.record(1, 3, True, 1.25)
        buf = io.StringIO()
        tr.close(1).write_csv(buf)
        assert buf.getvalue() == "iteration,lambda,actor,accepted\n1,1.25,3,1\n"


class TestPma:
    def test_seeded_runs_reproduce(self, mid_instance):
        topo, profiles, caps = mid_instance
        cfg = rm.SolverConfig(kind="pma")
        m1, t1 = rm.run_pma(topo, profiles, caps, cfg, np.random.default_rng(5))
        m2, t2 = rm.run_pma(topo, profiles, caps, cfg, np.random.default_rng(5))
        assert m1 == m2
        np.testing.assert_array_equal(t1.lam, t2.lam)
        assert t1.convergence_iteration == t2.convergence_iteration

    def test_output_feasible_and_trace_consistent(self, mid_instance):
        topo, profiles, caps = mid_instance
        m, tr = rm.run_pma(topo, profiles, caps, rm.SolverConfig(),
                           np.random.default_rng(6))
        assert rm.is_feasible(m, topo)
        assert len(tr.lam) == len(tr.actor) == len(tr.accepted) == len(tr.iteration)
        assert tr.num_iterations == int(tr.iteration[-1])
        assert (np.diff(tr.iteration) >= 0).all()

    @pytest.mark.parametrize("kind", ["pma", "many_to_one"])
    def test_every_iteration_activates_each_source_once(self, kind, mid_instance):
        topo, profiles, caps = mid_instance
        n_src = topo.num_sources
        _, tr = rm.solve(topo, profiles, caps, rm.SolverConfig(kind=kind),
                         np.random.default_rng(6))
        assert tr.iteration.tolist() == [k for k in range(1, tr.num_iterations + 1)
                                         for _ in range(n_src)]
        for order in tr.actor.reshape(-1, n_src).tolist():
            assert sorted(order) == list(range(n_src))

    def test_returns_best_visited_satisfaction(self, mid_instance):
        topo, profiles, caps = mid_instance
        m, tr = rm.run_pma(topo, profiles, caps, rm.SolverConfig(),
                           np.random.default_rng(7))
        final = rm.global_satisfaction(m, profiles, caps)
        assert final >= tr.lam.max() - 1e-10

    def test_trivial_single_pair_converges_to_match(self):
        topo, profiles, caps = make_instance(9, num_sources=1, num_relays=1,
                                             source_radios=1)
        m, _ = rm.run_pma(topo, profiles, caps, rm.SolverConfig(),
                          np.random.default_rng(1))
        assert m.radios_of(0) == (0,)

    def test_annealing_schedule(self):
        assert solvers.beta(0) == 0.0
        assert solvers.beta(60) == 1.0
        assert solvers.beta(10 ** 9) == solvers.BETA_MAX == 1000.0


@pytest.mark.parametrize("kind", ["pma", "many_to_one"])
def test_walk_sees_true_lambda_and_potential_identity(kind, mid_instance):
    """At every proposal the walk's state carries the true global
    satisfaction, and the utility gap the walk reads (u_old off the mover
    baseline, u_new from utility) equals the change of global satisfaction
    that the proposed deviation would cause; where the draw does not decide
    alone, that gap is the one passed to pma_accept. Calls are keyed by
    activation, counted by its one size draw."""
    topo, profiles, caps = mid_instance
    integers, utility, accept = (Draws.integers, _MatchingState.utility,
                                 solvers.pma_accept)
    activations, calls, accepts = [], {}, []

    def size_spy(self, low, high):
        activations.append(low)
        return integers(self, low, high)

    def utility_spy(self, n, candidate):
        u_new = utility(self, n, candidate)
        calls[len(activations)] = (tuple(self.strategies), self.lam, n, candidate,
                                   self._baselines[n][2], u_new)
        return u_new

    def accept_spy(u_new, u_old, beta):
        accepts.append((len(activations), u_old, u_new))
        return accept(u_new, u_old, beta)

    with mock.patch.object(Draws, "integers", size_spy), \
            mock.patch.object(_MatchingState, "utility", utility_spy), \
            mock.patch.object(solvers, "pma_accept", accept_spy):
        _, trace = rm.solve(topo, profiles, caps, rm.SolverConfig(kind=kind),
                            np.random.default_rng(12))
    assert calls
    # withdrawals call no utility; their u_new is evaluate(0.0)
    passed = [(k, u_old, u_new) for k, u_old, u_new in accepts if k in calls]
    assert passed
    for k, u_old, u_new in passed:
        assert (u_old, u_new) == calls[k][4:]
    quotas = [1] * topo.num_sources if kind == "many_to_one" else topo.quotas
    # the initial state is the first thing a solver draws from its stream
    initial = _random_initial(quotas, topo.num_radios, np.random.default_rng(12))
    assert rm.global_satisfaction(rm.Matching(initial, topo.num_radios),
                                  profiles, caps) == pytest.approx(
        trace.initial_lambda, abs=1e-10)
    for strategies, lam, n, candidate, u_old, u_new in calls.values():
        before = rm.Matching(strategies, topo.num_radios)
        lam_before = rm.global_satisfaction(before, profiles, caps)
        assert lam == pytest.approx(lam_before, abs=1e-10)
        gain = rm.global_satisfaction(before.with_strategy(n, candidate),
                                      profiles, caps) - lam_before
        assert u_new - u_old == pytest.approx(gain, abs=1e-10)


def _run_digest(matching, trace):
    h = hashlib.sha256()
    h.update(repr(matching.strategies).encode())
    h.update(np.asarray(trace.lam, dtype=np.float64).tobytes())
    h.update(np.asarray(trace.actor, dtype=np.int64).tobytes())
    h.update(np.asarray(trace.accepted, dtype=bool).tobytes())
    h.update(repr(trace.convergence_iteration).encode())
    return h.hexdigest()


# Digests of (matching, trace.lam, trace.actor, trace.accepted,
# convergence_iteration), recorded while proposals were still drawn by numpy's
# Generator.choice: any change to how the solvers consume their random stream
# or order their floating-point sums shows up here.
PINNED_DIGESTS = {
    ("pma", 1): "4caf4166fe0e7719ea093a5bc89e05cb06afe657a524d3194ac7c41f85585abe",
    ("pma", 5): "0618b47cc1326d0bf776f046eb3cf6d6ab61dff4e14f0e27ea94d59e254597a3",
    ("pma", 7): "69698580b222e443e424fedf1af788833cad1242cf9fc13b7ae1e37354034ea3",
    ("many_to_one", 1): "b2cd2cbcf79e8d68152b908050524842ba92929e56eea49a21b25e60018acab4",
    ("many_to_one", 5): "40d55e27e4621ae0f24e668b79eb56d98f1a2aff60e1d10239a007847a86ea14",
    ("many_to_one", 7): "21371de6d741ea7e525fb604d5b92d84ac69da068c204f692a97236b4e727d12",
    ("best_response", 1): "b65e2e3495ff4453ce91ad09dcf0d737df4085f4a0980b143d85f512b4ec6172",
    ("best_response", 5): "806995f4f43c33551738b892fa7c0c8d7bb940d5c3974864ccc5c60344831fe8",
    ("best_response", 7): "6b1792466bf4f09b2475c0c6da660b7caac9a45905790c85546971d736778a32",
    ("substitutable", 0): "fa1457922673159469399d905f8dfae503869d77887bcec8912992a1967dae86",
}


@pytest.mark.parametrize("kind,seed", sorted(PINNED_DIGESTS))
def test_pinned_run_digest(kind, seed):
    # 10 radios, so proposal weights are normalised by numpy's 8-way sum
    topo, profiles, caps = make_instance(2026, num_sources=8, num_relays=5,
                                         radios_per_relay=2, source_radios=(2, 3))
    m, trace = rm.solve(topo, profiles, caps, rm.SolverConfig(kind=kind),
                        np.random.default_rng(seed))
    assert _run_digest(m, trace) == PINNED_DIGESTS[kind, seed]


# sha256 of IterationTrace.write_csv output at seed 1 on the pinned-digest
# instance; unlike PINNED_DIGESTS these also cover the iteration column
PINNED_CSV_DIGESTS = {
    "pma": "1c45f45d6763ac1758270d5d7ef56cde3245bf74d09e8ea7200c4bf1a359fef4",
    "many_to_one": "e07c23888dd7bad49d85841c5fe650cb194fd8bff7e78c0d2a0c1e2ac589cedf",
    "best_response": "f9cbabd917c8b733ead289f9f9556ab43c9ec02c47e6f91f411b52f54df653ce",
    "substitutable": "32cef1468bd1bfe4c1c769d0daf6ee6f95a6d720692dc7aaa61e4da3c9a10fea",
}


@pytest.mark.parametrize("kind", sorted(PINNED_CSV_DIGESTS))
def test_pinned_trace_csv_digest(kind):
    topo, profiles, caps = make_instance(2026, num_sources=8, num_relays=5,
                                         radios_per_relay=2, source_radios=(2, 3))
    _, trace = rm.solve(topo, profiles, caps, rm.SolverConfig(kind=kind),
                        np.random.default_rng(1))
    buf = io.StringIO()
    trace.write_csv(buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == \
        PINNED_CSV_DIGESTS[kind]


class _StopRun(Exception):
    pass


# sha256 of rng.bit_generator.state after solve at seed 1 on the
# pinned-digest instance, recorded while every draw went through numpy's
# Generator calls; "pma, run raises" stops the run right after activation 50
PINNED_GENERATOR_END_STATES = {
    "pma": "943f3e5e46deaaddf9150c3eed70a3e6d8bc73c50bb26de29c663a084664c87e",
    "many_to_one": "399e230def2f30507c22f07defc722defaf53c87f69cbe17a5266858f3ae2246",
    "best_response": "e6000fca49d62b86bebe8c5283189d024dc6cd5eb4700737707e368459ad7407",
    "substitutable": "b9645886707002752a06918073f34884490f2bc380253be96f39f725cd1e22c2",
    "pma, run raises":
        "df4072cf7f601247839e226636ddea4891fec5562d7418ce39329d41ae06e22d",
}


@pytest.mark.parametrize("case", sorted(PINNED_GENERATOR_END_STATES))
def test_pinned_generator_end_state(case):
    topo, profiles, caps = make_instance(2026, num_sources=8, num_relays=5,
                                         radios_per_relay=2, source_radios=(2, 3))
    rng = np.random.default_rng(1)
    if case == "pma, run raises":
        integers, calls = Draws.integers, []

        def spy(self, low, high):
            # one size draw opens each activation; the 51st raises before it
            # draws
            calls.append(low)
            if len(calls) == 51:
                raise _StopRun
            return integers(self, low, high)

        with mock.patch.object(Draws, "integers", spy), pytest.raises(_StopRun):
            rm.solve(topo, profiles, caps, rm.SolverConfig(kind="pma"), rng)
    else:
        rm.solve(topo, profiles, caps, rm.SolverConfig(kind=case), rng)
    digest = hashlib.sha256(repr(rng.bit_generator.state).encode()).hexdigest()
    assert digest == PINNED_GENERATOR_END_STATES[case]


class TestManyToOne:
    def test_all_strategies_at_most_one_radio(self, mid_instance):
        topo, profiles, caps = mid_instance
        m, _ = rm.run_many_to_one(topo, profiles, caps, rm.SolverConfig(),
                                  np.random.default_rng(8))
        assert all(len(s) <= 1 for s in m.strategies)
        assert rm.is_feasible(m, topo)


class TestBestResponse:
    def test_termination_state_is_stable(self):
        for topo_seed, solver_seed in spawn_seeds(55, 10):
            topo, profiles, caps = make_instance(topo_seed)
            m, tr = rm.run_best_response(topo, profiles, caps,
                                         rm.SolverConfig(kind="best_response"),
                                         rng=np.random.default_rng(solver_seed))
            assert rm.is_stable(m, topo, profiles, caps).stable
            assert tr.convergence_iteration is not None

    def test_accepted_moves_strictly_increase_satisfaction(self, mid_instance):
        topo, profiles, caps = mid_instance
        _, tr = rm.run_best_response(topo, profiles, caps,
                                     rm.SolverConfig(kind="best_response"),
                                     np.random.default_rng(3))
        lam = np.concatenate([[tr.initial_lambda], tr.lam])
        deltas = np.diff(lam)[tr.accepted]
        assert (deltas > 0).all()

    def test_strategy_cap_enforced(self):
        # quota 3 on 1000 radios: C(1000, 3) alone exceeds ENUMERATION_CAP
        topo, profiles, caps = make_instance(0, num_sources=1, num_relays=1,
                                             radios_per_relay=1000, source_radios=3)
        cfg = rm.SolverConfig(kind="best_response")
        with pytest.raises(EnumerationLimitError, match="166667501"):
            rm.run_best_response(topo, profiles, caps, cfg, np.random.default_rng(0))


def _skippable(trace):
    """Activations whose actor's previous entry was not accepted, with no
    accepted entry since: the same state, scored again."""
    previous, last_accepted, count = {}, -1, 0
    for i, (n, accepted) in enumerate(zip(trace.actor.tolist(),
                                          trace.accepted.tolist())):
        j = previous.get(n)
        if j is not None and not trace.accepted[j] and last_accepted < j:
            count += 1
        previous[n] = i
        if accepted:
            last_accepted = i
    return count


@pytest.mark.parametrize("num_sources", [8, 13, 16])
def test_best_response_matches_reference_and_skips_unchanged_states(
        num_sources, monkeypatch):
    calls = []
    improvements = _MatchingState.improvements

    def counted(self, n, candidates):
        calls.append(n)
        return improvements(self, n, candidates)

    monkeypatch.setattr(_MatchingState, "improvements", counted)
    cfg = rm.SolverConfig(kind="best_response")
    skipped = 0
    for topo_seed, seq in spawn_seeds(60 + num_sources, 20):
        topo, profiles, caps = make_instance(topo_seed, num_sources=num_sources,
                                             num_relays=5, radios_per_relay=2,
                                             source_radios=None)
        ref_m, ref = _reference_best_response(topo, profiles, caps, cfg,
                                              np.random.default_rng(seq))
        calls.clear()
        m, trace = rm.run_best_response(topo, profiles, caps, cfg,
                                        np.random.default_rng(seq))
        assert m == ref_m
        assert trace.convergence_iteration == ref.convergence_iteration
        for column in ("iteration", "actor", "accepted", "lam"):
            assert (getattr(trace, column).tobytes()
                    == getattr(ref, column).tobytes()), column
        assert len(calls) == len(trace) - _skippable(trace)
        skipped += _skippable(trace)
    assert skipped > 0


@pytest.mark.parametrize("num_sources,num_relays", [(6, 3), (13, 5)])
def test_best_response_cut_reports_convergence_only_when_stable(num_sources,
                                                                num_relays):
    # a cut can fall mid-sweep; only a state every source has scored
    # without moving is a converged one. The reference records one entry
    # per activation, so its run cut at k is its full run's first k entries.
    converged = 0
    for topo_seed, seq in spawn_seeds(90 + num_sources, 20):
        topo, profiles, caps = make_instance(topo_seed, num_sources=num_sources,
                                             num_relays=num_relays,
                                             radios_per_relay=2, source_radios=None)
        _, ref = _reference_best_response(topo, profiles, caps,
                                          rm.SolverConfig(kind="best_response"),
                                          np.random.default_rng(seq))
        for cut in range(1, len(ref)):
            cfg = rm.SolverConfig(kind="best_response", max_iterations=cut)
            m, trace = rm.run_best_response(topo, profiles, caps, cfg,
                                            np.random.default_rng(seq))
            for column in ("iteration", "actor", "accepted", "lam"):
                assert (getattr(trace, column).tobytes()
                        == getattr(ref, column)[:cut].tobytes()), (cut, column)
            if trace.convergence_iteration is not None:
                assert rm.is_stable(m, topo, profiles, caps).stable, cut
                converged += 1
    assert converged > 0


class TestSubstitutable:
    def test_feasible_singleton_strategies_within_radio_quota(self, mid_instance):
        topo, profiles, caps = mid_instance
        cfg = rm.SolverConfig(kind="substitutable")
        m, _ = rm.run_substitutable(topo, profiles, caps, cfg)
        assert all(len(s) <= 1 for s in m.strategies)
        assert (m.loads() <= rm.solvers.RADIO_QUOTA).all()

    def test_full_radio_keeps_better_proposers(self):
        # three proposers for the one radio's RADIO_QUOTA = 2 slots
        topo, profiles, caps = make_instance(31, num_sources=3, num_relays=1,
                                             source_radios=1)
        cfg = rm.SolverConfig(kind="substitutable")
        m, _ = rm.run_substitutable(topo, profiles, caps, cfg)
        holders = [n for n, strat in enumerate(m.strategies) if 0 in strat]
        assert len(holders) == 2
        (evicted,) = set(range(3)) - set(holders)
        assert all(profiles[k].evaluate(caps[k, 0] / 2)
                   >= profiles[evicted].evaluate(caps[evicted, 0] / 2)
                   for k in holders)

    def test_deterministic(self, mid_instance):
        topo, profiles, caps = mid_instance
        cfg = rm.SolverConfig(kind="substitutable")
        m1, _ = rm.run_substitutable(topo, profiles, caps, cfg)
        m2, _ = rm.run_substitutable(topo, profiles, caps, cfg)
        assert m1 == m2

    def test_truncated_run_reports_no_convergence(self, mid_instance):
        topo, profiles, caps = mid_instance
        m, full = rm.run_substitutable(topo, profiles, caps,
                                       rm.SolverConfig(kind="substitutable"))
        assert full.convergence_iteration == len(full) > 3
        cut = rm.SolverConfig(kind="substitutable", max_iterations=3)
        m_cut, trace = rm.run_substitutable(topo, profiles, caps, cut)
        assert len(trace) == 3
        assert trace.convergence_iteration is None
        # either run returns the state its last trace entry ends in
        for matching, tr in ((m, full), (m_cut, trace)):
            assert tr.lam[-1] == rm.global_satisfaction(matching, profiles, caps)


class TestExhaustive:
    def test_optimum_dominates_all_solvers(self):
        for topo_seed, s1, s2 in spawn_seeds(77, 10, width=3):
            topo, profiles, caps = make_instance(topo_seed, num_sources=3,
                                                 num_relays=3, radios_per_relay=1,
                                                 source_radios=2)
            _, lam_star = rm.exhaustive_search(topo, profiles, caps)
            for kind, seq in (("pma", s1), ("best_response", s2)):
                m, _ = rm.solve(topo, profiles, caps, rm.SolverConfig(kind=kind),
                                np.random.default_rng(seq))
                assert lam_star >= rm.global_satisfaction(m, profiles, caps) - 1e-10

    def test_optimum_is_stable(self):
        topo, profiles, caps = make_instance(41)
        m, _ = rm.exhaustive_search(topo, profiles, caps)
        assert rm.is_stable(m, topo, profiles, caps).stable

    def test_large_instance_exceeds_cap(self):
        topo, profiles, caps = make_instance(1, num_sources=13, num_relays=5,
                                             radios_per_relay=2, source_radios=3)
        expected = count_strategies(10, 3) ** 13
        with pytest.raises(EnumerationLimitError, match=str(expected)):
            rm.exhaustive_search(topo, profiles, caps)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           num_sources=st.integers(min_value=1, max_value=5),
           num_radios=st.integers(min_value=1, max_value=6),
           chunk=st.sampled_from([1, 7, 64, solvers._ORACLE_CHUNK]))
    def test_matches_reference_loop(self, seed, num_sources, num_radios, chunk):
        topo, profiles, caps = make_instance(seed, num_sources=num_sources,
                                             num_relays=num_radios,
                                             radios_per_relay=1,
                                             source_radios=(1, 3))
        total = math.prod(count_strategies(num_radios, q) for q in topo.quotas)
        assume(total <= 20_000)
        # small chunks put many chunk boundaries inside small spaces
        m, lam, blocks = _oracle_blocks(topo, profiles, caps, chunk)
        m_ref, lam_ref = _reference_exhaustive(topo, profiles, caps)
        assert m == m_ref
        assert lam.hex() == lam_ref.hex()
        # the blocks cover the profiles once, in order, each either scored
        # once (its lambda grid is the reference's, bit for bit) or pruned
        # by a bound strictly below the optimum
        lams = np.array(_reference_lambdas(topo, profiles, caps))
        assert [lo for lo, _, _, _ in blocks] == [0] + [hi for _, hi, _, _ in blocks[:-1]]
        assert blocks[-1][1] == total
        assert max(hi - lo for lo, hi, _, _ in blocks) <= chunk
        for lo, hi, bound, grid in blocks:
            if grid is None:
                assert bound < lam
            else:
                assert grid.tobytes() == lams[lo:hi].tobytes()

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           num_sources=st.integers(min_value=1, max_value=5),
           num_radios=st.integers(min_value=1, max_value=6),
           chunk=st.sampled_from([1, 7, 64]),
           bump=st.booleans())
    def test_block_bounds_hold(self, seed, num_sources, num_radios, chunk, bump):
        topo, profiles, caps = make_instance(seed, num_sources=num_sources,
                                             num_relays=num_radios,
                                             radios_per_relay=1,
                                             source_radios=(1, 3))
        total = math.prod(count_strategies(num_radios, q) for q in topo.quotas)
        assume(total <= 20_000)
        if bump:
            profiles = [_BumpProfile(p) for p in profiles]
        m, lam, blocks = _oracle_blocks(topo, profiles, caps, chunk)
        lams = _reference_lambdas(topo, profiles, caps)
        for lo, hi, bound, _ in blocks:
            assert bound >= max(lams[lo:hi])
        m_ref, lam_ref = _reference_exhaustive(topo, profiles, caps)
        assert (m, lam.hex()) == (m_ref, lam_ref.hex())

    def test_block_bounded_by_the_incumbent_is_scored(self):
        # two identical sources on two equal radios: the first optimum's
        # block is visited after a block with a higher bound that holds an
        # equal optimum, and its own bound equals that lambda exactly
        topo, _, _ = make_instance(5, num_sources=2, num_relays=2,
                                   radios_per_relay=1, source_radios=2)
        profiles = (rm.SatisfactionProfile(45e6),) * 2
        caps = np.full((2, 2), 20e6)
        lams = _reference_lambdas(topo, profiles, caps)
        first = lams.index(max(lams))
        m, lam, blocks = _oracle_blocks(topo, profiles, caps, 11)
        (tied,) = [b for b in blocks if b[0] <= first < b[1]]
        assert tied[2] == lam == lams[first]
        assert any(b[2] > lam and max(lams[b[0]:b[1]]) == lam for b in blocks)
        assert tied[3] is not None
        m_ref, _ = _reference_exhaustive(topo, profiles, caps)
        assert m == m_ref

    def test_first_maximum_wins_across_chunks(self):
        # identical sources on equal capacities: every relabelling of the
        # radios scores the same lambda, bit for bit
        topo, _, _ = make_instance(5, num_sources=3, num_relays=7,
                                   radios_per_relay=1, source_radios=2)
        profiles = (rm.SatisfactionProfile(30e6),) * 3
        caps = np.full((3, topo.num_radios), 20e6)
        spaces = [enumerate_strategies(topo.num_radios, 2)] * 3
        lams = [rm.global_satisfaction(rm.Matching(combo, topo.num_radios),
                                       profiles, caps)
                for combo in itertools.product(*spaces)]
        best = max(lams)
        winners = [i for i, lam in enumerate(lams) if lam == best]
        assert len(lams) > solvers._ORACLE_CHUNK
        assert winners[-1] // solvers._ORACLE_CHUNK > winners[0] // solvers._ORACLE_CHUNK
        # a block is a contiguous run of at most _ORACLE_CHUNK profiles
        assert winners[-1] - winners[0] >= solvers._ORACLE_CHUNK
        m, lam = rm.exhaustive_search(topo, profiles, caps)
        first = np.unravel_index(winners[0], [len(sp) for sp in spaces])
        assert m.strategies == tuple(sp[i] for sp, i in zip(spaces, first))
        assert lam == best

    @pytest.mark.parametrize("params", [
        dict(num_sources=4, num_relays=3, radios_per_relay=1, source_radios=(1, 2)),
        dict(num_sources=4, num_relays=3, radios_per_relay=2, source_radios=(1, 2)),
        dict(num_sources=3, num_relays=2, radios_per_relay=2, source_radios=3),
    ])
    def test_evaluates_no_more_than_reference(self, params):
        topo, profiles, caps = make_instance(13, **params)
        counting = [_CountingProfile(p) for p in profiles]
        rm.exhaustive_search(topo, counting, caps)
        total = math.prod(count_strategies(topo.num_radios, q) for q in topo.quotas)
        assert sum(p.calls for p in counting) <= topo.num_sources * total

    def test_criterion_2_instances_digest(self):
        # sha256 of (strategies, lambda.hex()) of the oracle on the 200
        # criterion-2 instances, recorded with the per-profile loop
        params = rm.TopologyParams(num_sources=4, num_relays=3,
                                   radios_per_relay=1, source_radios=(1, 2),
                                   path_loss=rm.AIR_TO_AIR)
        h = hashlib.sha256()
        for topo_seed, _ in spawn_seeds(314, 200):
            topo = rm.generate_topology(params, topo_seed)
            m, lam = rm.exhaustive_search(topo, rm.default_profiles(topo),
                                          rm.build_capacity_table(topo))
            h.update(repr((m.strategies, lam.hex())).encode())
        assert h.hexdigest() == CRITERION_2_ORACLE_DIGEST

    def test_six_radio_quota_patterns_digest(self):
        # sha256 of (strategies, lambda.hex()) of the oracle on the first
        # instance of each of the 16 quota patterns at the oracle_audit shape
        # (up to 22**4 profiles, many blocks each), recorded with the
        # load-vector chunk loop
        params = rm.TopologyParams(num_sources=4, num_relays=3,
                                   radios_per_relay=2, source_radios=(1, 2),
                                   path_loss=rm.AIR_TO_AIR)
        firsts = {}
        for topo_seed, _ in spawn_seeds(15, 200):
            topo = rm.generate_topology(params, topo_seed)
            firsts.setdefault(topo.quotas, topo)
        assert len(firsts) == 16
        h = hashlib.sha256()
        for quotas in sorted(firsts):
            topo = firsts[quotas]
            m, lam = rm.exhaustive_search(topo, rm.default_profiles(topo),
                                          rm.build_capacity_table(topo))
            h.update(repr((m.strategies, lam.hex())).encode())
        assert h.hexdigest() == SIX_RADIO_ORACLE_DIGEST

    @pytest.mark.parametrize("params", [
        dict(num_sources=3, num_relays=3, radios_per_relay=1, source_radios=(1, 2)),
        dict(num_sources=2, num_relays=1, radios_per_relay=1, source_radios=3),
    ], ids=["mixed-quotas", "quota-above-radios"])
    def test_layouts_kept_per_shape_read_only_and_chunk_free(self, params):
        # calls on two caps of one shape, interleaved, each under another
        # _ORACLE_CHUNK: the layouts kept from the first call serve them all
        topo, profiles, caps = make_instance(23, **params)
        other = caps * np.linspace(0.4, 1.6, caps.size).reshape(caps.shape)
        for chunk, c in [(7, caps), (64, other), (1, caps), (solvers._ORACLE_CHUNK, other)]:
            with mock.patch.object(solvers, "_ORACLE_CHUNK", chunk):
                m, lam = rm.exhaustive_search(topo, profiles, c)
            m_ref, lam_ref = _reference_exhaustive(topo, profiles, c)
            assert (m, lam.hex()) == (m_ref, lam_ref.hex())
        shape = topo.num_radios, topo.num_sources
        layouts = [solvers._oracle_layout(*shape, q) for q in topo.quotas]
        assert all(a is b for a, b in zip(layouts, [solvers._oracle_layout(*shape, q)
                                                     for q in topo.quotas]))
        for (space, *arrays, blocks), q in zip(layouts, topo.quotas):
            assert space == tuple(enumerate_strategies(topo.num_radios, q))
            for a in [*arrays, *(solvers._pair_codes(*shape, q, p) for p in topo.quotas)]:
                with pytest.raises(ValueError, match="read-only"):
                    a.flat[0] = 0

    def test_deterministic_tie_break(self):
        profiles = (rm.SatisfactionProfile(10e6),)
        caps = np.array([[20e6, 20e6]])
        topo, _, _ = make_instance(2, num_sources=1, num_relays=2,
                                   source_radios=1)
        m, _ = rm.exhaustive_search(topo, profiles, caps)
        # equal-capacity tie resolves to the first candidate in canonical order
        assert m.radios_of(0) == (0,)


CRITERION_2_ORACLE_DIGEST = \
    "0b11793fc294ea790e5290d392b876bcce2d428b66895f106b7cc80c7ba79647"
SIX_RADIO_ORACLE_DIGEST = \
    "3f79a228b36760bf7d867dbda14a7834b8488232d7964e24f1c972f94bd02d3c"


class _CountingProfile:
    """A satisfaction profile that counts its evaluations."""

    def __init__(self, profile):
        self.profile, self.calls = profile, 0

    def evaluate(self, rate):
        self.calls += 1
        return self.profile.evaluate(rate)


class _BumpProfile:
    """Satisfaction that peaks at the required rate and falls on both
    sides, so more load on a radio can raise it."""

    def __init__(self, profile):
        self.required = profile.required_rate_bps

    def evaluate(self, rate):
        return math.exp(-((rate - self.required) / self.required) ** 2)


def _oracle_blocks(topology, profiles, caps, chunk):
    """exhaustive_search with _ORACLE_CHUNK patched to chunk, and its blocks
    in product order as (first profile, stop, bound, lambda grid or None if
    pruned). The bounds are the one array np.argsort orders, and the k-th
    np.argmax call scores the k-th block of that order."""
    sorts, grids = [], []
    argsort, argmax = np.argsort, np.argmax

    def sort_spy(a, *args, **kwargs):
        sorts.append(-a)
        return argsort(a, *args, **kwargs)

    def max_spy(a, *args, **kwargs):
        grids.append(np.array(a, dtype=float).ravel())
        return argmax(a, *args, **kwargs)

    with mock.patch.object(solvers, "_ORACLE_CHUNK", chunk), \
            mock.patch.object(solvers.np, "argsort", sort_spy), \
            mock.patch.object(solvers.np, "argmax", max_spy):
        m, lam = rm.exhaustive_search(topology, profiles, caps)
    (bounds,) = sorts
    bounds = bounds.ravel()
    # sources after t vary inside a block; t's axis is cut into slices
    counts = [count_strategies(topology.num_radios, q) for q in topology.quotas]
    t = next(t for t in range(len(counts)) if math.prod(counts[t + 1:]) <= chunk)
    tail = math.prod(counts[t + 1:])
    width = chunk // tail
    spans = [((lead * counts[t] + a) * tail,
              (lead * counts[t] + min(a + width, counts[t])) * tail)
             for lead in range(math.prod(counts[:t]))
             for a in range(0, counts[t], width)]
    assert len(spans) == len(bounds)
    order = np.argsort(-bounds, kind="stable")
    scored = dict(zip(order[:len(grids)].tolist(), grids))
    return m, lam, [(lo, hi, bounds[b], scored.get(b))
                    for b, (lo, hi) in enumerate(spans)]


def _reference_lambdas(topology, profiles, caps):
    """Lambda of every strategy profile, in itertools.product order, each
    from one from-scratch recompute."""
    n_radio = topology.num_radios
    per_source = [enumerate_strategies(n_radio, s.num_radios)
                  for s in topology.sources]
    caps_rows = caps.tolist()
    evaluators = [p.evaluate for p in profiles]
    out = []
    for combo in itertools.product(*per_source):
        loads = [0] * n_radio
        for strat in combo:
            for l in strat:
                loads[l] += 1
        lam = 0.0
        for n, strat in enumerate(combo):
            rate = 0.0
            row = caps_rows[n]
            for l in strat:
                rate += row[l] / loads[l]
            lam += evaluators[n](rate)
        out.append(lam)
    return out


def _reference_exhaustive(topology, profiles, caps):
    """Reference oracle: the first profile in itertools.product order with
    the largest reference lambda."""
    lams = _reference_lambdas(topology, profiles, caps)
    best = lams.index(max(lams))
    per_source = [enumerate_strategies(topology.num_radios, s.num_radios)
                  for s in topology.sources]
    picks = np.unravel_index(best, [len(space) for space in per_source])
    return (rm.Matching([space[i] for space, i in zip(per_source, picks)],
                        topology.num_radios), lams[best])


class TestSolveDispatcher:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            rm.SolverConfig(kind="simulated_annealing")

    def test_module_level_run_pma_is_what_solve_calls(self, monkeypatch,
                                                      mid_instance):
        # perfbench traces the solvers by replacing the module's run_*
        # functions; dispatch bound at import would bypass the replacement
        topo, profiles, caps = mid_instance
        seen = []

        def patched(topology, profiles, caps, config, rng):
            seen.append((config.kind, max(topology.quotas)))
            return "patched"

        monkeypatch.setattr(solvers, "run_pma", patched)
        for kind in ("pma", "many_to_one"):
            assert rm.solve(topo, profiles, caps, rm.SolverConfig(kind=kind),
                            np.random.default_rng(0)) == "patched"
        assert seen == [("pma", max(topo.quotas)), ("many_to_one", 1)]
        assert max(topo.quotas) > 1
