"""Unit tests for matching state, satisfaction, utilities and stability."""

import copy
import dataclasses
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import relaymatch as rm
from relaymatch.errors import ConfigurationError, EnumerationLimitError
from relaymatch.matching import (SATISFACTION_TOL, _canonical, _MatchingState,
                                 _radio_id, _state, count_strategies,
                                 enumerate_strategies)

from conftest import (_reference_global_satisfaction, _reference_is_stable,
                      _reference_relay_utility, make_instance)


class TestSatisfaction:
    def test_value_at_requirement(self):
        p = rm.SatisfactionProfile(required_rate_bps=10e6)
        assert p.evaluate(10e6) == pytest.approx(1.0 / (1.0 + math.exp(-7.5)))

    def test_sigmoid_midpoint_is_exactly_half(self):
        p = rm.SatisfactionProfile(required_rate_bps=10e6)
        midpoint = 10e6 - p.offset / p.slope_per_bps
        assert p.evaluate(midpoint) == 0.5

    def test_saturation(self):
        p = rm.SatisfactionProfile(required_rate_bps=30e6)
        assert p.evaluate(1e12) == pytest.approx(1.0)
        assert p.evaluate(0.0) < 1e-3

    def test_monotone(self):
        p = rm.SatisfactionProfile(required_rate_bps=20e6)
        rates = np.linspace(0, 20e6, 50)
        vals = [p.evaluate(r) for r in rates]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            rm.SatisfactionProfile(required_rate_bps=0.0)
        with pytest.raises(ConfigurationError):
            rm.SatisfactionProfile(required_rate_bps=1e6, slope_per_bps=0.0)
        with pytest.raises(ConfigurationError):
            rm.SatisfactionProfile(required_rate_bps=1e6, offset=7.0)


    @pytest.mark.parametrize("field,value", [
        ("required_rate_bps", math.nan), ("required_rate_bps", math.inf),
        ("slope_per_bps", math.nan), ("offset", math.inf), ("offset", math.nan)])
    def test_non_finite_values_refused(self, field, value):
        kwargs = {"required_rate_bps": 1e6, field: value}
        with pytest.raises(ConfigurationError, match=f"{field} must be finite"):
            rm.SatisfactionProfile(**kwargs)


def _reference_canonical(radios, num_radios):
    """_canonical without its pass-through: every strategy is mapped, sorted
    and deduplicated."""
    try:
        s = tuple(sorted(set(map(_radio_id, radios))))
    except TypeError:
        raise ConfigurationError(
            f"a strategy is a collection of integer radio ids, not {radios!r}") from None
    if s and (s[0] < 0 or s[-1] >= num_radios):
        bad = s[0] if s[0] < 0 else s[-1]
        raise ConfigurationError(f"radio id {bad} out of range for {num_radios} radios")
    return s


class TestMatchingState:
    @pytest.mark.parametrize("radios", [(1.7,), [3.99], ("1",), (0, None), 2,
                                        (True,), (0, np.True_)])
    def test_non_integer_radio_ids_refused(self, radios):
        # refused, not truncated to an integer id, on every path that reads ids
        m = rm.Matching([(0,)], num_radios=4)
        profiles = (rm.SatisfactionProfile(10e6),)
        caps = np.full((1, 4), 20e6)
        named = re.escape(repr(radios))
        with pytest.raises(ConfigurationError, match=named):
            rm.Matching([radios], num_radios=4)
        with pytest.raises(ConfigurationError, match=named):
            m.with_strategy(0, radios)
        with pytest.raises(ConfigurationError, match=named):
            rm.relay_utility(m, 0, radios, profiles, caps)

    def test_python_and_numpy_integer_ids_accepted(self):
        m = rm.Matching([np.array([3, 1]), (np.int32(2), np.uint8(2)), (1,)], 4)
        assert m.strategies == ((1, 3), (2,), (1,))
        assert all(type(l) is int for s in m.strategies for l in s)

    @pytest.mark.parametrize("make, same", [
        (lambda: (0, 2), True), (lambda: (2, 0), False), (lambda: (0, 0, 2), False),
        (lambda: (True, 2), False), (lambda: (np.int64(0), 2), False),
        (lambda: (-1, 2), False), (lambda: (0, 4), False), (lambda: [0, 2], False),
        (lambda: (l for l in (2, 0)), False)],
        ids=["canonical", "unsorted", "duplicate", "bool", "numpy-int", "negative",
             "out-of-range", "list", "generator"])
    def test_canonical_agrees_with_the_full_path(self, make, same):
        # a canonical tuple of Python ints comes back as it is; everything
        # else gives the full path's strategy or its refusal, word for word
        try:
            expected = _reference_canonical(make(), 4)
        except ConfigurationError as err:
            with pytest.raises(ConfigurationError) as got:
                _canonical(make(), 4)
            assert str(got.value) == str(err)
            return
        radios = make()
        s = _canonical(radios, 4)
        assert s == expected and all(type(l) is int for l in s)
        assert (s is radios) == same

    @pytest.mark.parametrize("radios, named", [((7,), "radio id 7 "), ((-2, 1), "radio id -2 ")])
    def test_out_of_range_refusal_names_id(self, radios, named):
        with pytest.raises(ConfigurationError, match=named + "out of range for 4 radios"):
            rm.Matching([(0,), radios], num_radios=4)

    def test_strategies_sorted_and_deduplicated(self):
        m = rm.Matching([(2, 0, 2), (1,)], num_radios=3)
        assert m.strategies == ((0, 2), (1,))

    def test_radio_id_out_of_range(self):
        with pytest.raises(ConfigurationError):
            rm.Matching([(3,)], num_radios=3)
        m = rm.Matching([(0,), ()], num_radios=3)
        profiles = (rm.SatisfactionProfile(10e6),) * 2
        caps = np.full((2, 3), 20e6)
        for radios in ((-1,), (3,), (0, 3)):
            with pytest.raises(ConfigurationError):
                m.with_strategy(1, radios)
            with pytest.raises(ConfigurationError):
                rm.relay_utility(m, 1, radios, profiles, caps)
        for source in (-1, 2):
            with pytest.raises(ConfigurationError, match="source"):
                m.with_strategy(source, (0,))

    def test_views_are_mutual_by_construction(self):
        m = rm.Matching([(0, 1), (1,), ()], num_radios=2)
        assert m.radios_of(0) == (0, 1)
        # the radio-side view is derived from the source-side tuples
        assert [n for n in range(3) if 1 in m.radios_of(n)] == [0, 1]
        assert [n for n in range(3) if 0 in m.radios_of(n)] == [0]
        assert list(m.loads()) == [1, 2]

    def test_with_strategy_returns_new_object(self):
        m = rm.Matching([(0,), ()], num_radios=2)
        m2 = m.with_strategy(1, (1,))
        assert m.radios_of(1) == ()
        assert m2.radios_of(1) == (1,)
        assert m != m2

    def test_equality_and_hash(self):
        a = rm.Matching([(0,), (1,)], 2)
        b = rm.Matching([[0], [1]], 2)
        assert a == b and hash(a) == hash(b)

    def test_dict_round_trip(self):
        m = rm.Matching([(0, 1), (), (1,)], num_radios=2)
        doc = m.to_dict()
        assert rm.Matching.from_dict(doc, 2) == m

    def test_from_dict_needs_every_source_id(self):
        # a gap would read the missing source 1 as holding no radio
        with pytest.raises(ConfigurationError, match=r"0\.\.2 without a gap; missing \[1\]"):
            rm.Matching.from_dict({"0": [1], "2": [0]}, 3)
        with pytest.raises(ConfigurationError, match=r"missing \[0, 2\]"):
            rm.Matching.from_dict({"1": [0], "3": []}, 3)
        # json.dump(sort_keys=True) writes "10" before "2"
        m = rm.Matching([(n % 3,) for n in range(11)], 3)
        assert rm.Matching.from_dict(dict(sorted(m.to_dict().items())), 3) == m
        assert rm.Matching.from_dict({}, 3) == rm.Matching([], 3)


class TestRates:
    def make_caps(self):
        # two sources, two radios; loads drive the sharing arithmetic
        return np.array([[20e6, 30e6], [20e6, 10e6]])

    def test_equal_time_share(self):
        caps = self.make_caps()
        m = rm.Matching([(0, 1), (0,)], num_radios=2)
        # source 0: 20/2 + 30/1 = 40 Mbps
        assert rm.sv_rate(m, 0, caps) == pytest.approx(40e6)
        assert rm.sv_rate(m, 1, caps) == pytest.approx(10e6)

    def test_unmatched_source_rate_zero(self):
        m = rm.Matching([(), (0,)], num_radios=2)
        assert rm.sv_rate(m, 0, self.make_caps()) == 0.0

    def test_sole_holder_gets_full_capacity(self):
        m = rm.Matching([(1,), ()], num_radios=2)
        assert rm.sv_rate(m, 0, self.make_caps()) == pytest.approx(30e6)


class TestGlobalSatisfaction:
    def test_empty_matching_near_zero(self):
        topo, profiles, caps = make_instance(3)
        m = rm.Matching([()] * topo.num_sources, topo.num_radios)
        assert rm.global_satisfaction(m, profiles, caps) < 1e-2

    def test_equals_hand_summed_satisfactions(self):
        caps = np.array([[20e6, 5e6], [15e6, 25e6]])
        profiles = (rm.SatisfactionProfile(12e6), rm.SatisfactionProfile(30e6))
        m = rm.Matching([(0,), (0, 1)], num_radios=2)
        expected = (profiles[0].evaluate(10e6)
                    + profiles[1].evaluate(7.5e6 + 25e6))
        assert rm.global_satisfaction(m, profiles, caps) == pytest.approx(expected)

    def test_saturated_system(self):
        profiles = (rm.SatisfactionProfile(1e6),) * 2
        caps = np.full((2, 2), 100e6)
        m = rm.Matching([(0,), (1,)], num_radios=2)
        assert rm.global_satisfaction(m, profiles, caps) == pytest.approx(2.0, abs=1e-3)


class TestRelayUtility:
    def test_isolated_source_utility_is_own_satisfaction(self):
        topo, profiles, caps = make_instance(5)
        m = rm.Matching([()] * topo.num_sources, topo.num_radios)
        u = rm.relay_utility(m, 0, (0,), profiles, caps)
        assert u == pytest.approx(profiles[0].evaluate(caps[0, 0]))

    def test_joining_a_held_radio_penalizes_holder(self):
        caps = np.array([[30e6, 1e3], [30e6, 1e3]])
        profiles = (rm.SatisfactionProfile(25e6), rm.SatisfactionProfile(25e6))
        m = rm.Matching([(), (0,)], num_radios=2)
        u = rm.relay_utility(m, 0, (0,), profiles, caps)
        f_own = profiles[0].evaluate(15e6)
        externality = profiles[1].evaluate(15e6) - profiles[1].evaluate(30e6)
        assert externality < 0
        assert u == pytest.approx(f_own + externality)

    def test_unknown_source_raises(self):
        topo, profiles, caps = make_instance(5)
        m = rm.Matching([()] * topo.num_sources, topo.num_radios)
        for source in (-1, topo.num_sources):
            with pytest.raises(ConfigurationError):
                rm.relay_utility(m, source, (0,), profiles, caps)


class TestPotentialIdentity:
    def test_unilateral_differences_match_global_differences(self):
        rng = np.random.default_rng(123)
        for trial in range(50):
            topo, profiles, caps = make_instance(
                1000 + trial,
                num_sources=int(rng.integers(2, 6)),
                num_relays=int(rng.integers(1, 5)),
                radios_per_relay=1,
                source_radios=None)
            space = [enumerate_strategies(topo.num_radios, q)
                     for q in topo.quotas]
            start = [space[n][int(rng.integers(len(space[n])))]
                     for n in range(topo.num_sources)]
            m = rm.Matching(start, topo.num_radios)
            base = rm.global_satisfaction(m, profiles, caps)
            for _ in range(4):
                n = int(rng.integers(topo.num_sources))
                cand = space[n][int(rng.integers(len(space[n])))]
                du = (rm.relay_utility(m, n, cand, profiles, caps)
                      - rm.relay_utility(m, n, m.radios_of(n), profiles, caps))
                dlam = rm.global_satisfaction(m.with_strategy(n, cand),
                                              profiles, caps) - base
                assert abs(du - dlam) <= SATISFACTION_TOL


class TestFeasibility:
    def test_quota_violation(self):
        topo, _, _ = make_instance(5, source_radios=2)
        strategies = [(0, 1, 2)] + [()] * (topo.num_sources - 1)
        m = rm.Matching(strategies, topo.num_radios)
        assert not rm.is_feasible(m, topo)

    def test_empty_matching_feasible(self):
        topo, _, _ = make_instance(5)
        assert rm.is_feasible(rm.Matching([()] * topo.num_sources,
                                          topo.num_radios), topo)

    def test_size_mismatch(self):
        topo, _, _ = make_instance(5)
        assert not rm.is_feasible(rm.Matching([()] * (topo.num_sources + 1),
                                              topo.num_radios), topo)


class TestStrategyEnumeration:
    def test_canonical_order_and_count(self):
        space = enumerate_strategies(3, 2)
        assert space == [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]
        assert len(space) == count_strategies(3, 2)


class TestStability:
    def test_single_matched_pair_stable(self):
        topo, profiles, caps = make_instance(5, num_sources=1, num_relays=1,
                                             source_radios=1)
        m = rm.Matching([(0,)], num_radios=1)
        assert rm.is_stable(m, topo, profiles, caps).stable

    def test_crowded_radio_unstable_with_witness(self):
        topo, profiles, caps = make_instance(8, num_sources=2, num_relays=2,
                                             source_radios=1)
        # both sources share the radio where source 0 is strongest
        l = int(np.argmax(caps[0]))
        m = rm.Matching([(l,), (l,)], num_radios=topo.num_radios)
        result = rm.is_stable(m, topo, profiles, caps)
        assert not result.stable
        n, better = result.witness
        improved = rm.global_satisfaction(m.with_strategy(n, better),
                                          profiles, caps)
        assert improved > rm.global_satisfaction(m, profiles, caps)

    def test_enumeration_cap_raises(self):
        # 20 sources of quota 3 on 60 radios: 20 * 36 051 = 721 020 candidates
        topo, profiles, caps = make_instance(5, num_sources=20, num_relays=6,
                                             radios_per_relay=10, source_radios=3)
        m = rm.Matching([()] * topo.num_sources, topo.num_radios)
        with pytest.raises(EnumerationLimitError, match="721020"):
            rm.is_stable(m, topo, profiles, caps)


def _random_matching(seed, num_sources, num_relays, radios_per_relay):
    """A seeded instance with quotas 1-3 and a uniformly drawn feasible
    matching, plus each source's strategy space and the drawing rng."""
    topo, profiles, caps = make_instance(seed, num_sources=num_sources,
                                         num_relays=num_relays,
                                         radios_per_relay=radios_per_relay,
                                         source_radios=None)
    rng = np.random.default_rng(seed)
    space = [enumerate_strategies(topo.num_radios, q) for q in topo.quotas]
    m = rm.Matching([s[int(rng.integers(len(s)))] for s in space],
                    topo.num_radios)
    return topo, profiles, caps, m, space, rng


instances = st.tuples(st.integers(min_value=0, max_value=2 ** 32 - 1),
                      st.integers(min_value=1, max_value=5),
                      st.integers(min_value=1, max_value=3),
                      st.integers(min_value=1, max_value=2))


class TestWrappersMatchReference:
    """The kernel-backed public functions against from-scratch loops."""

    @settings(max_examples=200, deadline=None)
    @given(instance=instances)
    def test_global_satisfaction_and_rates(self, instance):
        topo, profiles, caps, m, _, _ = _random_matching(*instance)
        assert (rm.global_satisfaction(m, profiles, caps)
                == _reference_global_satisfaction(m, profiles, caps))
        state = _MatchingState(m.strategies, caps.tolist(), profiles,
                               topo.num_radios)
        assert state.rates == [rm.sv_rate(m, n, caps)
                               for n in range(topo.num_sources)]

    @settings(max_examples=200, deadline=None)
    @given(instance=instances)
    def test_relay_utility(self, instance):
        topo, profiles, caps, m, space, rng = _random_matching(*instance)
        n = int(rng.integers(topo.num_sources))
        for cand in space[n]:
            assert abs(rm.relay_utility(m, n, cand, profiles, caps)
                       - _reference_relay_utility(m, n, cand, profiles, caps)
                       ) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(instance=instances, settle=st.booleans())
    def test_is_stable_verdict_and_witness(self, instance, settle):
        topo, profiles, caps, m, _, rng = _random_matching(*instance)
        if settle:
            # best response stops only at a stable matching
            m, _ = rm.run_best_response(topo, profiles, caps,
                                        rm.SolverConfig(kind="best_response"),
                                        rng=rng)
        assert (rm.is_stable(m, topo, profiles, caps)
                == _reference_is_stable(m, topo, profiles, caps))


def _reference_chain(state, n, candidates):
    """Best response's scan as one utility() call per candidate: each
    (candidate, utility) that beats the best so far by more than
    SATISFACTION_TOL, with the floor each candidate was compared with."""
    best = state.utility(n, state.strategies[n])
    chain, floors = [], []
    for cand in candidates:
        floors.append(best + SATISFACTION_TOL - 1e-12)
        u = state.utility(n, cand)
        if u > best + SATISFACTION_TOL:
            best = u
            chain.append((cand, u.hex()))
    return chain, floors


class TestScores:
    """The scores _MatchingState.improvements yields, against a scan that
    calls utility() once per candidate."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("num_sources", [4, 8, 13, 16])
    def test_equal_to_utility_bit_for_bit(self, num_sources, seed):
        # quotas 2 and 3, so some neighbours hold two or three radios of a
        # candidate and have their term evaluated again
        topo, profiles, caps = make_instance(300 + seed, num_sources=num_sources,
                                             num_relays=5, radios_per_relay=2,
                                             source_radios=(2, 3))
        rows = caps.tolist()
        rng = np.random.default_rng(seed)
        space = [enumerate_strategies(topo.num_radios, q) for q in topo.quotas]
        shared_twice, skipped, lengths = False, 0, set()
        for _ in range(5):
            strategies = [s[int(rng.integers(len(s)))] for s in space]
            strategies[int(rng.integers(num_sources))] = ()
            for n in range(num_sources):
                # the drawn state, then n on its best response, from which
                # nothing improves
                held = strategies
                for _ in range(2):
                    got = [(cand, u.hex()) for cand, u in _MatchingState(
                        held, rows, profiles, topo.num_radios).improvements(n, space[n])]
                    want, floors = _reference_chain(
                        _MatchingState(held, rows, profiles, topo.num_radios),
                        n, space[n])
                    assert got == want
                    lengths.add(min(len(got), 2))
                    # no utility exceeds its own term by 1e-12, so a
                    # candidate whose own term is <= its floor is skipped
                    fresh = _MatchingState(held, rows, profiles, topo.num_radios)
                    loads0 = [sum(l in s for k, s in enumerate(held) if k != n)
                              for l in range(topo.num_radios)]
                    for cand, floor in zip(space[n], floors):
                        rate = 0.0
                        for l in cand:
                            rate += rows[n][l] / (loads0[l] + 1)
                        own = profiles[n].evaluate(rate)
                        assert fresh.utility(n, cand) <= own + 1e-12
                        skipped += own <= floor and cand != held[n]
                    if not got:
                        break
                    held = [*held[:n], got[-1][0], *held[n + 1:]]
                shared_twice |= any(
                    len(set(strategies[k]).intersection(cand)) > 1
                    for cand in space[n] for k in range(num_sources) if k != n)
        # an empty chain and one of two or more yields both occur
        assert shared_twice and skipped and {0, 2} <= lengths


@pytest.fixture
def builds(monkeypatch):
    """Counts _MatchingState constructions."""
    built = []
    init = _MatchingState.__init__

    def counting_init(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(_MatchingState, "__init__", counting_init)
    return built


class TestKeptKernel:
    """The kernel state the wrappers keep on a matching."""

    def test_repeated_queries_build_one_state(self, builds):
        topo, profiles, caps, m, space, rng = _random_matching(5, 6, 3, 2)
        rm.is_stable(m, topo, profiles, caps)
        for _ in range(400):
            n = int(rng.integers(topo.num_sources))
            rm.relay_utility(m, n, space[n][int(rng.integers(len(space[n])))],
                             profiles, caps)
        rm.global_satisfaction(m, profiles, caps)
        assert len(builds) == 1

    @pytest.mark.parametrize("change", ["caps-mutated", "caps-equal-copy",
                                        "profile-replaced", "profile-appended",
                                        "profiles-equal-copy"])
    def test_rebuilt_when_inputs_change(self, builds, change):
        topo, profiles, caps, m, space, rng = _random_matching(7, 6, 3, 2)
        profiles = list(profiles)
        n = int(rng.integers(topo.num_sources))
        cand = space[n][-1]
        rm.relay_utility(m, n, cand, profiles, caps)
        # the same objects in a new sequence reuse the state
        rm.global_satisfaction(m, tuple(profiles), caps)
        assert len(builds) == 1
        if change == "caps-mutated":
            caps *= 1.5
        elif change == "caps-equal-copy":
            caps = caps.copy()
        elif change == "profile-replaced":
            profiles[0] = rm.SatisfactionProfile(2 * profiles[0].required_rate_bps)
        elif change == "profile-appended":
            profiles.append(profiles[0])
        else:
            profiles = tuple(dataclasses.replace(p) for p in profiles)
        got = (rm.global_satisfaction(m, profiles, caps),
               rm.relay_utility(m, n, cand, profiles, caps))
        assert len(builds) == 2
        fresh = _MatchingState(m.strategies, caps.tolist(), profiles, topo.num_radios)
        assert [x.hex() for x in got] == [fresh.lam.hex(),
                                          fresh.utility(n, cand).hex()]

    def test_same_tuple_reused_until_caps_change(self, builds):
        topo, profiles, caps, m, _, _ = _random_matching(11, 6, 3, 2)
        assert type(profiles) is tuple
        state = _state(m, profiles, caps)
        assert m._kernel[2] is profiles
        assert _state(m, profiles, caps) is state
        assert len(builds) == 1
        # the very tuple the state was built from does not stand in for caps:
        # new bytes in the same array, then an equal copy, each rebuild
        caps *= 1.5
        rebuilt = _state(m, profiles, caps)
        assert len(builds) == 2 and rebuilt is not state
        _state(m, profiles, caps.copy())
        assert len(builds) == 3
        fresh = _MatchingState(m.strategies, caps.tolist(), profiles, topo.num_radios)
        assert rebuilt.lam.hex() == fresh.lam.hex()
        assert rebuilt.rates == fresh.rates

    def test_copies_and_pickles_carry_no_kernel(self):
        topo, profiles, caps, m, _, _ = _random_matching(9, 6, 3, 2)
        unevaluated = pickle.dumps(m)
        state = _state(m, profiles, caps)
        assert m._kernel[3] is state
        for other in (m.with_strategy(0, m.radios_of(0)), copy.copy(m),
                      copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
            assert other == m and other._kernel is None
        assert pickle.dumps(m) == unevaluated


class TestKeptAnswers:
    """The deviated matchings and relay utilities a matching keeps once
    asked for them."""

    def test_one_child_per_source_and_strategy(self):
        m = rm.Matching([(0,), (1,), ()], num_radios=4)
        child = m.with_strategy(1, (2, 1))
        assert m.with_strategy(1, [1, 2]) is child
        assert m.with_strategy(1, (np.int64(1), 2)) is child
        others = {(2, (1, 2)): m.with_strategy(2, (1, 2)),
                  (1, (1, 3)): m.with_strategy(1, (1, 3)),
                  (1, ()): m.with_strategy(1, ())}
        assert len({id(c) for c in (child, *others.values())}) == 4
        for (n, radios), c in {(1, (1, 2)): child, **others}.items():
            strategies = [*m.strategies[:n], radios, *m.strategies[n + 1:]]
            fresh = rm.Matching(strategies, 4)
            assert c == fresh and hash(c) == hash(fresh)
        assert m.strategies == ((0,), (1,), ())

    def test_kept_answers_equal_fresh_ones(self):
        topo, profiles, caps, m, space, _ = _random_matching(13, 5, 3, 2)
        questions = [(n, cand) for n, s in enumerate(space) for cand in s]

        def fresh_answers(profiles):
            state = _MatchingState(m.strategies, caps.tolist(), profiles, topo.num_radios)
            return [(rm.global_satisfaction(rm.Matching(
                        [*m.strategies[:n], cand, *m.strategies[n + 1:]], topo.num_radios),
                        profiles, caps).hex(), state.utility(n, cand).hex())
                    for n, cand in questions]

        def kept_answers(profiles):
            return [(rm.global_satisfaction(m.with_strategy(n, cand), profiles, caps).hex(),
                     rm.relay_utility(m, n, cand, profiles, caps).hex())
                    for n, cand in questions]

        first = kept_answers(profiles)
        children = [m.with_strategy(n, cand) for n, cand in questions]
        assert kept_answers(profiles) == first == fresh_answers(profiles)
        assert all(m.with_strategy(n, cand) is c for (n, cand), c in zip(questions, children))
        # the kept utilities are dropped with the kernel state they lean on
        caps *= 1.5
        assert kept_answers(profiles) == fresh_answers(profiles) != first
        other = tuple(dataclasses.replace(p, required_rate_bps=2 * p.required_rate_bps)
                      for p in profiles)
        assert kept_answers(other) == fresh_answers(other)
        assert kept_answers(profiles) == fresh_answers(profiles)

    def test_refusals_unchanged_and_keep_nothing(self):
        m = rm.Matching([(0,), (1,), ()], num_radios=4)
        profiles = (rm.SatisfactionProfile(10e6),) * 3
        caps = np.full((3, 4), 20e6)
        child = m.with_strategy(2, (1,))
        u = rm.relay_utility(m, 2, (1,), profiles, caps)
        bad_sources = [(3, "unknown source id 3"), (-1, "unknown source id -1"),
                       (True, "a source id is an integer, not True"),
                       (2.0, "a source id is an integer, not 2.0")]
        refusals = [*((source, (1,), message) for source, message in bad_sources),
                    (2, (True,), "a strategy is a collection of integer radio ids, "
                                 "not (True,)"),
                    (2, (1.0,), "a strategy is a collection of integer radio ids, "
                                "not (1.0,)"),
                    (2, (4,), "radio id 4 out of range for 4 radios")]
        for source, radios, message in refusals:
            with pytest.raises(ConfigurationError) as err:
                m.with_strategy(source, radios)
            assert str(err.value) == message
            with pytest.raises(ConfigurationError) as err:
                rm.relay_utility(m, source, radios, profiles, caps)
            assert str(err.value) == message
        for source, message in bad_sources:
            with pytest.raises(ConfigurationError) as err:
                rm.sv_rate(m, source, caps)
            assert str(err.value) == message
        # True is not taken for source 1, nor 2.0 for source 2; a numpy id is
        # an index like Python's
        assert [list(c) for c in m._children] == [[], [], [(1,)]]
        assert m.with_strategy(np.int64(2), (1,)) is child
        assert rm.relay_utility(m, np.int64(2), (1,), profiles, caps) == u
        assert rm.sv_rate(m, np.int64(1), caps) == rm.sv_rate(m, 1, caps)
        assert [k and list(k) for k in m._kernel[4]] == [None, None, [(1,)]]
        assert m.with_strategy(2, (1,)) is child
        assert rm.relay_utility(m, 2, (1,), profiles, caps) == u
        fresh = _MatchingState(m.strategies, caps.tolist(), profiles, 4)
        assert (rm.relay_utility(m, 0, (0, 3), profiles, caps).hex()
                == fresh.utility(0, (0, 3)).hex())
        assert m.with_strategy(0, (0, 3)) == rm.Matching([(0, 3), (1,), ()], 4)

    def test_pickles_carry_no_kept_answer(self):
        topo, profiles, caps, m, space, _ = _random_matching(9, 4, 3, 2)
        unevaluated = pickle.dumps(m)
        cand = space[0][-1]
        child = m.with_strategy(0, cand)
        rm.relay_utility(m, 0, cand, profiles, caps)
        rm.global_satisfaction(child, profiles, caps)
        back = pickle.loads(pickle.dumps(m))
        assert back == m and back._children is None and back._kernel is None
        assert pickle.dumps(m) == unevaluated
        assert back.with_strategy(0, cand) == child
        assert back.with_strategy(0, cand) is not child
