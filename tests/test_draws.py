"""The PCG64 draw mirror against numpy's own Generator calls."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import relaymatch as rm
from relaymatch import _draws
from relaymatch._draws import Draws
from relaymatch.errors import ConfigurationError

_CALL = st.one_of(
    st.tuples(st.just("random"), st.none()),
    st.tuples(st.just("integers"), st.tuples(st.integers(-5, 5), st.integers(1, 12))),
    st.tuples(st.just("permutation"), st.integers(0, 12)),
)


def _call(target, name, arg):
    if name == "random":
        return target.random()
    if name == "integers":
        low, span = arg
        return int(target.integers(low, low + span))
    return [int(i) for i in target.permutation(arg)]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), buffered=st.booleans(),
       block=st.sampled_from([1, 3, 256]), calls=st.lists(_CALL, max_size=40))
def test_same_values_and_end_state_as_numpy(seed, buffered, block, calls):
    want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    if buffered:
        # a 32-bit draw leaves the high half of its word in PCG64's buffer
        want_rng.integers(0, 3)
        got_rng.integers(0, 3)
    assert want_rng.bit_generator.state["has_uint32"] == int(buffered)
    want = [_call(want_rng, name, arg) for name, arg in calls]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_draws, "_BLOCK", block)     # refills inside the sequence
        with Draws(got_rng) as draws:
            got = [_call(draws, name, arg) for name, arg in calls]
    assert got == want
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("bitgen", [np.random.MT19937, np.random.Philox,
                                    np.random.SFC64, np.random.PCG64DXSM])
def test_other_bit_generators_rejected(bitgen):
    rng = np.random.Generator(bitgen(3))
    state = rng.bit_generator.state
    with pytest.raises(ConfigurationError, match="PCG64"):
        Draws(rng)
    np.testing.assert_equal(rng.bit_generator.state, state)


@pytest.mark.parametrize("kind", ["pma", "many_to_one"])
def test_walk_solvers_reject_other_bit_generators(kind, small_instance):
    topo, profiles, caps = small_instance
    rng = np.random.Generator(np.random.MT19937(3))
    state = rng.bit_generator.state
    with pytest.raises(ConfigurationError, match="PCG64"):
        rm.solve(topo, profiles, caps, rm.SolverConfig(kind=kind), rng)
    np.testing.assert_equal(rng.bit_generator.state, state)
