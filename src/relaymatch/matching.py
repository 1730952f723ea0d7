"""Matching state, satisfaction utilities, feasibility and stability checks.

Sources and relay radios are referred to by their integer ids. Capacity
tables are (N, L) arrays with caps[n, l] = AF capacity of source n through
radio l. Every source connected to a radio gets an equal time share, so a
radio carrying A sources delivers caps[n, l] / A to each of them.

One kernel, _MatchingState, holds the rate, satisfaction and relay-utility
arithmetic; the solvers run on it, and global_satisfaction, relay_utility
and is_stable are thin wrappers over it. A matching keeps the state the
wrappers last built for it (see _state), so repeated queries on one
matching build it once.
"""

from __future__ import annotations

import itertools
import math
import operator
from bisect import insort
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, EnumerationLimitError

#: absolute tolerance for equality of satisfaction-scale quantities
SATISFACTION_TOL = 1e-10

#: most candidate strategies is_stable scores before refusing the check
STABILITY_CAP = 200_000


@dataclass(frozen=True)
class SatisfactionProfile:
    """Sigmoid rate-satisfaction: 1 / (1 + exp(-(slope*(u - required) + offset))).

    The offset shifts the curve so satisfaction is already ~1 when the
    requirement is exactly met (offset > 7 puts the midpoint offset/slope
    bit/s below the requirement).
    """

    required_rate_bps: float
    slope_per_bps: float = 1e-6
    offset: float = 7.5

    def __post_init__(self):
        for name in ("required_rate_bps", "slope_per_bps", "offset"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(
                    f"satisfaction {name} must be finite, not {getattr(self, name)!r}")
        if self.required_rate_bps <= 0:
            raise ConfigurationError("required rate must be positive")
        if self.slope_per_bps <= 0:
            raise ConfigurationError("satisfaction slope must be positive")
        if self.offset <= 7:
            raise ConfigurationError("satisfaction offset must exceed 7")

    def evaluate(self, rate_bps: float) -> float:
        x = self.slope_per_bps * (rate_bps - self.required_rate_bps) + self.offset
        # overflow-safe logistic, inline: this runs for every utility term
        if x >= 0:
            return 1.0 / (1.0 + math.exp(-x))
        e = math.exp(x)
        return e / (1.0 + e)


def default_profiles(topology) -> tuple:
    return tuple(SatisfactionProfile(s.required_rate_bps) for s in topology.sources)


def _radio_id(l) -> int:
    # a bool is refused as Matching.from_dict refuses it, though it is an int
    if type(l) is bool:
        raise TypeError
    return operator.index(l)


def _canonical(radios: Iterable[int], num_radios: int) -> tuple:
    """A strategy as a sorted tuple of distinct radio ids in [0, num_radios).
    Radio ids are integers, Python's or numpy's, but not bools; anything
    else is refused rather than truncated."""
    try:
        s = tuple(sorted(set(map(_radio_id, radios))))
    except TypeError:
        raise ConfigurationError(
            f"a strategy is a collection of integer radio ids, not {radios!r}") from None
    if s and (s[0] < 0 or s[-1] >= num_radios):
        bad = s[0] if s[0] < 0 else s[-1]
        raise ConfigurationError(
            f"radio id {bad} out of range for {num_radios} radios")
    return s


class Matching:
    """Immutable bipartite assignment between sources and relay radios.

    Stored source-side as sorted radio tuples; per-radio loads are derived,
    so mutuality holds by construction. `_kernel` holds the kernel state the
    wrappers last built for this matching; it is never copied or pickled.
    """

    __slots__ = ("_strategies", "_num_radios", "_kernel")

    def __init__(self, strategies: Sequence[Iterable[int]], num_radios: int):
        self._num_radios = int(num_radios)
        self._strategies = tuple(_canonical(s, self._num_radios) for s in strategies)
        self._kernel = None

    @property
    def num_sources(self) -> int:
        return len(self._strategies)

    @property
    def num_radios(self) -> int:
        return self._num_radios

    @property
    def strategies(self) -> tuple:
        return self._strategies

    def radios_of(self, source: int) -> tuple:
        return self._strategies[source]

    def loads(self) -> np.ndarray:
        loads = np.zeros(self._num_radios, dtype=np.int64)
        for s in self._strategies:
            for l in s:
                loads[l] += 1
        return loads

    def with_strategy(self, source: int, radios: Iterable[int]) -> "Matching":
        if not 0 <= source < len(self._strategies):
            raise ConfigurationError(f"unknown source id {source}")
        new = list(self._strategies)
        new[source] = _canonical(radios, self._num_radios)
        m = Matching.__new__(Matching)
        m._strategies = tuple(new)
        m._num_radios = self._num_radios
        m._kernel = None
        return m

    def __reduce__(self):
        return Matching, (self._strategies, self._num_radios)

    def __eq__(self, other):
        return (isinstance(other, Matching)
                and self._strategies == other._strategies
                and self._num_radios == other._num_radios)

    def __hash__(self):
        return hash((self._strategies, self._num_radios))

    def __repr__(self):
        return f"Matching({list(self._strategies)!r}, num_radios={self._num_radios})"

    def to_dict(self) -> dict:
        return {str(n): list(s) for n, s in enumerate(self._strategies)}

    @classmethod
    def from_dict(cls, doc: dict, num_radios: int) -> "Matching":
        """Inverse of to_dict; any other document, a source id such as "00"
        included, raises ConfigurationError."""
        if not (isinstance(doc, dict) and all(
                k.isdecimal() and k == str(int(k)) and isinstance(v, list)
                and all(type(l) is int for l in v) for k, v in doc.items())):
            raise ConfigurationError(
                f"a matching maps source ids to lists of radio ids, not {doc!r}")
        held = {int(k): v for k, v in doc.items()}
        return cls([held.get(n, []) for n in range(max(held, default=-1) + 1)],
                   num_radios)


def sv_rate(m: Matching, source: int, caps: np.ndarray) -> float:
    """Achieved rate of one source: sum of its equal time shares (bit/s)."""
    if not 0 <= source < m.num_sources:
        raise ConfigurationError(f"unknown source id {source}")
    loads = m.loads()
    row = caps[source]
    return float(sum(row[l] / loads[l] for l in m.radios_of(source)))


def _rate(row, radios, loads) -> float:
    """Sum of the equal time shares row[l] / loads[l], added in radio order."""
    rate = 0.0
    for l in radios:
        rate += row[l] / loads[l]
    return rate


class _MatchingState:
    """One matching under unilateral moves: strategies, radio loads,
    per-radio occupants (sorted by source id), and per-source rate and
    satisfaction, with global satisfaction `lam`.

    A move updates only the sources on the radios it touches, then re-adds
    lam over all sources; it also drops every source's mover baseline.
    """

    __slots__ = ("caps", "profiles", "strategies", "loads", "occupants",
                 "rates", "sat", "lam", "_baselines")

    def __init__(self, strategies, caps_rows, profiles, num_radios):
        self.caps = caps_rows
        self.profiles = profiles
        self.strategies = [tuple(s) for s in strategies]
        self.loads = [0] * num_radios
        self.occupants = [[] for _ in range(num_radios)]
        for n, strat in enumerate(self.strategies):
            for l in strat:
                self.loads[l] += 1
                self.occupants[l].append(n)
        self.rates = [0.0] * len(self.strategies)
        self.sat = [0.0] * len(self.strategies)
        for n in range(len(self.strategies)):
            self._refresh(n)
        self._sum()
        self._baselines = [None] * len(self.strategies)

    def _refresh(self, n):
        rate = _rate(self.caps[n], self.strategies[n], self.loads)
        self.rates[n] = rate
        self.sat[n] = self.profiles[n].evaluate(rate)

    def _sum(self):
        # Added in source order by an explicit loop so lam is bit-identical
        # to a from-scratch sum; built-in sum() is compensated on Python 3.12+.
        lam = 0.0
        for s in self.sat:
            lam += s
        self.lam = lam

    def _remove(self, n):
        """Builds and keeps mover n's baseline (loads0, absent, current):
        radio loads with n removed, (rate, satisfaction) as if n held no
        radio of every source sharing a radio with n, and the utility of n's
        current strategy. It is reused until the next move drops it.

        That utility is utility()'s arithmetic for candidate == current,
        in the same order: the own term is sat[n], since loads0[l] + 1 is
        loads[l], and the neighbour drops are summed in the same pass that
        finds the neighbours."""
        cur = self.strategies[n]
        loads0 = self.loads.copy()
        for l in cur:
            loads0[l] -= 1
        caps, profiles = self.caps, self.profiles
        absent, drops = {}, {}
        for l in cur:
            a = loads0[l]
            if not a:
                continue
            shrink = 1.0 / a - 1.0 / (a + 1)
            for k in self.occupants[l]:
                if k != n:
                    if k not in absent:
                        rate = _rate(caps[k], self.strategies[k], loads0)
                        absent[k] = (rate, profiles[k].evaluate(rate))
                    drops[k] = drops.get(k, 0.0) + caps[k][l] * shrink
        value = self.sat[n]
        for k, drop in drops.items():
            base_rate, base_f = absent[k]
            value += profiles[k].evaluate(base_rate - drop) - base_f
        base = self._baselines[n] = (loads0, absent, value)
        return base

    def share(self, n) -> list:
        """Per radio, the time share caps[n][l] / (loads0[l] + 1) that n gets
        there, or keeps on a radio it holds."""
        loads0 = (self._baselines[n] or self._remove(n))[0]
        return [c / (a + 1) for c, a in zip(self.caps[n], loads0)]

    def utility(self, n, candidate) -> float:
        """Relay acceptance utility of `candidate` for source n: its own
        satisfaction plus, for every source sharing a radio of the
        candidate, the satisfaction change versus n holding no radio.
        Differences between two candidates equal the change of lam."""
        loads0, absent, current = self._baselines[n] or self._remove(n)
        if candidate == self.strategies[n]:
            return current
        caps, occupants = self.caps, self.occupants
        row = caps[n]
        rate = 0.0
        for l in candidate:
            rate += row[l] / (loads0[l] + 1)
        value = self.profiles[n].evaluate(rate)
        rates, sat, profiles = self.rates, self.sat, self.profiles
        if len(candidate) == 1:
            # each neighbour's drop is its one term, and 0.0 + drop == drop
            # for drop >= 0, so the dict's sum is skipped
            l = candidate[0]
            a = loads0[l]
            if a:
                shrink = 1.0 / a - 1.0 / (a + 1)
                for k in occupants[l]:
                    if k != n:
                        base_rate, base_f = absent.get(k) or (rates[k], sat[k])
                        value += (profiles[k].evaluate(base_rate - caps[k][l] * shrink)
                                  - base_f)
            return value
        drops = {}
        for l in candidate:
            a = loads0[l]
            if a:
                shrink = 1.0 / a - 1.0 / (a + 1)
                for k in occupants[l]:
                    if k != n:
                        drops[k] = drops.get(k, 0.0) + caps[k][l] * shrink
        for k, drop in drops.items():
            base_rate, base_f = absent.get(k) or (rates[k], sat[k])
            value += profiles[k].evaluate(base_rate - drop) - base_f
        return value

    def scores(self, n, candidates, floor=-math.inf) -> list:
        """[self.utility(n, c) for c in candidates], bit for bit, in one pass,
        except that a candidate other than n's own set whose own term
        evaluate(rate) is <= floor scores -inf, its neighbour terms skipped.

        A utility adds to its own term at most N neighbour terms
        f_k(base - drop) - f_k(base), each <= 0 exactly and, as computed, at
        most one ulp of 1 (2.2e-16) above zero, so for N below a few
        thousand it exceeds its own term by less than 1e-12. A caller that
        takes only scores above u + SATISFACTION_TOL therefore loses no
        candidate with floor = u + SATISFACTION_TOL - 1e-12.

        Each radio's share and, for every neighbour k on every radio l, the
        term evaluate(base_rate - caps[k][l] * shrink_l) - base_f are
        computed once. A candidate adds the cached terms in utility()'s
        order; only a neighbour on two or more of its radios has its drops
        summed, in radio order, and its term evaluated again."""
        loads0, absent, current = self._baselines[n] or self._remove(n)
        caps, profiles, rates, sat = self.caps, self.profiles, self.rates, self.sat
        share = [c / (a + 1) for c, a in zip(caps[n], loads0)]
        # per radio: neighbour -> drop, the terms in occupant order, and the
        # neighbours as a bit mask
        bases, drops, terms, masks = {}, [], [], []
        for l, a in enumerate(loads0):
            d, t, mask = {}, [], 0
            if a:
                shrink = 1.0 / a - 1.0 / (a + 1)
                for k in self.occupants[l]:
                    if k != n:
                        if k not in bases:
                            bases[k] = absent.get(k) or (rates[k], sat[k])
                        base_rate, base_f = bases[k]
                        drop = d[k] = caps[k][l] * shrink
                        t.append(profiles[k].evaluate(base_rate - drop) - base_f)
                        mask |= 1 << k
            drops.append(d)
            terms.append(t)
            masks.append(mask)
        evaluate, held = profiles[n].evaluate, self.strategies[n]
        out = []
        for cand in candidates:
            if cand == held:
                out.append(current)
                continue
            rate = 0.0
            seen = multi = 0
            for l in cand:
                rate += share[l]
                multi |= seen & masks[l]
                seen |= masks[l]
            value = evaluate(rate)
            if value <= floor:
                out.append(-math.inf)
                continue
            if not multi:
                for l in cand:
                    for t in terms[l]:
                        value += t
            else:
                todo = multi
                for l in cand:
                    for k, t in zip(drops[l], terms[l]):
                        if not multi >> k & 1:
                            value += t
                        elif todo >> k & 1:
                            todo ^= 1 << k
                            drop = 0.0
                            for j in cand:
                                if k in drops[j]:
                                    drop += drops[j][k]
                            base_rate, base_f = bases[k]
                            value += profiles[k].evaluate(base_rate - drop) - base_f
            out.append(value)
        return out

    def move(self, n, new_set) -> None:
        """Give source n the strategy new_set and update lam."""
        old = self.strategies[n]
        loads, occupants = self.loads, self.occupants
        for l in old:
            loads[l] -= 1
            occupants[l].remove(n)
        for l in new_set:
            loads[l] += 1
            insort(occupants[l], n)
        self.strategies[n] = tuple(new_set)
        touched = {n}
        for l in set(old).symmetric_difference(new_set):
            touched.update(occupants[l])
        for k in touched:
            self._refresh(k)
        self._sum()
        self._baselines = [None] * len(self.strategies)


def _state(m: Matching, profiles, caps: np.ndarray) -> _MatchingState:
    """The kernel state of m under (profiles, caps), kept on m.

    The kept state is reused while caps is the same array with unchanged
    bytes and profiles holds the same objects, in the same number: either
    it is the very tuple the state was built from, or each of its entries
    is the kept one. Any other call builds a fresh state and replaces it.
    Callers only read the state, never move it: a moved state would answer
    for another matching."""
    raw = caps.tobytes()
    kept = m._kernel
    if (kept is not None and kept[0] is caps and kept[1] == raw
            and (kept[2] is profiles
                 or len(kept[2]) == len(profiles)
                 and all(a is b for a, b in zip(kept[2], profiles)))):
        return kept[3]
    profiles = tuple(profiles)
    state = _MatchingState(m.strategies, caps.tolist(), profiles, m.num_radios)
    m._kernel = (caps, raw, profiles, state)
    return state


def global_satisfaction(m: Matching, profiles: Sequence[SatisfactionProfile],
                        caps: np.ndarray) -> float:
    """Aggregate satisfaction over all sources, in (0, N)."""
    return _state(m, profiles, caps).lam


def relay_utility(m: Matching, source: int, radios: Iterable[int],
                  profiles: Sequence[SatisfactionProfile], caps: np.ndarray) -> float:
    """Relay-side acceptance utility of a candidate strategy for one source.

    Own satisfaction plus the externality it imposes: for every source
    sharing a radio of the candidate, the satisfaction change versus the
    deviator dropping out entirely. Unilateral differences of this value
    equal the corresponding differences of global satisfaction.
    """
    if not 0 <= source < m.num_sources:
        raise ConfigurationError(f"unknown source id {source}")
    return _state(m, profiles, caps).utility(source, _canonical(radios, m.num_radios))


def is_feasible(m: Matching, topology) -> bool:
    """All matching invariants: sizes agree and quotas are respected. Radio
    ids are in range by construction of Matching."""
    if m.num_sources != topology.num_sources or m.num_radios != topology.num_radios:
        return False
    return all(len(s) <= q for s, q in zip(m.strategies, topology.quotas))


def enumerate_strategies(num_radios: int, quota: int) -> list:
    """All radio subsets a source may hold, () included, in canonical (size,
    lexicographic) order; this ordering fixes tie-breaking everywhere."""
    out = [()]
    for size in range(1, quota + 1):
        out.extend(itertools.combinations(range(num_radios), size))
    return out


def count_strategies(num_radios: int, quota: int) -> int:
    return 1 + sum(math.comb(num_radios, size) for size in range(1, quota + 1))


@dataclass(frozen=True)
class StabilityResult:
    stable: bool
    witness: Optional[tuple] = None   # (source, better strategy) when unstable


def is_stable(m: Matching, topology, profiles: Sequence[SatisfactionProfile],
              caps: np.ndarray) -> StabilityResult:
    """No unilateral strategy change can strictly raise global satisfaction.

    Enumerates each source's full strategy space (subsets up to its quota,
    empty set included); raises EnumerationLimitError beyond STABILITY_CAP
    candidates rather than silently truncating. By the potential identity a
    candidate raises global satisfaction by its relay-utility gain over the
    current strategy, so one state scores each source's whole space in one
    scores() pass, which skips a candidate whose own satisfaction cannot
    reach that gain; the witness is the first candidate, in enumeration
    order, whose gain exceeds SATISFACTION_TOL, best response's own stopping
    rule.
    """
    total = sum(count_strategies(topology.num_radios, q) for q in topology.quotas)
    if total > STABILITY_CAP:
        raise EnumerationLimitError(
            f"stability check needs {total} strategy evaluations, cap is {STABILITY_CAP}")
    state = _state(m, profiles, caps)
    for n, q in enumerate(topology.quotas):
        u_current = state.utility(n, m.radios_of(n))
        space = enumerate_strategies(topology.num_radios, q)
        floor = u_current + SATISFACTION_TOL - 1e-12
        for cand, u in zip(space, state.scores(n, space, floor=floor)):
            if u > u_current + SATISFACTION_TOL:
                return StabilityResult(stable=False, witness=(n, cand))
    return StabilityResult(stable=True)
