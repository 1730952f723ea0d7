"""numpy Generator scalar draws rebuilt in Python from PCG64's raw words.

A PMA activation makes three or four draws of one or two numbers each, and
every numpy call costs far more in call overhead than in arithmetic. Draws
reads PCG64's 64-bit outputs in blocks through `bit_generator.random_raw`
and derives from them exactly the values numpy's Generator would return
(O'Neill 2014 for PCG64; Lemire 2019 for bounded integers):

* `random()` is the top 53 bits of one word, times 2**-53;
* `integers(low, high)` is Lemire's multiply-and-reject on a 32-bit half,
  and draws nothing when the range holds one value;
* `permutation(n)` is a Fisher-Yates shuffle from the top index down, each
  swap index found by masked rejection on 32-bit halves.

32-bit halves come low half first, and the high half is kept for the next
32-bit draw, through PCG64's own `has_uint32`/`uinteger` buffer. When the
block ends the Generator is put where numpy would have left it: its start
state, advanced by the words consumed, with the buffer written back.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError

_BLOCK = 256          # raw words read per refill
_TWO_M53 = 2.0 ** -53
_MASK32 = 0xFFFFFFFF


class Draws:
    """Scalar `random`, `integers` and `permutation` draws from a PCG64
    Generator, value- and state-identical to calling the Generator itself.

    Use as a context manager; the Generator must not be drawn from directly
    inside the block, and after it is exactly where the same calls on it
    would have left it, also when the block raises. Construction only
    checks the bit generator, so a rejected Generator is left untouched.
    """

    __slots__ = ("_bitgen", "_start", "_words", "_fetched", "_has32", "_u32")

    def __init__(self, rng: np.random.Generator):
        bitgen = rng.bit_generator
        if type(bitgen) is not np.random.PCG64:
            raise ConfigurationError(
                f"solvers draw from a PCG64 Generator, not {type(bitgen).__name__}")
        self._bitgen = bitgen

    def __enter__(self) -> "Draws":
        self._start = self._bitgen.state
        self._words = []      # unread raw words, next one last
        self._fetched = 0
        self._has32 = self._start["has_uint32"]
        self._u32 = self._start["uinteger"]
        return self

    def __exit__(self, *exc) -> None:
        """Move the Generator to the state the same numpy calls leave."""
        bitgen = self._bitgen
        bitgen.state = self._start
        bitgen.advance(self._fetched - len(self._words))
        state = bitgen.state          # advance() clears the 32-bit buffer
        state["has_uint32"], state["uinteger"] = self._has32, self._u32
        bitgen.state = state

    def _refill(self) -> None:
        self._words.extend(self._bitgen.random_raw(_BLOCK)[::-1].tolist())
        self._fetched += _BLOCK

    def _next32(self) -> int:
        if self._has32:
            self._has32 = 0
            return self._u32
        words = self._words
        if not words:
            self._refill()
        word = words.pop()
        self._has32, self._u32 = 1, word >> 32
        return word & _MASK32

    def random(self) -> float:
        """One uniform in [0, 1)."""
        words = self._words
        if not words:
            self._refill()
        return (words.pop() >> 11) * _TWO_M53

    def integers(self, low: int, high: int) -> int:
        """Uniform integer in [low, high), for 1 <= high - low <= 2**32 - 1."""
        rng = high - low - 1
        if not 0 <= rng < _MASK32:
            raise ValueError("integers() supports ranges of 1 to 2**32 - 1 values")
        if rng == 0:
            return low
        excl = rng + 1
        m = self._next32() * excl
        if m & _MASK32 < excl:
            threshold = (_MASK32 - rng) % excl
            while m & _MASK32 < threshold:
                m = self._next32() * excl
        return low + (m >> 32)

    def permutation(self, n: int) -> list:
        """A random ordering of range(n)."""
        out = list(range(n))
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = self._next32() & mask
            while j > i:
                j = self._next32() & mask
            out[i], out[j] = out[j], out[i]
        return out
