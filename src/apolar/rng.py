"""Deterministic, portable pseudo-random streams.

The generator is SplitMix64, chosen for its tiny, fully specified integer
state transition: all arithmetic is modulo 2**64, so the output sequence is
bit-exact on every platform and Python version.

Output contract (normative, relied on by the sampling reports):

* ``mix(z)`` is the SplitMix64 finalizer: ``z ^= z >> 30; z *= 0xBF58476D1CE4E5B9;
  z ^= z >> 27; z *= 0x94D049BB133111EB; z ^= z >> 31`` (mod 2**64).
* A stream with state ``s`` emits ``mix(s + (i+1) * GAMMA)`` as its i-th
  64-bit output, where ``GAMMA = 0x9E3779B97F4A7C15``.
* ``take(k)`` returns the words ``k`` calls of ``next_u64()`` return, in
  order, and leaves the state those calls leave.
* Substream ``t`` of seed ``S`` starts from state ``mix(S ^ mix(t + 1))``;
  trials indexed by counter therefore draw from disjoint-by-construction
  streams and can run in any order or in parallel without changing results.
* ``below(n)`` is ``next_u64() % n`` (the tiny modulo bias is irrelevant for
  the small ranges used here and keeps the contract one line).
* A word ``w`` gives the coin ``coin_of(w) = w & 1`` and the value
  ``nonzero_of(w, b)`` in [-b, -1] union [1, b]: ``v - b`` if ``v < b``, else
  ``v - b + 1``, for ``v = w % (2 * b)``.  ``coin()``, ``nonzero_int(b)`` and
  the callers of ``take`` all turn words into values through these two.
"""

from __future__ import annotations

import struct
from functools import lru_cache

_MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def mix(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def coin_of(word: int) -> bool:
    return bool(word & 1)


def nonzero_of(word: int, bound: int = 9) -> int:
    v = word % (2 * bound)
    return v - bound if v < bound else v - bound + 1


@lru_cache(maxsize=16)
def _lanes(size: int) -> tuple[int, int, int]:
    """Slot i of ``size`` 128-bit slots: 1, ``(i+1) * GAMMA mod 2**64``, the mask."""
    steps = b"".join(((i * GAMMA) & _MASK).to_bytes(16, "little") for i in range(1, size + 1))
    ones = int.from_bytes((b"\1" + bytes(15)) * size, "little")
    return ones, int.from_bytes(steps, "little"), ones * _MASK


class SplitMix64:
    def __init__(self, state: int):
        self._state = state & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + GAMMA) & _MASK
        return mix(self._state)

    def take(self, k: int) -> tuple[int, ...]:
        """The next ``k`` outputs, computed in the low halves of ``k`` 128-bit
        slots of one int: a lane times a 64-bit constant fits its slot, and
        masking after each shift and product keeps the lanes apart."""
        if k < 0:
            raise ValueError("count must be nonnegative")
        size = 1 << (k - 1).bit_length()  # a few cached sizes serve every k
        ones, steps, lanes = _lanes(size)
        lanes >>= (size - k) << 7  # the masks of the first k slots
        z = (self._state * ones + steps) & lanes
        z ^= z >> 30 & lanes
        z = z * 0xBF58476D1CE4E5B9 & lanes
        z ^= z >> 27 & lanes
        z = z * 0x94D049BB133111EB & lanes
        z ^= z >> 31 & lanes
        self._state = (self._state + k * GAMMA) & _MASK
        return struct.unpack(f"<{2 * k}Q", z.to_bytes(k << 4, "little"))[::2]

    def below(self, n: int) -> int:
        if n <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % n

    def coin(self) -> bool:
        return coin_of(self.next_u64())

    def nonzero_int(self, bound: int = 9) -> int:
        """Uniform draw from [-bound, -1] union [1, bound]."""
        return nonzero_of(self.below(2 * bound), bound)


def substream(seed: int, counter: int) -> SplitMix64:
    """Independent stream for the given trial counter; see module contract."""
    return SplitMix64(mix((seed & _MASK) ^ mix(counter + 1)))
