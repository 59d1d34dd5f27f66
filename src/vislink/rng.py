"""Deterministic 64-bit mixing generator.

Every random choice in the package flows from one 64-bit seed through this
fixed recurrence (splitmix64): the state advances by a fixed odd constant and
each output is a bijective bit mix of the state. Independent purposes
(polygon parameters, tuple schedules, distinguished sets) draw from
sub-streams derived by folding a small integer tag into the seed, so
regenerating any artifact needs only the seed recorded in its document.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Sub-stream tags. Keep stable: documents are reproducible only if the
# tag-to-purpose mapping never changes. Tags 2 and 3 are unused; do not
# reuse them.
STREAM_POLYGON = 1
STREAM_TUPLES = 4
STREAM_KSET = 5


def mix64(v: int) -> int:
    """Finalizing bit mix; bijective on 64-bit words."""
    v &= MASK64
    v = ((v ^ (v >> 30)) * _MIX1) & MASK64
    v = ((v ^ (v >> 27)) * _MIX2) & MASK64
    return v ^ (v >> 31)


def derive(seed: int, *tags: int) -> int:
    """Sub-seed for an independent stream: fold each tag through the mix."""
    s = seed & MASK64
    for t in tags:
        s = mix64((s + (t + 1) * _GOLDEN) & MASK64)
    return s


class Stream:
    """Sequential splitmix64 stream."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next64(self) -> int:
        self.state = (self.state + _GOLDEN) & MASK64
        return mix64(self.state)

    def below(self, n: int) -> int:
        """Uniform-enough integer in [0, n). Determinism is the contract
        here, not statistical perfection; modulo bias is irrelevant at the
        n used (always far below 2**32)."""
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        return self.next64() % n
