"""Ultimately periodic traces, their finite team encodings, and the
suffix/prefix arithmetic used to bound temporal-operator witnesses.

A :class:`LassoTrace` ``(prefix, loop)`` denotes the infinite trace
``prefix · loop^ω``.  Teams of traces are plain sets, deduplicated by the
canonical form of the denoted ω-word, so two encodings of the same trace
never count as distinct team members.  A trace already in canonical form
is its own canonical form, so a team built from canonical traces, such
as a team file written by `files.dumps_team`, builds no trace twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

PropSet = frozenset[str]


@dataclass(frozen=True)
class LassoTrace:
    prefix: tuple[PropSet, ...]
    loop: tuple[PropSet, ...]

    def __post_init__(self):
        if len(self.loop) < 1:
            raise ValueError("lasso trace requires a nonempty loop")

    @staticmethod
    def of(prefix: Iterable[Iterable[str]], loop: Iterable[Iterable[str]]) -> "LassoTrace":
        return LassoTrace(
            tuple(frozenset(pos) for pos in prefix),
            tuple(frozenset(pos) for pos in loop),
        )

    def at(self, i: int) -> PropSet:
        return trace_at(self, i)

    def reduce(self, i: int) -> int:
        """The position below |prefix| + |loop| with the suffix at ``i``."""
        s = len(self.prefix)
        return i if i < s else s + (i - s) % len(self.loop)


def trace_at(t: LassoTrace, i: int) -> PropSet:
    """Proposition set at position i of prefix · loop^ω."""
    if i < 0:
        raise ValueError("trace positions start at 0")
    if i < len(t.prefix):
        return t.prefix[i]
    return t.loop[(i - len(t.prefix)) % len(t.loop)]


def suffix_trace(t: LassoTrace, i: int) -> LassoTrace:
    """The trace from position i on: drop prefix heads, then rotate the loop."""
    if i < 0:
        raise ValueError("trace positions start at 0")
    if i <= len(t.prefix):
        remaining = 0
        prefix = t.prefix[i:]
    else:
        remaining = (i - len(t.prefix)) % len(t.loop)
        prefix = ()
    loop = t.loop[remaining:] + t.loop[:remaining]
    return LassoTrace(prefix, loop)


def _primitive_loop(loop: tuple[PropSet, ...]) -> tuple[PropSet, ...]:
    n = len(loop)
    for d in range(1, n):
        if n % d == 0 and loop[:d] * (n // d) == loop:
            return loop[:d]
    return loop


def canonicalize(t: LassoTrace) -> LassoTrace:
    """Unique representative of the denoted ω-word: ``t`` itself when it
    is already canonical.

    Reduces the loop to its primitive period, then folds the prefix tail
    into the loop as long as the last prefix position matches the position
    the loop would produce there.  The result has the shortest possible
    prefix and loop, which pins the loop rotation as well: two LassoTraces
    denote the same ω-word iff their canonical forms are equal.
    """
    loop = _primitive_loop(t.loop)
    prefix, n = t.prefix, len(loop)
    # Folding one position rotates the loop right by one, so the i-th
    # position folded (from the end) must equal loop[-1 - i % n].
    folded = 0
    while folded < len(prefix) and prefix[-1 - folded] == loop[-1 - folded % n]:
        folded += 1
    if folded:
        shift = folded % n
        prefix, loop = prefix[:-folded], loop[n - shift:] + loop[:n - shift]
    elif loop is t.loop:
        return t
    return LassoTrace(prefix, loop)


def trace_sort_key(t: LassoTrace):
    """A total order on canonical traces that follows no string hash seed."""
    return (len(t.prefix), len(t.loop), *map(sorted, t.prefix + t.loop))


@dataclass(frozen=True)
class TeamEncoding:
    """A finite team of traces; members are stored in canonical form,
    however the team is built, and iterated in `trace_sort_key` order."""

    traces: frozenset[LassoTrace]
    order: tuple[LassoTrace, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "traces", frozenset(map(canonicalize, self.traces)))
        object.__setattr__(self, "order", tuple(sorted(self.traces, key=trace_sort_key)))

    @staticmethod
    def of(traces: Iterable[LassoTrace]) -> "TeamEncoding":
        return TeamEncoding(traces)

    def __iter__(self):
        return iter(self.order)

    def __len__(self):
        return len(self.traces)


def prfx(team: TeamEncoding) -> int:
    """Maximal prefix length over the team (0 for the empty team)."""
    return max((len(t.prefix) for t in team.traces), default=0)


def lcm_loop(team: TeamEncoding) -> int:
    """Least common multiple of the loop lengths (1 for the empty team).

    Guarantees team[i,∞) = team[i+lcm,∞) for every i ≥ prfx(team).
    """
    if not team.traces:
        return 1
    return math.lcm(*(len(t.loop) for t in team.traces))
