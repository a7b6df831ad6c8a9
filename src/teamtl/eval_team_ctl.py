"""TeamCTL model checking over multiset teams of worlds.

All team members advance synchronously: one step replaces the team by a
successor team (one edge choice per indexed member).  Temporal operators
therefore become searches over the graph whose nodes are the reachable
multisets — which, up to permutation of indices, is finite — instead of
quantification over infinite per-member path assignments.  The number of
distinct multisets is at most |W|^|T|, so revisiting a multiset means a
synchronous evolution can be pumped; the searches below use exactly that
cutoff.

``mc_ctl_bruteforce`` is the independent oracle: a bounded-unrolling
evaluator that enumerates per-member successor functions explicitly.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from .errors import ResourceCapError, UnsupportedNodeError
from .eval_classical import prop_sat
from .formula import (
    AR,
    AU,
    AX,
    And,
    BoolOr,
    CNeg,
    ER,
    EU,
    EX,
    Formula,
    GenAtomApp,
    NegProp,
    Prop,
    Split,
    classify,
    is_temporal_free,
)
from .kripke import KripkeStructure, MultiTeam

TeamKey = tuple[str, ...]


@dataclass(frozen=True)
class CtlLimits:
    max_team: int = 6
    max_worlds: int = 12
    until_from_one: bool = False


class _CtlEval:
    def __init__(self, k: KripkeStructure, limits: CtlLimits):
        self.k = k
        self.limits = limits
        self.memo: dict[tuple[TeamKey, int], bool] = {}
        self.succ_cache: dict[TeamKey, tuple[TeamKey, ...]] = {}

    def successors(self, key: TeamKey) -> tuple[TeamKey, ...]:
        cached = self.succ_cache.get(key)
        if cached is None:
            found = {
                tuple(sorted(choice))
                for choice in itertools.product(*(self.k.succ[w] for w in key))
            }
            cached = tuple(sorted(found))
            self.succ_cache[key] = cached
        return cached

    def check(self, key: TeamKey, phi: Formula) -> bool:
        memo_key = (key, id(phi))
        cached = self.memo.get(memo_key)
        if cached is not None:
            return cached
        verdict = self._check(key, phi)
        self.memo[memo_key] = verdict
        return verdict

    def _check(self, key: TeamKey, phi: Formula) -> bool:
        k = self.k
        if isinstance(phi, Prop):
            return all(phi.name in k.label(w) for w in key)
        if isinstance(phi, NegProp):
            return all(phi.name not in k.label(w) for w in key)
        if isinstance(phi, And):
            return self.check(key, phi.left) and self.check(key, phi.right)
        if isinstance(phi, BoolOr):
            return self.check(key, phi.left) or self.check(key, phi.right)
        if isinstance(phi, CNeg):
            return not self.check(key, phi.child)
        if isinstance(phi, Split):
            return self._split(key, phi)
        if isinstance(phi, EX):
            return any(self.check(s, phi.child) for s in self.successors(key))
        if isinstance(phi, AX):
            return all(self.check(s, phi.child) for s in self.successors(key))
        if isinstance(phi, (EU, AU, ER, AR)):
            search = {
                EU: self._e_until, AU: self._a_until,
                ER: self._e_release, AR: self._a_release,
            }[type(phi)]
            if self.limits.until_from_one:
                # The i >= 1 reading never inspects the current team: a path
                # satisfies the operator from index 1 iff its tail from the
                # chosen successor team satisfies it from index 0.
                quantifier = any if isinstance(phi, (EU, ER)) else all
                return quantifier(
                    search(s, phi.left, phi.right) for s in self.successors(key)
                )
            return search(key, phi.left, phi.right)
        if isinstance(phi, GenAtomApp):
            return self._gen_atom(key, phi)
        raise UnsupportedNodeError(
            f"team CTL evaluation does not support {type(phi).__name__}"
        )

    def _gen_atom(self, key: TeamKey, phi: GenAtomApp) -> bool:
        for p in phi.params:
            if not is_temporal_free(p):
                raise UnsupportedNodeError(
                    "generalised-atom parameters must be temporal-free in CTL"
                )
        rows = [tuple(prop_sat(self.k.label(w), p) for p in phi.params) for w in key]
        return phi.atom.evaluator(rows)

    def _split(self, key: TeamKey, phi: Split) -> bool:
        counts = Counter(key)
        worlds = sorted(counts)
        if classify(phi).downward_closed_fragment:
            # Disjoint index splits; verdicts only depend on multisets, so
            # enumerate per-world count assignments instead of index sets.
            options = [range(counts[w] + 1) for w in worlds]
            for taken in itertools.product(*options):
                left_key = tuple(
                    w for w, n in zip(worlds, taken) for _ in range(n)
                )
                right_key = tuple(
                    w
                    for w, n in zip(worlds, taken)
                    for _ in range(counts[w] - n)
                )
                if self.check(left_key, phi.left) and self.check(right_key, phi.right):
                    return True
            return False
        # Covers: each index may serve both sides, so a world with count c
        # contributes l copies left and r copies right with l + r >= c.
        options = [
            [
                (left_n, right_n)
                for left_n in range(counts[w] + 1)
                for right_n in range(counts[w] + 1)
                if left_n + right_n >= counts[w]
            ]
            for w in worlds
        ]
        for assignment in itertools.product(*options):
            left_key = tuple(
                w for w, (l, _) in zip(worlds, assignment) for _ in range(l)
            )
            right_key = tuple(
                w for w, (_, r) in zip(worlds, assignment) for _ in range(r)
            )
            if self.check(left_key, phi.left) and self.check(right_key, phi.right):
                return True
        return False

    # -- temporal searches over the successor-multiset graph --------------

    def _e_until(self, start: TeamKey, inv: Formula, tgt: Formula) -> bool:
        stack = [start]
        visited = {start}
        while stack:
            key = stack.pop()
            if self.check(key, tgt):
                return True
            if not self.check(key, inv):
                continue
            for s in self.successors(key):
                if s not in visited:
                    visited.add(s)
                    stack.append(s)
        return False

    def _a_until(self, start: TeamKey, inv: Formula, tgt: Formula) -> bool:
        if self.check(start, tgt):
            return True
        if not self.check(start, inv):
            return False
        region = {start}
        frontier = [start]
        while frontier:
            key = frontier.pop()
            for s in self.successors(key):
                if s in region:
                    continue
                if self.check(s, tgt):
                    continue
                if not self.check(s, inv):
                    return False
                region.add(s)
                frontier.append(s)
        return not self._region_has_cycle(region)

    def _e_release(self, start: TeamKey, inv: Formula, tgt: Formula) -> bool:
        if not self.check(start, tgt):
            return False
        region = set()
        frontier = [start]
        seen = {start}
        while frontier:
            key = frontier.pop()
            # tgt already verified when key was enqueued
            if self.check(key, inv):
                return True
            region.add(key)
            for s in self.successors(key):
                if s not in seen and self.check(s, tgt):
                    seen.add(s)
                    frontier.append(s)
        return self._region_has_cycle(region)

    def _a_release(self, start: TeamKey, inv: Formula, tgt: Formula) -> bool:
        stack = [start]
        visited = {start}
        while stack:
            key = stack.pop()
            if not self.check(key, tgt):
                return False
            if self.check(key, inv):
                continue
            for s in self.successors(key):
                if s not in visited:
                    visited.add(s)
                    stack.append(s)
        return True

    def _region_has_cycle(self, region: set[TeamKey]) -> bool:
        # Iterative three-color DFS on the subgraph induced by the region.
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {key: WHITE for key in region}
        for root in region:
            if color[root] != WHITE:
                continue
            stack = [(root, iter(self.successors(root)))]
            color[root] = GRAY
            while stack:
                node, children = stack[-1]
                advanced = False
                for child in children:
                    if child not in region:
                        continue
                    if color[child] == GRAY:
                        return True
                    if color[child] == WHITE:
                        color[child] = GRAY
                        stack.append((child, iter(self.successors(child))))
                        advanced = True
                        break
                if not advanced:
                    color[node] = BLACK
                    stack.pop()
        return False


def mc_ctl(
    k: KripkeStructure,
    team: MultiTeam,
    phi: Formula,
    *,
    limits: CtlLimits | None = None,
) -> bool:
    """Team satisfaction of a CTL formula on a multiset team."""
    limits = limits or CtlLimits()
    if len(team) > limits.max_team:
        raise ResourceCapError(
            f"team size {len(team)} exceeds the cap {limits.max_team}"
        )
    if len(k.worlds) > limits.max_worlds:
        raise ResourceCapError(
            f"structure size {len(k.worlds)} exceeds the cap {limits.max_worlds}"
        )
    for w in team.support():
        if w not in k.worlds:
            raise ValueError(f"team member {w!r} is not a world of the structure")
    return _CtlEval(k, limits).check(team.key(), phi)


# ---------------------------------------------------------------------------
# Independent oracle


def mc_ctl_bruteforce(
    k: KripkeStructure,
    team: MultiTeam,
    phi: Formula,
    *,
    depth: int | None = None,
) -> bool:
    """Bounded-unrolling evaluator enumerating per-member successor
    functions explicitly; the default depth |W|^|T| exceeds the number of
    distinct multisets, which makes the cutoffs exact (a surviving run of
    that length must revisit a multiset and can be pumped)."""
    bound = len(k.worlds) ** max(len(team), 1) if depth is None else depth
    memo: dict[tuple[TeamKey, int, int], bool] = {}

    def step_choices(worlds: TeamKey):
        return itertools.product(*(k.succ[w] for w in worlds))

    def sat(worlds: TeamKey, phi: Formula, fuel: int) -> bool:
        key = (tuple(sorted(worlds)), id(phi), fuel)
        cached = memo.get(key)
        if cached is not None:
            return cached
        verdict = _sat(worlds, phi, fuel)
        memo[key] = verdict
        return verdict

    def _sat(worlds: TeamKey, phi: Formula, fuel: int) -> bool:
        if isinstance(phi, Prop):
            return all(phi.name in k.label(w) for w in worlds)
        if isinstance(phi, NegProp):
            return all(phi.name not in k.label(w) for w in worlds)
        if isinstance(phi, And):
            return sat(worlds, phi.left, fuel) and sat(worlds, phi.right, fuel)
        if isinstance(phi, BoolOr):
            return sat(worlds, phi.left, fuel) or sat(worlds, phi.right, fuel)
        if isinstance(phi, CNeg):
            return not sat(worlds, phi.child, fuel)
        if isinstance(phi, Split):
            n = len(worlds)
            if classify(phi).downward_closed_fragment:
                assignments = itertools.product((0, 1), repeat=n)
            else:
                assignments = itertools.product((0, 1, 2), repeat=n)
            for sides in assignments:
                part1 = tuple(w for w, s in zip(worlds, sides) if s in (0, 2))
                part2 = tuple(w for w, s in zip(worlds, sides) if s in (1, 2))
                if sat(part1, phi.left, fuel) and sat(part2, phi.right, fuel):
                    return True
            return False
        if isinstance(phi, EX):
            return any(sat(c, phi.child, fuel) for c in step_choices(worlds))
        if isinstance(phi, AX):
            return all(sat(c, phi.child, fuel) for c in step_choices(worlds))
        if isinstance(phi, EU):
            if sat(worlds, phi.right, bound):
                return True
            if fuel == 0 or not sat(worlds, phi.left, bound):
                return False
            return any(sat(c, phi, fuel - 1) for c in step_choices(worlds))
        if isinstance(phi, AU):
            if sat(worlds, phi.right, bound):
                return True
            if fuel == 0 or not sat(worlds, phi.left, bound):
                return False
            return all(sat(c, phi, fuel - 1) for c in step_choices(worlds))
        if isinstance(phi, ER):
            if not sat(worlds, phi.right, bound):
                return False
            if sat(worlds, phi.left, bound) or fuel == 0:
                return True
            return any(sat(c, phi, fuel - 1) for c in step_choices(worlds))
        if isinstance(phi, AR):
            if not sat(worlds, phi.right, bound):
                return False
            if sat(worlds, phi.left, bound) or fuel == 0:
                return True
            return all(sat(c, phi, fuel - 1) for c in step_choices(worlds))
        if isinstance(phi, GenAtomApp):
            rows = [
                tuple(prop_sat(k.label(w), p) for p in phi.params) for w in worlds
            ]
            return phi.atom.evaluator(rows)
        raise UnsupportedNodeError(
            f"oracle does not support {type(phi).__name__}"
        )

    return sat(team.worlds, phi, bound)
