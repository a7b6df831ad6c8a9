"""Kripke structures, CTL multiset teams, and the successor-team relation.

The successor-team test is the workhorse of TeamCTL evaluation: T2 is a
successor team of T1 iff every indexed member of T1 can be stepped to a
member of T2 along an edge, using each T2 entry exactly once.  That is a
perfect-matching question on a bipartite graph, decided here with the
augmenting-path algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import LassoForestViolation
from .trace import LassoTrace, TeamEncoding


@dataclass(frozen=True, eq=False)
class KripkeStructure:
    worlds: tuple[str, ...]
    edges: frozenset[tuple[str, str]]
    labels: dict[str, frozenset[str]]
    initial: str | None = None

    @staticmethod
    def of(
        worlds: Iterable[str],
        edges: Iterable[tuple[str, str]],
        labels: dict[str, Iterable[str]] | None = None,
        initial: str | None = None,
    ) -> "KripkeStructure":
        labels = labels or {}
        return KripkeStructure(
            worlds=tuple(worlds),
            edges=frozenset((a, b) for a, b in edges),
            labels={w: frozenset(ps) for w, ps in labels.items()},
            initial=initial,
        )

    def label(self, w: str) -> frozenset[str]:
        return self.labels.get(w, frozenset())

    @cached_property
    def succ(self) -> dict[str, tuple[str, ...]]:
        table: dict[str, list[str]] = {w: [] for w in self.worlds}
        for a, b in sorted(self.edges):
            if a in table:
                table[a].append(b)
        return {w: tuple(ss) for w, ss in table.items()}

    @cached_property
    def prop_universe(self) -> frozenset[str]:
        return frozenset(p for ps in self.labels.values() for p in ps)


def validate(k: KripkeStructure) -> list[str]:
    """Structural problems as a list of messages; empty means ok."""
    problems = []
    declared = set(k.worlds)
    if not declared:
        problems.append("structure has no worlds")
    has_successor = set()
    for a, b in sorted(k.edges):
        if a not in declared:
            problems.append(f"edge source {a!r} is not a declared world")
        if b not in declared:
            problems.append(f"edge target {b!r} is not a declared world")
        else:
            has_successor.add(a)
    for w in k.worlds:
        if w not in has_successor:
            problems.append(f"world {w!r} has no successor (not left-total)")
    for w in k.labels:
        if w not in declared:
            problems.append(f"label entry for undeclared world {w!r}")
    if k.initial is not None and k.initial not in declared:
        problems.append(f"initial world {k.initial!r} is not declared")
    return problems


# ---------------------------------------------------------------------------
# Multiset teams


@dataclass(frozen=True)
class MultiTeam:
    """Indexed multiset of worlds: each entry is an (index, world) pair and
    indices are pairwise distinct."""

    entries: tuple[tuple[int, str], ...]

    def __post_init__(self):
        indices = [i for i, _ in self.entries]
        if len(indices) != len(set(indices)):
            raise ValueError("team indices must be pairwise distinct")

    @staticmethod
    def of(worlds: Sequence[str]) -> "MultiTeam":
        return MultiTeam(tuple(enumerate(worlds)))

    @property
    def worlds(self) -> tuple[str, ...]:
        return tuple(w for _, w in self.entries)

    def support(self) -> frozenset[str]:
        return frozenset(self.worlds)

    def __len__(self):
        return len(self.entries)


def _check_members(k: KripkeStructure, team: MultiTeam):
    for _, w in team.entries:
        if w not in k.worlds:
            raise ValueError(f"team member {w!r} is not a world of the structure")


def check_successors(k: KripkeStructure):
    """Raise ValueError if a world has no successor or an edge leads to an
    undeclared world.  Team CTL reads every structure as left-total, as
    the paper does: on a dead end a team would have no successor team, so
    ``AX`` and ``AG`` would hold there vacuously and ``AX``, ``AU`` and
    ``AR`` would not be downward closed."""
    declared = set(k.worlds)
    for w, successors in k.succ.items():
        if not successors:
            raise ValueError(f"world {w!r} has no successor (not left-total)")
        if not declared.issuperset(successors):
            target = next(s for s in successors if s not in declared)
            raise ValueError(f"edge target {target!r} is not a declared world")


def is_successor_team(k: KripkeStructure, t1: MultiTeam, t2: MultiTeam) -> bool:
    """True iff t2 arises from t1 by one synchronous step under some
    per-member successor choice (multiset equality, indices ignored)."""
    _check_members(k, t1)
    _check_members(k, t2)
    left = t1.worlds
    right = t2.worlds
    if len(left) != len(right):
        return False
    adjacency = [
        [j for j, w2 in enumerate(right) if (w1, w2) in k.edges] for w1 in left
    ]
    match_of_right: dict[int, int] = {}

    def augment(i: int, seen: set[int]) -> bool:
        for j in adjacency[i]:
            if j in seen:
                continue
            seen.add(j)
            if j not in match_of_right or augment(match_of_right[j], seen):
                match_of_right[j] = i
                return True
        return False

    for i in range(len(left)):
        if not augment(i, set()):
            return False
    return True


# ---------------------------------------------------------------------------
# Trace enumeration for lasso-forest structures


def _reachable(k: KripkeStructure, start: str) -> set[str]:
    seen = {start}
    frontier = [start]
    while frontier:
        w = frontier.pop()
        for s in k.succ[w]:
            if s not in seen:
                seen.add(s)
                frontier.append(s)
    return seen


def _on_cycle(k: KripkeStructure, w: str) -> bool:
    seen = set(k.succ[w])
    frontier = list(seen)
    while frontier:
        v = frontier.pop()
        if v == w:
            return True
        for s in k.succ[v]:
            if s not in seen:
                seen.add(s)
                frontier.append(s)
    return w in seen


def enumerate_traces(k: KripkeStructure) -> TeamEncoding:
    """The exact trace set of the structure, as canonical lasso traces.

    Requires the lasso-forest condition: every reachable world lying on a
    cycle has out-degree exactly 1, so each path closes into a unique lasso.
    """
    if k.initial is None:
        raise ValueError("trace enumeration requires an initial world")
    reachable = _reachable(k, k.initial)
    for w in sorted(reachable):
        if _on_cycle(k, w) and len(k.succ[w]) > 1:
            raise LassoForestViolation(w)
    traces = []
    stack: list[list[str]] = [[k.initial]]
    while stack:
        path = stack.pop()
        for s in k.succ[path[-1]]:
            if s in path:
                start = path.index(s)
                labels = [k.label(w) for w in path]
                traces.append(
                    LassoTrace(tuple(labels[:start]), tuple(labels[start:]))
                )
            else:
                stack.append(path + [s])
    return TeamEncoding.of(traces)
