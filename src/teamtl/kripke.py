"""Kripke structures, CTL multiset teams, and the successor-team relation.

A structure is checked once, when it is built: every world is declared
once and needs a successor, and every edge endpoint, label entry and the
initial world must be declared.  Every structure is thus left-total, as
in the paper; on a dead end a team would have no successor team, so
``AX`` and ``AG`` would hold there vacuously and ``AX``, ``AU`` and
``AR`` would not be downward closed.  The evaluators rely on it and check nothing again.
The structure is indexed once, where it is built, in the same pass: its
worlds are numbered, and each world's successors listed by number in
name order, so that the order follows neither the order of the edges
nor the string hash seed.  Every reader of world numbers, the TeamCTL
evaluator, splitfree model checking and the team-member checks, reads
these.

T2 is a successor team of T1 iff every indexed member of T1 can be
stepped to a member of T2 along an edge, using each T2 entry exactly
once.  `is_successor_team` decides that as a perfect-matching question on
a bipartite graph, with the augmenting-path algorithm.  The TeamCTL
evaluator does not call it, as it builds successor multisets directly;
the self-test compares the two.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from .errors import LassoForestViolation
from .trace import LassoTrace, TeamEncoding


@dataclass(frozen=True, eq=False)
class KripkeStructure:
    """Worlds, edges, labels and an optional initial world.  Building one
    raises `ValueError` naming every problem: a world declared more than
    once, a world without successor, or an edge endpoint, label entry or
    initial world not declared.

    The same pass numbers the worlds: ``index[w]`` is the position of
    world ``w`` in ``worlds``, and ``succ_ids[i]`` holds the positions of
    the successors of ``worlds[i]``, in the name order of ``succ``."""

    worlds: tuple[str, ...]
    edges: frozenset[tuple[str, str]]
    labels: dict[str, frozenset[str]]
    initial: str | None = None
    index: dict[str, int] = field(init=False, repr=False)
    succ_ids: tuple[tuple[int, ...], ...] = field(init=False, repr=False)

    def __post_init__(self):
        worlds = self.worlds
        index = dict(zip(worlds, range(len(worlds))))
        succ: list[list[int]] = [[] for _ in worlds]
        # A valid structure is read once; `_reject` reads an invalid one
        # again, to name every problem.
        try:
            for a, b in self.edges:
                succ[index[a]].append(index[b])
        except KeyError:
            self._reject(index)
        if (
            len(index) < len(worlds)
            or not all(succ)
            or not self.labels.keys() <= index.keys()
            or self.initial is not None and self.initial not in index
        ):
            self._reject(index)
        name = worlds.__getitem__
        for ids in succ:
            if len(ids) > 1:
                ids.sort(key=name)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "succ_ids", tuple(map(tuple, succ)))

    def _reject(self, declared: dict[str, int]):
        """Raise the `ValueError` that names every problem."""
        problems, has_successor = set(), set()
        problems.update(
            f"world {w!r} is declared more than once"
            for w, n in Counter(self.worlds).items() if n > 1
        )
        for a, b in self.edges:
            if a not in declared:
                problems.add(f"edge source {a!r} is not a declared world")
            if b in declared:
                has_successor.add(a)
            else:
                problems.add(f"edge target {b!r} is not a declared world")
        problems.update(
            f"world {w!r} has no successor (not left-total)"
            for w in declared.keys() - has_successor
        )
        problems.update(
            f"label entry for undeclared world {w!r}" for w in self.labels.keys() - declared.keys()
        )
        if self.initial is not None and self.initial not in declared:
            problems.add(f"initial world {self.initial!r} is not declared")
        raise ValueError("; ".join(sorted(problems))) from None

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
        name = self.worlds.__getitem__
        return {w: tuple(map(name, ids)) for w, ids in zip(self.worlds, self.succ_ids)}

    @cached_property
    def prop_universe(self) -> frozenset[str]:
        return frozenset(p for ps in self.labels.values() for p in ps)


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

    def __len__(self):
        return len(self.entries)


def world_ids(k: KripkeStructure, worlds: Iterable[str]) -> list[int]:
    """The positions of ``worlds`` in ``k.worlds``; `ValueError` names the
    first one that is no world of the structure."""
    index = k.index
    try:
        return [index[w] for w in worlds]
    except KeyError as missing:
        raise ValueError(
            f"team member {missing.args[0]!r} is not a world of the structure"
        ) from None


def is_successor_team(k: KripkeStructure, t1: MultiTeam, t2: MultiTeam) -> bool:
    """True iff t2 arises from t1 by one synchronous step under some
    per-member successor choice (multiset equality, indices ignored)."""
    world_ids(k, t1.worlds)
    world_ids(k, t2.worlds)
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


def _reachable(succ: tuple[tuple[int, ...], ...], starts: Iterable[int]) -> set[int]:
    """The worlds reachable from ``starts`` in zero steps or more, for
    ``succ`` the successor numbers of each world."""
    seen = set(starts)
    frontier = list(seen)
    while frontier:
        for v in succ[frontier.pop()]:
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return seen


def _on_cycle(k: KripkeStructure, w: int) -> bool:
    """Whether world number ``w`` reaches itself in one step or more."""
    return w in _reachable(k.succ_ids, k.succ_ids[w])


def enumerate_traces(k: KripkeStructure) -> TeamEncoding:
    """The exact trace set of the structure, as canonical lasso traces.

    Requires the lasso-forest condition: every reachable world lying on a
    cycle has out-degree exactly 1, so each path closes into a unique lasso.
    Only a world with more than one successor can break it, so only those
    are searched for a cycle, in name order; the first on one is named.
    """
    if k.initial is None:
        raise ValueError("trace enumeration requires an initial world")
    succ, name = k.succ_ids, k.worlds.__getitem__
    root = k.index[k.initial]
    branching = [w for w in _reachable(succ, (root,)) if len(succ[w]) > 1]
    for w in sorted(branching, key=name):
        if _on_cycle(k, w):
            raise LassoForestViolation(name(w))
    empty: frozenset[str] = frozenset()
    labels = [k.labels.get(w, empty) for w in k.worlds]
    label = labels.__getitem__
    traces = []
    # A depth-first walk of the paths from the root: ``path`` is the one
    # under way, ``at`` the position of each of its worlds, and
    # ``pending`` the successors of each still to follow.  A successor
    # already on the path closes a lasso there.
    path, at, pending = [root], {root: 0}, [iter(succ[root])]
    while pending:
        for v in pending[-1]:
            start = at.get(v)
            if start is None:
                at[v] = len(path)
                path.append(v)
                pending.append(iter(succ[v]))
                break
            traces.append(LassoTrace(
                tuple(map(label, path[:start])), tuple(map(label, path[start:]))
            ))
        else:
            pending.pop()
            del at[path.pop()]
    return TeamEncoding.of(traces)
