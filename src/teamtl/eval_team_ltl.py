"""Team path checking for LTL: synchronous team semantics over finite
teams of lasso traces, with the extension connectives (Boolean
disjunction, contradictory negation) and generalised atoms.

Each call compiles its team once.  Every suffix of a canonical lasso
trace is again canonical, and a trace with prefix length s and loop
length l has exactly s + l distinct suffixes.  These suffix states are
interned as integers across the whole team, with a successor table
(the state one position later) and one state mask per proposition.  A
team is then an ``int`` bitmask over states: a literal is one mask test,
and the suffix team is a bit remap under which members that have become
equal merge by themselves.  The formula is compiled by the shared core,
`formula.Compiled`; here a flat node's mask is over states.

A team has one successor team, its suffix team: the image of its
states under the successor table, which the shared core steps each time
a search reaches the team (`formula.Compiled.successors`).  So ``X``, ``U`` and
``R`` are TeamCTL's rules on a graph where every team has one
successor: the ``temporal`` table declares them under E, which agrees
with A there, and the shared core decides them.  Every state has one
successor, so the members of a team step independently, and ``X`` over
a flat node is flat: it fails on the pre-image of the child's mask, one
shift per distinct successor offset in the state order.  Until and
Release over flat operands are unions of flat masks: φ U ψ holds iff
for one n every member reaches ψ through n φ-states, that is iff the
team misses ``full ^ Rₙ``, where R₀ holds the ψ-states and Rₙ₊₁ the
φ-states whose successor is in Rₙ; φ R ψ adds the ``G ψ`` mask to the
same sequence from φ ∧ ψ through ψ.  The masks are found only as far as
a check reads them, and a node whose sequence is still open after
|S| + 1 sets, for S the interned states, is searched for the rest of
the call.

Temporal witnesses: the suffix teams T, T[1,∞), T[2,∞), ... form a
deterministic sequence, periodic from prfx(T) on with a period dividing
lcm(T).  Until and Release over other operands search it as the
one-successor case of the TeamCTL search (`formula.Compiled._search`),
lazily, and stop at the first verdict or at the first repeated team, so
the prfx(T) + lcm(T) teams of the whole horizon are built only when the
formula needs them.  By the expansion laws every team passed has the
search's verdict, so nested temporal operators reuse it.

Splits are the shared core's (`formula.Compiled.split`), over member
units that are state bits: the classical labelling ``alone`` that prunes
them is over states, and a generalised atom's rows are read off its
parameters' masks (parameters are pure LTL).
``naive_oracle`` is a deliberately independent and unoptimized second
implementation used for differential testing.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from .errors import ResourceCapError, UnsupportedNodeError
from .formula import (
    And,
    BoolOr,
    CNeg,
    Compiled,
    DEFAULT_MAX_TEAM,
    Formula,
    GenAtomApp,
    NegProp,
    Next,
    PURE_LTL,
    Prop,
    Release,
    Split,
    Until,
    _bits,
    _derived,
    formula_length,
    prop_masks,
)
from .trace import LassoTrace, TeamEncoding, trace_at


def _least_rotation(seq: list[int]) -> int:
    """Start of the lexicographically least rotation of ``seq``, in
    O(len(seq)) (two candidate starts race; a mismatch after k equal
    steps rules out the k + 1 starts behind the larger one)."""
    n = len(seq)
    i, j, k = 0, 1, 0
    while i < n and j < n and k < n:
        a, b = seq[(i + k) % n], seq[(j + k) % n]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        k = 0
    return min(i, j)


class _TeamEval(Compiled):
    """One call's compiled team, over the shared formula core.

    State ``s`` is a distinct suffix of some member: ``heads[s]`` is its
    first position and ``succ_ids[s]`` holds the state one position
    later, whose bit is ``succ[s]``.  A team is a mask of states, and a
    flat node's ``fails`` mask holds the states whose first position
    falsifies it, as ``alone`` holds those on which a node holds alone.
    """

    logic = "team LTL"
    param_nodes = PURE_LTL
    units = staticmethod(_bits)
    # Each team has one successor team, its suffix team, so E and A agree.
    temporal = {Next: ("X", "E"), Until: ("U", "E"), Release: ("R", "E")}

    def __init__(self, team: TeamEncoding, phi: Formula, max_team: int):
        super().__init__()
        self.max_team = max_team
        self.heads: list[frozenset[str]] = []
        self.succ_ids: list[tuple[int]] = []
        self.root = self._intern_team(team)
        # An Until or Release sequence still open after this many sets gives
        # way to the search along the suffix teams.
        self.cutoff = len(self.heads) + 1
        self.top = self.compile(phi)

    # -- compiling ---------------------------------------------------------

    def _intern_team(self, team: TeamEncoding) -> int:
        """Number the states of ``team``; return the mask of its members."""
        # A rotation of a primitive loop is a distinct pure-loop state, and
        # a prefix state (head, next state) of a canonical trace is never
        # pure-loop; so these two keys identify suffixes exactly.  Loops
        # that are rotations of each other share one key, their least
        # rotation over per-label ids, whose states are numbered from there
        # on, each but the last with its successor one state later.
        heads, succ_ids = self.heads, self.succ_ids
        label_ids: dict[frozenset[str], int] = {}
        loop_states: dict[tuple[int, ...], int] = {}
        prefix_states: dict[tuple[frozenset[str], int], int] = {}
        mask = 0
        for t in team:
            loop, n = t.loop, len(t.loop)
            ids = [label_ids.setdefault(head, len(label_ids)) for head in loop]
            first = _least_rotation(ids) if n > 1 else 0
            least = tuple(ids[first:] + ids[:first])
            base = loop_states.get(least)
            if base is None:
                base = loop_states[least] = len(heads)
                heads += loop[first:] + loop[:first]
                succ_ids += [(s,) for s in range(base + 1, base + n)]
                succ_ids.append((base,))
            state = base + (n - first) % n
            for head in reversed(t.prefix):
                key = (head, state)
                known = prefix_states.get(key)
                if known is None:
                    known = prefix_states[key] = len(heads)
                    heads.append(head)
                    succ_ids.append((state,))
                state = known
            mask |= 1 << state
        return mask

    @_derived
    def prop_masks(self) -> dict[str, int]:
        return prop_masks(zip(self.heads, map((1).__lshift__, range(len(self.heads)))))

    # -- explaining --------------------------------------------------------

    def explain(self, team: int, node: int, pad: str = "") -> Iterator[str]:
        """Yield the witness tree of node ``node`` on ``team``, one line per
        node indented by depth, read after the check off this evaluator's
        own witnesses.  A split opens the parts `split` returns and ``X``
        its one successor; ``U`` opens ψ on the first suffix team where it
        holds, ``R`` φ on the first where it releases ψ, or else ψ on the
        first repeated one.  ``&``, ``\\|/`` and ``~`` open their children
        on the same team, ``\\|/`` its right one only where its left one
        fails; literals, atoms and UNSAT nodes are leaves."""
        from .parser import render

        sat = self.check(team, node)
        yield (f"{pad}{render(self.formulas[node])}  [{team.bit_count()} traces]  "
               f"{'SAT' if sat else 'UNSAT'}")
        kind, kids = self.kinds[node], self.args[node]
        op = self.temporal.get(kind, ("",))[0]
        # The check reads the right side of \|/ only where the left one fails.
        parts = (team,) * (1 if kind is BoolOr and self.check(team, kids[0]) else len(kids))
        if not sat or kind is GenAtomApp:
            return
        if kind is Split:
            parts = self.split(team, node)
            yield f"{pad}  split: {parts[0].bit_count()} | {parts[1].bit_count()} traces"
        elif op == "X":
            parts = self.successors(team)
        elif op:
            # The suffix teams repeat after at most prfx + lcm steps.
            goal = kids[1] if op == "U" else kids[0]
            seen: set[int] = set()
            while team not in seen and not self.check(team, goal):
                seen.add(team)
                (team,) = self.successors(team)
            note = f"{'witness' if op == 'U' else 'release'} offset: {len(seen)}"
            if team in seen:
                note, goal = f"never released in {len(seen)} suffix teams", kids[1]
            yield f"{pad}  {note}"
            parts, kids = (team,), (goal,)
        for part, kid in zip(parts, kids):
            yield from self.explain(part, kid, pad + "  ")


def check_team(
    team: TeamEncoding,
    phi: Formula,
    *,
    max_team: int = DEFAULT_MAX_TEAM,
) -> bool:
    """Team satisfaction of an LTL formula on a finite trace team.

    Each split node enumerates disjoint splits if either side is
    downward closed, covers only if neither is.  Raises ResourceCapError
    instead of guessing when a split would enumerate its parts over more
    than ``max_team`` traces (the traces free to go on either side of a
    disjoint split, every trace of a cover).  A split whose sides are
    both downward closed, one of them flat, enumerates no parts, and a
    split over one trace is always allowed.  Also raises it when ``phi``
    is nested deeper than `formula.MAX_DEPTH`.
    """
    evaluator = _TeamEval(team, phi, max_team)
    return evaluator.check(evaluator.root, evaluator.top)


def explain_team(team: TeamEncoding, phi: Formula, *,
                 max_team: int = DEFAULT_MAX_TEAM) -> tuple[bool, Iterator[str]]:
    """`check_team`'s verdict, and the lines of the witness tree that the
    same run found for it (`_TeamEval.explain`), produced as they are read."""
    evaluator = _TeamEval(team, phi, max_team)
    sat = evaluator.check(evaluator.root, evaluator.top)
    return sat, evaluator.explain(evaluator.root, evaluator.top)


# ---------------------------------------------------------------------------
# Independent oracle


ORACLE_MAX_TEAM = 4
ORACLE_MAX_LEN = 8


def naive_oracle(team: TeamEncoding, phi: Formula) -> bool:
    """Direct transcription of the team semantics, for differential tests.

    Works on (trace tuple, offset) pairs without canonicalization or
    memoization, always enumerates ordered covers for splits, and verifies
    temporal-bound stability: the verdict with witness bound
    prfx + lcm must equal the verdict with bound prfx + 2·lcm.
    """
    if len(team) > ORACLE_MAX_TEAM:
        raise ResourceCapError("oracle supports teams of at most 4 traces")
    if formula_length(phi) > ORACLE_MAX_LEN:
        raise ResourceCapError("oracle supports formulas of length at most 8")
    return _osat(tuple(team), 0, phi)


def _obound(traces: tuple[LassoTrace, ...], off: int, periods: int) -> int:
    import math

    stem = max((len(t.prefix) - off for t in traces), default=0)
    stem = max(stem, 0)
    if not traces:
        return stem + periods
    return stem + periods * math.lcm(*(len(t.loop) for t in traces))


def _osat(traces: tuple[LassoTrace, ...], off: int, phi: Formula) -> bool:
    if isinstance(phi, Prop):
        return all(phi.name in trace_at(t, off) for t in traces)
    if isinstance(phi, NegProp):
        return all(phi.name not in trace_at(t, off) for t in traces)
    if isinstance(phi, And):
        return _osat(traces, off, phi.left) and _osat(traces, off, phi.right)
    if isinstance(phi, BoolOr):
        return _osat(traces, off, phi.left) or _osat(traces, off, phi.right)
    if isinstance(phi, CNeg):
        return not _osat(traces, off, phi.child)
    if isinstance(phi, Split):
        for sides in itertools.product("LRB", repeat=len(traces)):
            part1 = tuple(t for t, s in zip(traces, sides) if s in "LB")
            part2 = tuple(t for t, s in zip(traces, sides) if s in "RB")
            if _osat(part1, off, phi.left) and _osat(part2, off, phi.right):
                return True
        return False
    if isinstance(phi, Next):
        return _osat(traces, off + 1, phi.child)
    if isinstance(phi, (Until, Release)):
        short = _otemporal(traces, off, phi, _obound(traces, off, 1))
        long = _otemporal(traces, off, phi, _obound(traces, off, 2))
        assert short == long, "temporal verdict not stable across period bounds"
        return short
    if isinstance(phi, GenAtomApp):
        rows = [
            tuple(_oclassical(t, off, p) for p in phi.params) for t in traces
        ]
        return phi.atom.evaluator(rows)
    raise UnsupportedNodeError(
        f"oracle does not support {type(phi).__name__}"
    )


def _otemporal(traces, off, phi, bound) -> bool:
    if isinstance(phi, Until):
        for k in range(bound + 1):
            if _osat(traces, off + k, phi.right) and all(
                _osat(traces, off + j, phi.left) for j in range(k)
            ):
                return True
        return False
    for k in range(bound + 1):
        if not _osat(traces, off + k, phi.right) and not any(
            _osat(traces, off + j, phi.left) for j in range(k)
        ):
            return False
    return True


def _oclassical(t: LassoTrace, off: int, phi: Formula) -> bool:
    """Single-trace classical evaluation local to the oracle."""
    if isinstance(phi, Prop):
        return phi.name in trace_at(t, off)
    if isinstance(phi, NegProp):
        return phi.name not in trace_at(t, off)
    if isinstance(phi, And):
        return _oclassical(t, off, phi.left) and _oclassical(t, off, phi.right)
    if isinstance(phi, Split):
        return _oclassical(t, off, phi.left) or _oclassical(t, off, phi.right)
    if isinstance(phi, Next):
        return _oclassical(t, off + 1, phi.child)
    if isinstance(phi, (Until, Release)):
        bound = _obound((t,), off, 1)
        if isinstance(phi, Until):
            return any(
                _oclassical(t, off + k, phi.right)
                and all(_oclassical(t, off + j, phi.left) for j in range(k))
                for k in range(bound + 1)
            )
        return all(
            _oclassical(t, off + k, phi.right)
            or any(_oclassical(t, off + j, phi.left) for j in range(k))
            for k in range(bound + 1)
        )
    raise UnsupportedNodeError(
        f"generalised-atom parameters must be pure classical formulas, "
        f"got {type(phi).__name__}"
    )
