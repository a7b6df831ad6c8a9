"""TeamCTL model checking over multiset teams of worlds.

All team members advance synchronously: one step replaces the team by a
successor team (one edge choice per indexed member).  Temporal operators
therefore become searches over the graph whose nodes are the reachable
multisets — which, up to permutation of indices, is finite — instead of
quantification over infinite per-member path assignments.  There are
C(|W|+|T|-1, |T|) distinct multisets of size |T| over the worlds W, so a
long enough evolution revisits one and can be pumped; the searches use
exactly that cutoff.

Each call compiles the structure and the formula once.  Worlds are the
ints of the structure's own numbering (``k.index`` and ``k.succ_ids``,
made where the structure is built), from which one pass over the worlds
sets up the evaluator's tables.  A multiset team is one int: digit w, in
a base 2^b above the team size, is the multiplicity of world w.  A
power-of-two base lets the worlds of a key be read off the key itself:
four big-int operations keep the top bit of each digit that is not
zero, one bit per distinct member (`_CtlEval.members`).
Successor multisets come from a per-member dynamic program over sums of
digit units (`_CtlEval.successors`), run each time a search steps a team
and kept by no one.  It merges equal multisets by itself, and a member
with one successor only adds a fixed offset to every sum.  Worlds whose
only successor lies the same distance further on in the world order (the
chains of the QBF gadgets) form shift classes, and all members in one
class step at once: one mask and one shift of the key.

The formula is compiled and decided by the shared core,
`formula.Compiled`, which also decides team LTL: the ``temporal`` table
declares each operator with its path quantifier, and the structure's
successor numbers give the core its pre-images.  Here a flat node's
``fails`` mask holds the digits of the worlds falsifying it, so a flat
node holds on a team iff its key misses ``fails``, which needs no memo
and no split enumeration.  Beyond literals and ``&`` and ``|`` over flat nodes, flat
are ``EX``/``AX`` over a flat node, ``E[φ R ψ]`` and ``A[φ R ψ]`` over
flat nodes where no world satisfies φ ∧ ψ (such as ``EG`` and ``AG``),
and ``E[φ U ψ]`` and ``A[φ U ψ]`` where no world satisfies ψ.  Each is
pointwise because the members of a team step independently: a successor
team satisfies a flat node iff each member's chosen successor does, so
``EX`` asks every member for one good successor and ``AX`` for good
successors only, and a synchronous path of teams avoiding ``fails(ψ)``
is just one such path per member, which makes ``EG``/``AG`` the
classical greatest fixpoints.  A pre-image of a digit mask takes one
shift of the mask per distinct edge offset in the world order
(`_pre_image`).

``E[φ U ψ]`` and ``E[φ R ψ]`` over flat nodes are not pointwise, since φ
or ψ must hold on the whole team at one common step: in
``ef_counterexample`` both ``x1`` and ``y1`` reach ``p``, but never at
the same step, so ``EF p`` fails on the team ``x1,y1``.  Yet the members
still step independently, which makes each a union of flat masks that
do not depend on the team.  A team satisfies ``E[φ U ψ]`` iff, for one
n, every member has a path of n φ-worlds to a ψ-world, that is iff its
worlds lie inside Rₙ, where R₀ holds the ψ-worlds and Rₙ₊₁ the φ-worlds
with a successor in Rₙ.  ``E[φ R ψ]`` is the ``EG ψ`` mask and the same
sequence from the φ ∧ ψ-worlds through ψ-worlds.  The shared core builds
these unions, by the rule that also decides team LTL Until and Release
(`formula._until_masks`); this module supplies the pre-images and the
cutoff.  The masks are found only as far as a check reads them; a node
whose sequence has not closed after |W|² + 1 sets decides by a search
for the rest of the call.  ``&`` over such nodes and flat nodes is one
node, so the QBF gadgets' conjunction of ``EF`` goals is one memoised
test per team.

``A[φ U ψ]`` and ``A[φ R ψ]``, and ``E[φ U ψ]`` and ``E[φ R ψ]`` over
operands that are not flat, are the shared core's one depth-first search
over the successor-multiset graph, as Release is the dual of Until.  It
looks for a path that decides the node: for ``EU`` and ``AR`` a finite
path to the goal, for ``AU`` and ``ER`` one that never reaches it, which
ends where the operands fail or at a cycle among the teams a path may
stay in.

Splits are the shared core's (`formula.Compiled.split`): a member unit
is a world's digit unit, its count the world's multiplicity, and each
distinct sub-multiset is one part.  On one world a downward-closed
formula has its classical CTL meaning, so the labelling ``alone`` that
prunes splits is classical CTL labelling over digit masks (Clarke,
Emerson and Sistla, 1986), and an atom's rows are read off its
parameters' masks, one row per copy.

Reading Until and Release from index 1 is a rewrite of the formula that
callers apply, `from_index_zero`, after which every operator is decided
as above.

``mc_ctl_bruteforce`` is the independent oracle: a bounded-unrolling
evaluator that enumerates per-member successor functions explicitly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

from .errors import ResourceCapError, UnsupportedNodeError
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
    Compiled,
    Formula,
    GenAtomApp,
    NegProp,
    Prop,
    Split,
    check_depth,
    children,
    is_downward_closed,
    prop_masks,
    rebuild,
)
from .kripke import KripkeStructure, MultiTeam, world_ids

TeamKey = tuple[str, ...]


@dataclass(frozen=True)
class CtlLimits:
    max_team: int = 6
    max_worlds: int = 12


def from_index_zero(phi: Formula) -> Formula:
    """The until-from-one reading of ``phi`` in the ordinary one: a path
    satisfies E/A[φ U ψ] or E/A[φ R ψ] from index 1 iff its tail from the
    next team satisfies it from index 0, so E₁[φ U ψ] ≡ EX E[φ U ψ] and
    A₁[φ U ψ] ≡ AX A[φ U ψ], applied to every U and R node.  Raises
    `ResourceCapError` when ``phi`` is nested deeper than
    `formula.MAX_DEPTH`."""

    def rewrite(phi: Formula) -> Formula:
        node = rebuild(phi, map(rewrite, children(phi)))
        if isinstance(node, (EU, ER)):
            return EX(node)
        if isinstance(node, (AU, AR)):
            return AX(node)
        return node

    return rewrite(check_depth(phi))


class _CtlEval(Compiled):
    """One call's compiled structure, over the shared formula core.

    World ``w`` is ``k.worlds[w]``, for ``k`` the ``structure``, numbered
    as in ``k.succ_ids``; ``unit[w]`` is the key of the team holding it
    once and ``succ_steps[w]`` the units of its successors.  ``top``
    holds each digit's top bit and ``low`` its bits below that, so that
    ``((key & low) + low | key) & top`` is the key's support, the top
    bits of the worlds it holds: adding ``low`` carries into a digit's top
    bit exactly when its lower bits are not zero, and the sum stays
    inside the digit.
    Members on the worlds of a shift class in ``shifts`` step together,
    members on the worlds whose top bits are in ``stepped`` one by one,
    in `successors`.

    A flat node's ``fails`` mask holds the digits of the worlds
    falsifying it, as ``alone`` holds those of the worlds on which a node
    holds alone; the core's ``pre_some`` and ``pre_all`` map such a digit
    mask to its existential and universal pre-image, and ``cutoff`` is
    the number of sets an E-Until or E-Release sequence may step before
    its node gives way to the search.  The core decides every temporal
    class of ``temporal`` by its path quantifier, over the successor keys
    `successors` finds each time a search steps a team.
    """

    logic = "team CTL"
    param_nodes = (Prop, NegProp, And, Split, BoolOr)
    temporal = {
        EX: ("X", "E"), AX: ("X", "A"),
        EU: ("U", "E"), AU: ("U", "A"),
        ER: ("R", "E"), AR: ("R", "A"),
    }

    def __init__(self, k: KripkeStructure, team_size: int):
        super().__init__()
        self.structure = k
        self.succ_ids = k.succ_ids
        n = len(k.worlds)
        # No split of a team of this size enumerates more copies than it has.
        self.max_team = team_size
        width = self.width = max(team_size.bit_length(), 1)
        self.digit = (1 << width) - 1
        unit = self.unit = [1 << width * w for w in range(n)]
        digits = [self.digit << width * w for w in range(n)]
        ones = sum(unit)
        self.top = ones << width - 1
        self.low = self.top - ones
        # One pass over the worlds, in the structure's integer form.  Worlds
        # whose only successor lies the same distance d further on form a
        # shift class: their digits move together by d digits.
        self.succ_steps = []
        classes: dict[int, list[int]] = {}
        for w, vs in enumerate(k.succ_ids):
            self.succ_steps.append(tuple(map(unit.__getitem__, vs)))
            if len(vs) == 1:
                classes.setdefault(vs[0] - w, []).append(w)
        # An E-Until or E-Release sequence still open after this many sets
        # gives way to the search.  |W|² + 1 sets closed every sequence
        # measured, on random structures of up to 8 worlds and on the QBF
        # gadgets; |W| + 1 left about one in 125 of the former open.
        self.cutoff = n ** 2 + 1
        # Only shift classes of two or more worlds are kept, at most one per
        # team member, the largest first, so that testing them costs no
        # more than stepping the members; every other world is stepped
        # member by member.
        kept = sorted(
            ((d, ws) for d, ws in classes.items() if len(ws) > 1),
            key=lambda item: len(item[1]), reverse=True,
        )[:max(team_size, 1)]
        self.shifts = []
        self.stepped = self.top
        for d, ws in kept:
            mask = sum(digits[w] for w in ws)
            self.shifts.append((max(width * d, 0), max(-width * d, 0), mask))
            self.stepped ^= mask & self.top
        self.prop_masks = prop_masks((ps, digits[k.index[w]]) for w, ps in k.labels.items())

    # -- multiset keys -----------------------------------------------------

    def encode(self, worlds: Iterable[str]) -> int:
        """The key of the multiset of ``worlds``; `ValueError` names the
        first that is no world of the structure."""
        return sum(map(self.unit.__getitem__, world_ids(self.structure, worlds)))

    def members(self, key: int, worlds: int = -1):
        """Yield (world, multiplicity) for every world of the multiset whose
        top bit is in the mask ``worlds``."""
        low, width = self.low, self.width
        rest = ((key & low) + low | key) & self.top & worlds
        while rest:
            bit = rest & -rest
            rest ^= bit
            w = (bit.bit_length() - 1) // width
            yield w, key >> width * w & self.digit

    def successors(self, key: int) -> tuple[int, ...]:
        """The keys of the distinct successor multisets."""
        offset = 0
        for up, down, digits in self.shifts:
            offset += (key & digits) << up >> down
        branching = []
        for w, count in self.members(key, self.stepped):
            steps = self.succ_steps[w]
            if len(steps) == 1:
                offset += count * steps[0]
            else:
                branching += [steps] * count
        sums = {offset}
        for steps in branching:
            sums = {s + u for s in sums for u in steps}
        return tuple(sums)

    # -- evaluating --------------------------------------------------------

    def units(self, key: int):
        """Each world's unit in the multiset, with its multiplicity."""
        return ((self.unit[w], count) for w, count in self.members(key))


def mc_ctl(
    k: KripkeStructure,
    team: MultiTeam,
    phi: Formula,
    *,
    limits: CtlLimits | None = None,
) -> bool:
    """Team satisfaction of a CTL formula on a multiset team.  To read
    Until and Release from index 1, pass `from_index_zero` of ``phi``."""
    limits = limits or CtlLimits()
    if len(team) > limits.max_team:
        raise ResourceCapError(
            f"team size {len(team)} exceeds the cap {limits.max_team}"
        )
    if len(k.worlds) > limits.max_worlds:
        raise ResourceCapError(
            f"structure size {len(k.worlds)} exceeds the cap {limits.max_worlds}"
        )
    evaluator = _CtlEval(k, len(team))
    key = evaluator.encode(team.worlds)
    return evaluator.check(key, evaluator.compile(phi))


# ---------------------------------------------------------------------------
# Independent oracle


# The oracle recurses about four Python frames per unrolling step, and as
# many per formula level: 120 steps under 20 levels take about 570 frames,
# well below Python's default recursion limit of 1000, and under 100
# levels about 890.  Under `formula.MAX_DEPTH` levels they need more, and
# nested Until and Release can stack their unrollings, so where the stack
# runs out the oracle raises `ResourceCapError`; the differential suites
# keep the depth at 20 or less.
ORACLE_MAX_UNROLL = 120


def mc_ctl_bruteforce(
    k: KripkeStructure,
    team: MultiTeam,
    phi: Formula,
    *,
    depth: int | None = None,
) -> bool:
    """Bounded-unrolling evaluator enumerating per-member successor
    functions explicitly.  The default depth is the number of distinct
    multisets of the team's size, C(|W|+|T|-1, |T|), which makes the
    cutoffs exact: a run of that many steps passes through one more team
    than there are multisets, so it revisits one and can be pumped.
    Raises `ResourceCapError` for a depth above `ORACLE_MAX_UNROLL`, and
    where its recursion exceeds Python's recursion limit."""
    from .eval_classical import prop_sat

    check_depth(phi)
    multisets = math.comb(max(len(k.worlds) + len(team) - 1, 0), len(team))
    bound = multisets if depth is None else depth
    if bound > ORACLE_MAX_UNROLL:
        raise ResourceCapError(
            f"oracle unrolls at most {ORACLE_MAX_UNROLL} steps deep, not {bound}"
        )
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
            if is_downward_closed(phi):
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

    try:
        return sat(team.worlds, phi, bound)
    except RecursionError:
        raise ResourceCapError(
            f"oracle unrolling {bound} steps under this formula exceeds "
            "Python's recursion limit"
        ) from None
