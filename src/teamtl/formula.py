"""Syntax trees for team-semantics LTL and CTL formulas.

Formulas are kept in negation normal form: ordinary negation occurs only
directly on propositions (`NegProp`), while the team-level contradictory
negation has its own node (`CNeg`).  `Split` is the team splitjunction (the
default disjunction of team semantics); `BoolOr` is the classical "whole
team satisfies one side" disjunction.

All node classes are frozen dataclasses, so formulas are immutable,
hashable, and compared structurally.  A connective with one subformula
derives from `Unary` (field ``child``), one with two from `Binary`
(``left``, ``right``), and inherits its fields and methods: equality
also compares the class, so ``And(p, q) != Split(p, q)``.  A
generalised atom's subformulas are its ``params``.  `SHORTHANDS` holds
the derived temporal operators (F, G and their CTL forms), each a
connective with a constant ⊤ or ⊥ left operand.  `children`, `rebuild`
and `iter_nodes` are the one traversal API: structural walks elsewhere
go through them (or through `map_literals`, built on them) rather than
reading those fields.  `is_downward_closed` tells whether a formula is
in the syntactic downward-closed fragment.

`Compiled` is the core that the team LTL, TeamCTL and splitfree model
checking evaluators build on: it interns a formula's nodes once per
call, generalised-atom parameters included, records per node its class,
child ids, downward closure and, for flat nodes, the mask of team
members falsifying it, and decides every node through one ``check``: a
flat node by one mask test, any other by its rule, memoised per team; a
conjunction of unions of flat masks is one node.  It decides ``&``,
Boolean disjunction, ``~``, generalised atoms and every temporal
operator itself, each temporal class declared by its operator and path
quantifier, and every split, pruned by the classical labelling of the
downward-closed nodes.  The evaluators add their team encoding, member
units and each member's successor numbers, from which the core builds
the pre-images and steps a team whenever a search reaches it, keeping
no successor.

How deep a formula may nest is bounded once per entry point, for trees
built in code: by `Compiled.compile` as it interns the tree, and by
`check_depth` where nothing compiles; the parsers bound the depth of
each node as they build it.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from .errors import ResourceCapError, UnsupportedNodeError

# Reserved proposition used by the TOP/BOT expansions; kept out of user
# formula namespaces by convention.
RESERVED_TAUT_PROP = "_taut"

# The deepest formula the parsers and evaluators accept, counting the
# syntax tree's levels; the parsers also count the brackets and prefix
# operators around any sub-expression.  The parsers bound each node as
# they build it; `Compiled.compile` bounds the tree it interns, for
# check_team, mc_ctl and check_model_splitfree; `check_depth` bounds it
# at every other entry point, before they recurse.  The evaluators recurse per tree
# level: from a shallow stack, under Python's default recursion limit of
# 1000, mc_ctl_bruteforce decides EX nested 247 deep (four frames a
# level), classical LTL U nested 330 deep, and check_team and mc_ctl
# about 500.  The parser itself takes up to six frames per bracket level
# (an atom in an atom's argument list), which binds first: atoms nested
# 100 deep need a limit of 612, and 140 levels one of about 850, which
# leaves about 150 frames to the caller; at 150 levels a caller 100
# frames deep runs out.  The QBF-to-path-checking reduction of n
# variables and n clauses is 5.5n + 2 deep: 57 at n = 10, 134 at n = 24.
MAX_DEPTH = 140

# The default resource caps of the evaluators, kept here beside the depth
# bound so that the CLI reads them without importing an evaluator: the
# traces a team-LTL split may enumerate its parts over (`check_team`),
# and the successor sets a splitfree model check may step
# (`check_model_splitfree`).
DEFAULT_MAX_TEAM = 16
DEFAULT_MAX_SUBSETS = 2**20


@dataclass(frozen=True)
class Formula:
    """Base class for all formula nodes."""


@dataclass(frozen=True)
class Unary(Formula):
    """Base class for connectives with one subformula."""

    child: Formula


@dataclass(frozen=True)
class Binary(Formula):
    """Base class for connectives with two subformulas."""

    left: Formula
    right: Formula


# ---------------------------------------------------------------------------
# Shared propositional / team connectives (legal in both LTL and CTL trees)


@dataclass(frozen=True)
class Prop(Formula):
    name: str


@dataclass(frozen=True)
class NegProp(Formula):
    name: str


class And(Binary):
    """Conjunction: the team satisfies both sides."""


class Split(Binary):
    """Team splitjunction: T = T1 ∪ T2 with T1 satisfying left, T2 right."""


class BoolOr(Binary):
    """Boolean (classical) disjunction: the whole team satisfies a side."""


class CNeg(Unary):
    """Contradictory negation: T satisfies ~φ iff T does not satisfy φ."""


@dataclass(frozen=True)
class GenAtomDef:
    """A generalised atom: a named decision procedure over the relational
    structure induced by a team.

    The evaluator receives one membership row per team member (multiplicity
    preserved for multiset teams): row[i] is the classical truth value of
    the i-th parameter on that member.  The order of the rows is not part
    of the contract; the built-in atoms ignore it.  ``sep`` records where
    the parameter list splits for rendering (``dep(p;q)`` / ``inc(p;q)``).
    """

    name: str
    arity: int
    sep: int | None
    downward_closed: bool
    evaluator: Callable[[list[tuple[bool, ...]]], bool] = field(compare=False)


@dataclass(frozen=True)
class GenAtomApp(Formula):
    atom: GenAtomDef
    params: tuple[Formula, ...]


# ---------------------------------------------------------------------------
# LTL temporal operators


class Next(Unary):
    """X φ: the team one step on satisfies φ."""


class Until(Binary):
    """φ U ψ: the team reaches ψ at one offset, through φ before it."""


class Release(Binary):
    """φ R ψ: ψ holds forever, or up to an offset where φ ∧ ψ holds."""


# ---------------------------------------------------------------------------
# CTL temporal operators (every temporal operator carries a path quantifier)


class EX(Unary):
    """EX φ: some successor team satisfies φ."""


class AX(Unary):
    """AX φ: every successor team satisfies φ."""


class EU(Binary):
    """E[φ U ψ]: some successor-team evolution satisfies φ U ψ."""


class AU(Binary):
    """A[φ U ψ]: every successor-team evolution satisfies φ U ψ."""


class ER(Binary):
    """E[φ R ψ]: some successor-team evolution satisfies φ R ψ."""


class AR(Binary):
    """A[φ R ψ]: every successor-team evolution satisfies φ R ψ."""


_LTL_TEMPORAL = (Next, Until, Release)
_CTL_TEMPORAL = (EX, AX, EU, AU, ER, AR)
# Pure LTL, without team connectives or atoms: what classical LTL and the
# parameters of a team LTL atom admit.
PURE_LTL = (Prop, NegProp, And, Split, Next, Until, Release)


# ---------------------------------------------------------------------------
# Built-in generalised atoms


def _dep_evaluator(n_in: int):
    def ev(rows):
        for r, s in itertools.combinations(rows, 2):
            if r[:n_in] == s[:n_in] and r[n_in:] != s[n_in:]:
                return False
        return True

    return ev


def _inc_evaluator(n: int):
    def ev(rows):
        right = {r[n:] for r in rows}
        return all(r[:n] in right for r in rows)

    return ev


def dependence_atom(n_in: int, n_out: int) -> GenAtomDef:
    """dep(p1..pn; q1..qm): the q-values are functionally determined by the
    p-values across the team.  n_in may be 0 (constancy)."""
    if n_in < 0 or n_out < 1:
        raise ValueError("dependence atom needs >= 1 determined parameter")
    return GenAtomDef(
        name="dep",
        arity=n_in + n_out,
        sep=n_in,
        downward_closed=True,
        evaluator=_dep_evaluator(n_in),
    )


def inclusion_atom(n: int) -> GenAtomDef:
    """inc(p1..pn; q1..qn): every value tuple occurring for the p-side also
    occurs for the q-side somewhere in the team."""
    if n < 1:
        raise ValueError("inclusion atom needs >= 1 parameter per side")
    return GenAtomDef(
        name="inc",
        arity=2 * n,
        sep=n,
        downward_closed=False,
        evaluator=_inc_evaluator(n),
    )


# ---------------------------------------------------------------------------
# Shorthand expansion


def top() -> Formula:
    """⊤ as a splitjunction over the reserved proposition: satisfied by
    every team (each trace goes to whichever side it satisfies)."""
    return Split(Prop(RESERVED_TAUT_PROP), NegProp(RESERVED_TAUT_PROP))


def bot() -> Formula:
    """⊥: satisfied only by the empty team."""
    return And(Prop(RESERVED_TAUT_PROP), NegProp(RESERVED_TAUT_PROP))


# The derived temporal operators: each is its class with ⊤ or ⊥ on the
# left of its operand.  G φ = ⊥ R φ, as in CTL; see README for why the
# Until variant is rejected.  `parser.render` folds them back by this table.
# All of them share one ⊤ and one ⊥, which the parser also reads for TOP
# and BOT, so that a parsed formula holds one object for each.
_TOP, _BOT = top(), bot()
SHORTHANDS: dict[str, tuple[type, Formula]] = {
    "F": (Until, _TOP),
    "G": (Release, _BOT),
    "EF": (EU, _TOP),
    "EG": (ER, _BOT),
    "AF": (AU, _TOP),
    "AG": (AR, _BOT),
}


def expand_shorthand(name: str, args: list[Formula] | tuple[Formula, ...] = ()) -> Formula:
    """Expand TOP/BOT and the derived temporal operators of `SHORTHANDS`."""
    args = tuple(args)
    if name in ("TOP", "BOT"):
        if args:
            raise ValueError(f"shorthand {name} takes no arguments")
        return top() if name == "TOP" else bot()
    if name not in SHORTHANDS:
        raise ValueError(f"unknown shorthand name: {name}")
    if len(args) != 1:
        raise ValueError(f"shorthand {name} takes exactly one argument")
    kind, constant = SHORTHANDS[name]
    return kind(constant, args[0])


# ---------------------------------------------------------------------------
# Structural queries


def children(phi: Formula) -> tuple[Formula, ...]:
    """The direct subformulas of a node, generalised-atom parameters
    included; empty for literals."""
    if isinstance(phi, Binary):
        return (phi.left, phi.right)
    if isinstance(phi, Unary):
        return (phi.child,)
    if isinstance(phi, GenAtomApp):
        return phi.params
    return ()


def rebuild(phi: Formula, kids: Iterable[Formula]) -> Formula:
    """A node like ``phi`` whose direct subformulas are ``kids``, given in
    the order `children` lists them; a literal is returned as it is."""
    if isinstance(phi, GenAtomApp):
        return GenAtomApp(phi.atom, tuple(kids))
    if isinstance(phi, (Unary, Binary)):
        return type(phi)(*kids)
    return phi


def iter_nodes(phi: Formula):
    """Yield every node of the tree, including generalised-atom parameters."""
    stack = [phi]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(children(node))


def map_literals(phi: Formula, replace: Callable[[Formula], Formula]) -> Formula:
    """Rebuild ``phi`` bottom-up with every literal (`Prop` or `NegProp`)
    replaced by ``replace(literal)``.  A subtree shared within ``phi`` is
    rewritten once and stays shared."""
    done: dict[int, Formula] = {}

    def walk(node: Formula) -> Formula:
        result = done.get(id(node))
        if result is None:
            if isinstance(node, (Prop, NegProp)):
                result = replace(node)
            else:
                result = rebuild(node, map(walk, children(node)))
            done[id(node)] = result
        return result

    return walk(phi)


def check_depth(phi: Formula) -> Formula:
    """Return ``phi`` if its tree has at most `MAX_DEPTH` levels, else
    raise `ResourceCapError`.  The walk goes a level at a time, without
    recursion, and visits a subtree shared within a level once."""
    level = {id(phi): phi}
    for _ in range(MAX_DEPTH):
        level = {id(kid): kid for node in level.values() for kid in children(node)}
        if not level:
            return phi
    raise _too_deep()


def _too_deep() -> ResourceCapError:
    return ResourceCapError(f"formula nested more than {MAX_DEPTH} deep")


def require_nodes(phi: Formula, allowed: tuple[type, ...], where: str) -> Formula:
    """Return ``phi`` if each of its nodes is an instance of a class in
    ``allowed``, else raise `UnsupportedNodeError` naming ``where``.  A
    subtree shared within ``phi`` is visited once."""
    seen = set()
    stack = [phi]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if not isinstance(node, allowed):
            raise UnsupportedNodeError(f"{type(node).__name__} is not supported in {where}")
        stack.extend(children(node))
    return phi


def formula_length(phi: Formula) -> int:
    """Number of Boolean and temporal connectives; literals count 0 and a
    generalised atom counts 1 plus its parameter lengths."""
    n = 0
    for node in iter_nodes(phi):
        if isinstance(node, (Prop, NegProp)):
            continue
        n += 1
    return n


def propositions(phi: Formula) -> frozenset[str]:
    return frozenset(
        node.name for node in iter_nodes(phi) if isinstance(node, (Prop, NegProp))
    )


def is_downward_closed(phi: Formula) -> bool:
    """True iff the formula is in the downward-closed fragment: no
    contradictory negation and no generalised atom declared
    non-downward-closed.  Such a formula holding on a team holds on all
    its subteams, so disjoint splits suffice for it."""
    return not any(
        isinstance(node, CNeg)
        or isinstance(node, GenAtomApp) and not node.atom.downward_closed
        for node in iter_nodes(phi)
    )


def is_ltl(phi: Formula) -> bool:
    """True iff no CTL-only operator occurs (generalised-atom params included)."""
    return not any(isinstance(node, _CTL_TEMPORAL) for node in iter_nodes(phi))


def is_ctl(phi: Formula) -> bool:
    """True iff no bare LTL temporal operator occurs."""
    return not any(isinstance(node, _LTL_TEMPORAL) for node in iter_nodes(phi))


# ---------------------------------------------------------------------------
# The compiled-formula core shared by the team evaluators


def _bits(mask: int):
    """Each bit of ``mask``, lowest first, as a member unit ``(bit, 1)``."""
    while mask:
        low = mask & -mask
        yield low, 1
        mask ^= low


def _parts(units: list[tuple[int, int]], size: int):
    """The sum of each sub-multiset of ``size`` copies of the member
    units ``(unit, count)``, once; a set's parts come in the order of
    `itertools.combinations`, beside each count vector of the rest."""
    ones = [unit for unit, count in units if count == 1]
    many = [(unit, count) for unit, count in units if count > 1]
    for counts in itertools.product(*(range(count + 1) for _, count in many)):
        rest = size - sum(counts)
        if 0 <= rest <= len(ones):
            base = sum(n * unit for n, (unit, _) in zip(counts, many))
            for extra in itertools.combinations(ones, rest):
                yield base + sum(extra)


def _minimal(masks: list[int]) -> list[int]:
    """The ⊆-minimal masks among ``masks``, each once, in the order in
    which the parts of a split, enumerated from the largest down, meet
    their complements: the smallest first, and of two the same size,
    first the one without the lowest bit in which they differ."""
    distinct = set(masks)
    if len(distinct) < 2:
        return list(distinct)
    width = max(distinct).bit_length()
    kept: list[int] = []
    for mask in sorted(distinct, key=lambda m: (m.bit_count(), f"{m:0{width}b}"[::-1])):
        if all(k & ~mask for k in kept):
            kept.append(mask)
    return kept


def _pre_image(succ_ids: Iterable[Iterable[int]], width: int = 1):
    """The function mapping a mask to the mask of the members with a
    successor in it, for ``succ_ids[i]`` the successors of member i and
    each member ``width`` bits of a mask.  It groups the members by the
    offset of each of their edges in the member order and shifts a whole
    mask once per group.  It holds no reference to the evaluator, so the
    mask sequences that keep it do not make the evaluator a reference
    cycle."""
    digit = (1 << width) - 1
    groups: dict[int, int] = {}
    for i, vs in enumerate(succ_ids):
        for v in vs:
            groups[v - i] = groups.get(v - i, 0) | digit << width * i
    forward = tuple((d * width, ms) for d, ms in groups.items() if d >= 0)
    backward = tuple((-d * width, ms) for d, ms in groups.items() if d < 0)

    def pre_some(mask: int) -> int:
        found = 0
        for shift, members in forward:
            found |= members & mask >> shift
        for shift, members in backward:
            found |= members & mask << shift
        return found

    return pre_some


def prop_masks(labelled: Iterable[tuple[frozenset[str], int]]) -> dict[str, int]:
    """Each proposition's mask of the members labelled with it, from the
    (label set, member mask) pairs ``labelled``.  Equal label sets are
    gathered first, so each is read once."""
    by_label: dict[frozenset[str], int] = {}
    for label, mask in labelled:
        by_label[label] = by_label.get(label, 0) | mask
    masks: dict[str, int] = {}
    for label, mask in by_label.items():
        for p in label:
            masks[p] = masks.get(p, 0) | mask
    return masks


def _least_fixpoint(mask: int, pre: Callable[[int], int]) -> int:
    """The least superset of ``mask`` closed under ``pre``."""
    while True:
        grown = mask | pre(mask)
        if grown == mask:
            return mask
        mask = grown


def _until_masks(start: int, inside: int, pre_some, full: int, steps: int):
    """Yield ``full ^ R`` for each R in R₀ = ``start``, Rₙ₊₁ = ``inside``
    ∩ pre∃(Rₙ): for ``start`` the ψ-members and ``inside`` the
    φ-members, a team satisfies φ U ψ iff it misses one of these masks,
    as every member then has a path of n φ-members to a ψ-member, and
    the members step independently.  Rₙ ⊆ Rₘ makes Rₙ₊₁ ⊆ Rₘ₊₁, so once
    a set lies inside its predecessor or repeats an earlier one, every
    later set lies inside an earlier one, and the masks are all found.
    Yield None if that has not happened after ``steps`` sets."""
    seen = set()
    reach = start
    for _ in range(steps):
        yield full ^ reach
        seen.add(reach)
        grown = inside & pre_some(reach)
        if not grown & ~reach or grown in seen:
            return
        reach = grown
    yield None


class _derived(functools.cached_property):
    """A `functools.cached_property` stored with ``setattr``: in CPython a
    write through an object's ``__dict__`` slows its later attribute reads."""

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = self.func(instance)
        setattr(instance, self.attrname, value)
        return value


class MaskUnion:
    """A union of flat masks: a team satisfies it iff it misses one of
    them.  ``masks`` holds the masks found so far; the iterator ``rest``
    yields the others one at a time and ends when there are no more, or
    yields None when it gives up before that.  From then on the search
    of node ``node``, an Until or Release that the union is equivalent
    to, decides it (`Compiled._search`).  A flat node is the union of its
    one mask.  Both team evaluators decide Until and Release over flat
    operands by one: checks read its masks one at a time (`more`), and
    the team LTL disjoint split reads them all at once (`force`)."""

    __slots__ = ("masks", "rest", "node")

    def __init__(self, masks: Iterable[int], rest: Iterable[int | None] = (), node: int = -1):
        self.masks = list(masks)
        self.rest: Iterator[int | None] | None = iter(rest)
        self.node = node

    def more(self, evaluator: Compiled, team: int) -> bool:
        """Whether ``team``, which meets every mask in ``masks``, satisfies
        the union: find masks until ``team`` misses one or none is left."""
        if self.rest is not None:
            for mask in self.rest:
                if mask is None:
                    break
                self.masks.append(mask)
                if not team & mask:
                    return True
            else:
                return False
            self.masks, self.rest = [], None
        return evaluator._search(team, self.node)

    def force(self) -> list[int] | None:
        """Every mask of the union, found now, or None if it gives up
        before it has them all."""
        if self.rest is None:
            return None
        for mask in self.rest:
            if mask is None:
                self.masks, self.rest = [], None
                return None
            self.masks.append(mask)
        return self.masks


class Compiled:
    """One evaluation call's formula, interned once: the core that the
    team LTL, TeamCTL and splitfree model checking evaluators share.

    Node ``n`` is a distinct subformula: ``kinds[n]`` is its node class,
    ``args[n]`` its child node ids (a generalised atom's children are its
    parameters), ``dc[n]`` whether it lies in the downward-closed
    fragment, ``height[n]`` its number of levels, and ``rules[n]`` the
    function deciding it on a team.  A node
    is flat when its truth on a team is decided member by member; then
    ``fails[n]`` is the mask of members falsifying it, and it holds on a
    team iff no member is in that mask.  Literals are flat, and so are
    ``&`` and ``|`` over flat nodes and the temporal nodes named below.
    Every other node has ``fails[n]`` None and memoises its verdicts by
    team in ``memo[n]``.

    Every evaluator steps a team synchronously, to a successor team: a
    team of traces has one, its suffix team, a multiset of worlds may
    have many, and the set of worlds a structure's trace team has reached
    has one, its image.  So team LTL's X, U and R are TeamCTL's EX, EU
    and ER (equally AX, AU and AR) where every team has one successor,
    and one set of rules decides all three, read off a subclass's table
    ``temporal`` of each temporal class's operator and path quantifier.
    Team LTL declares E, and splitfree model checking A, as its masks are
    over worlds, each of which steps to all of its successors at once.
    ``X`` steps once (`_step`), and Until and Release search for a path
    that decides them (`_search`).  As a team's members step
    independently, some temporal nodes over flat children are flat:
    ``X`` fails where every successor fails, under A where one does;
    ``U`` fails everywhere where ψ holds nowhere; ``R`` where φ ∧ ψ holds
    nowhere is G ψ, which fails where ψ fails or, from there on, where
    every successor fails, under A where one does, a least fixpoint.

    A node that is not flat may still be mask-decided: ``unions[n]`` is
    then a tuple of `MaskUnion`s, and it holds on a team iff the team
    misses some mask of each.  So are Until and Release over flat
    children under E: φ U ψ holds iff, for one n, every member reaches a
    ψ-member through n φ-members (`_until_masks`), and φ R ψ is the G ψ
    mask and the same sequence from φ ∧ ψ through ψ.
    ``&`` over flat and mask-decided children concatenates their unions
    at compile time, a flat child giving the union of its one mask, so a
    conjunction of them is one node, tested with one memoised rule call
    per team.  A union finds its masks as tests read them, and a node
    whose sequence is still open after ``cutoff`` sets gives way to its
    own rule, a search; see `MaskUnion`.

    A team is an int, and a flat node's mask uses the same bits, so
    ``check(team, node)`` decides every node: a flat one by one mask test,
    any other from its memo or by ``rules[node](self, team, node)``.

    A split is over the indices of a team, as in the paper, and
    enumerates each distinct part once, by how many copies of each member
    unit it takes.  The formula alone picks the enumeration (`split`),
    and ``alone``, the classical labelling of each downward-closed node
    (singleton equivalence), prunes it; every part is decided by the
    rules.  An atom's row for a member reads each parameter's ``alone``
    bit, its classical value: parameters admit no ``~`` and no atom.

    A subclass encodes its teams and supplies ``prop_masks`` (each
    proposition's mask of the members labelled with it), ``units`` (a
    team's member units with their counts, lowest first), ``max_team``
    (the most copies a split may enumerate its parts over), the name of
    its ``logic`` and ``temporal``, which maps each temporal class to its
    operator (``"X"``, ``"U"`` or ``"R"``) and path quantifier (``"E"``
    or ``"A"``, which agree where every team has one successor); where it
    admits atoms, also the node classes ``param_nodes`` admitted in their
    parameters, and where a temporal class is not under A, ``cutoff``.
    Before it compiles it sets ``succ_ids``, each member's successor
    numbers in member order, every member having one at least, and
    ``width``, the bits of a team per member, where that is not 1.  The
    core derives the rest from them, and a subclass whose teams have
    other successors than the image overrides `successors`.
    Any other class is rejected with `UnsupportedNodeError`, in a
    parameter when it is compiled, elsewhere when it is evaluated.
    """

    temporal: dict[type, tuple[str, str]]
    rule_of: dict[type, Callable[..., bool]]
    succ_ids: Sequence[Sequence[int]]
    width = 1
    cutoff: int
    units: Callable[[int], Iterable[tuple[int, int]]]
    max_team: int

    def __init__(self):
        self.formulas: list[Formula] = []
        self.kinds: list[type] = []
        self.args: list[tuple[int, ...]] = []
        self.dc: list[bool] = []
        self.fails: list[int | None] = []
        self.unions: list[tuple[MaskUnion, ...] | None] = []
        self.rules: list[Callable[..., bool]] = []
        self.memo: list[dict[int, bool]] = []
        self.height: list[int] = []
        self.node_keys: dict[tuple, int] = {}
        self.compiled: dict[int, int] = {}

    def __init_subclass__(cls, **kwargs):
        # Rules are functions of the class, called as rule(self, team, node):
        # bound methods kept on the evaluator would make it a reference
        # cycle, so its memos would outlive the call until a collection.
        super().__init_subclass__(**kwargs)
        cls.rule_of = {
            And: cls._and,
            BoolOr: cls._bool_or,
            CNeg: cls._cneg,
            Split: cls._split,
            GenAtomApp: cls._gen_atom,
        }
        for kind, (op, _) in cls.temporal.items():
            cls.rule_of[kind] = Compiled._step if op == "X" else Compiled._search

    def compile(self, phi: Formula, room: int = MAX_DEPTH) -> int:
        """The node id of ``phi``, interning it and its subformulas.

        Raises `ResourceCapError` when ``phi`` has more than ``room``
        levels, `MAX_DEPTH` at the root.  Each subformula is compiled with
        one level less room, and one met again, shared within the tree,
        is checked by its height, so this walk bounds the depth of every
        tree that an evaluator compiles and never recurses past the
        bound."""
        ident = id(phi)
        node = self.compiled.get(ident)
        if node is not None:
            if self.height[node] > room:
                raise _too_deep()
            return node
        if room < 1:
            raise _too_deep()
        kind = type(phi)
        dc, height = self.dc, self.height
        if kind is Prop or kind is NegProp:
            args: tuple[int, ...] = ()
            key: tuple = (kind, phi.name)
        elif isinstance(phi, Binary):
            room -= 1
            args = (self.compile(phi.left, room), self.compile(phi.right, room))
            key = (kind, *args)
        elif isinstance(phi, Unary):
            args = (self.compile(phi.child, room - 1),)
            key = (kind, *args)
        elif kind is GenAtomApp:
            if len(phi.params) != phi.atom.arity:
                raise ValueError(
                    f"atom {phi.atom.name} has arity {phi.atom.arity}, "
                    f"got {len(phi.params)} parameters"
                )
            for param in phi.params:
                require_nodes(param, self.param_nodes, f"{self.logic} atom parameters")
            room -= 1
            args = tuple([self.compile(kid, room) for kid in phi.params])
            key = (kind, id(phi.atom), *args)
        else:
            args, key = (), (kind,)
        node = self.node_keys.get(key)
        if node is None:
            node = self.node_keys[key] = len(self.kinds)
            fails, unions = self._masks(phi, kind, args, node)
            self.fails.append(fails)
            self.unions.append(unions)
            self.formulas.append(phi)
            self.kinds.append(kind)
            self.args.append(args)
            closed = kind is not CNeg and (kind is not GenAtomApp or phi.atom.downward_closed)
            below = 0
            for a in args:
                closed = closed and dc[a]
                if height[a] > below:
                    below = height[a]
            dc.append(closed)
            height.append(below + 1)
            self.rules.append(
                Compiled._union if unions else self.rule_of.get(kind, Compiled._unsupported)
            )
            self.memo.append({})
        self.compiled[ident] = node
        return node

    def _masks(self, phi: Formula, kind: type, args: tuple[int, ...],
               node: int) -> tuple[int | None, tuple[MaskUnion, ...] | None]:
        """The ``fails`` mask of new node ``node`` if it is flat, else
        None, and its ``unions`` if it is mask-decided, else None."""
        if kind is Prop or kind is NegProp:
            holds = self.prop_masks.get(phi.name, 0)
            return (holds if kind is NegProp else self.full ^ holds), None
        masks = list(map(self.fails.__getitem__, args))
        flat = None not in masks
        if kind is And:
            if flat:
                return masks[0] | masks[1], None
            unions = []
            for a, mask in zip(args, masks):
                if self.unions[a] is not None:
                    unions += self.unions[a]
                elif mask is None:
                    return None, None
                else:
                    unions.append(MaskUnion([mask]))
            return None, tuple(unions)
        if kind is Split:
            return (masks[0] & masks[1] if flat else None), None
        temporal = self.temporal.get(kind)
        if temporal is None or not flat:
            return None, None
        op, quantifier = temporal
        full = self.full
        # X φ fails where every successor fails φ, AX φ where one does;
        # G ψ fails where ψ fails or, from there on, where every successor
        # fails, or under A where one does: a least fixpoint.
        pre = self.pre_some if quantifier == "A" else self.pre_all
        if op == "X":
            return pre(masks[0]), None
        if op == "U" and masks[1] == full:
            return full, None
        if op == "R" and masks[0] | masks[1] == full:
            return _least_fixpoint(masks[1], pre), None
        if quantifier == "A":
            return None, None
        phi_holds, psi_holds = full ^ masks[0], full ^ masks[1]
        if op == "U":
            stay, start, inside = (), psi_holds, phi_holds
        else:
            # The team stays on ψ forever, which each member does on its
            # own (G ψ), or reaches φ ∧ ψ at one step through ψ.
            stay = (_least_fixpoint(masks[1], pre),)
            start, inside = phi_holds & psi_holds, psi_holds
        rest = _until_masks(start, inside, self.pre_some, full, self.cutoff)
        return None, (MaskUnion(stay, rest, node),)

    def check(self, team: int, node: int) -> bool:
        """Whether ``team`` satisfies node ``node``."""
        fails = self.fails[node]
        if fails is not None:
            return not team & fails
        memo = self.memo[node]
        verdict = memo.get(team)
        if verdict is None:
            verdict = memo[team] = self.rules[node](self, team, node)
        return verdict

    def _union(self, team: int, node: int) -> bool:
        for union in self.unions[node]:
            for mask in union.masks:
                if not team & mask:
                    break
            else:
                if not union.more(self, team):
                    return False
        return True

    def _and(self, team: int, node: int) -> bool:
        left, right = self.args[node]
        return self.check(team, left) and self.check(team, right)

    def _bool_or(self, team: int, node: int) -> bool:
        left, right = self.args[node]
        return self.check(team, left) or self.check(team, right)

    def _cneg(self, team: int, node: int) -> bool:
        return not self.check(team, self.args[node][0])

    def _gen_atom(self, team: int, node: int) -> bool:
        # A parameter is downward closed, so its row entry on a member is
        # one bit of its ``alone`` mask.
        params = [self.alone[p] for p in self.args[node]]
        rows = [
            row for unit, count in self.units(team)
            for row in [tuple(bool(unit & m) for m in params)] * count
        ]
        return self.formulas[node].atom.evaluator(rows)

    def _unsupported(self, team: int, node: int) -> bool:
        raise UnsupportedNodeError(
            f"{self.logic} evaluation does not support {self.kinds[node].__name__}"
        )

    @_derived
    def alone(self) -> list[int | None]:
        """``alone[n]``: the mask of the members whose one-member team
        satisfies node ``n``, for each node in the downward-closed
        fragment, and None for every other node.

        On one member a downward-closed formula has its classical meaning
        (singleton equivalence), so each mask is one bottom-up pass over
        the nodes, children first, as in CTL labelling: ``&`` is an AND of
        the children's masks, ``|`` and ``\\|/`` an OR, ``X`` a pre-image
        under the node's quantifier, ``U`` the least fixpoint of
        ψ ∨ (φ ∧ pre(Z)) and ``R`` the complement of the Until of the
        other quantifier over ¬φ and ¬ψ.  Under E pre is ``pre_some``;
        under A it is ``pre_all``, and a left-total structure keeps A's
        nodes downward closed.  An atom holds on the members whose one row
        it accepts.  Splits and atoms read it on first use, so a check
        without them never builds it."""
        full = self.full
        alone: list[int | None] = []
        for node, kind in enumerate(self.kinds):
            kids = [alone[a] for a in self.args[node]]
            fails = self.fails[node]
            if not self.dc[node]:
                mask = None
            elif fails is not None:
                mask = full ^ fails
            elif kind is And:
                mask = kids[0] & kids[1]
            elif kind is Split or kind is BoolOr:
                mask = kids[0] | kids[1]
            elif kind is GenAtomApp:
                # Group the members by their row, one mask per distinct row.
                rows = {(): full}
                for m in kids:
                    rows = {
                        row + (b,): part for row, members in rows.items()
                        for b, part in ((True, members & m), (False, members & ~m)) if part
                    }
                accepts = self.formulas[node].atom.evaluator
                mask = sum(part for row, part in rows.items() if accepts([row]))
            elif kind in self.temporal:
                op, quantifier = self.temporal[kind]
                pre, dual = self.pre_some, self.pre_all
                if quantifier == "A":
                    pre, dual = dual, pre
                if op == "X":
                    mask = pre(kids[0])
                elif op == "U":
                    phi, psi = kids
                    mask = _least_fixpoint(psi, lambda z: phi & pre(z))
                else:
                    phi, psi = (full ^ kid for kid in kids)
                    mask = full ^ _least_fixpoint(psi, lambda z: phi & dual(z))
            else:
                self._unsupported(0, node)
            alone.append(mask)
        return alone

    # -- splits ------------------------------------------------------------

    # A part of a split takes some copies of each member unit (`units`),
    # and its complement in a team is the difference: a digit may exceed
    # 1.  Every mask the core builds holds all copies of a member or none,
    # and one copy holding a side alone does not let every copy join it.

    def _split(self, team: int, node: int) -> bool:
        return self.split(team, node) is not None

    def split(self, team: int, node: int) -> tuple[int, int] | None:
        """The parts of ``team`` satisfying the two sides of split node
        ``node``, left first, or None.  Disjoint parts if both sides are
        downward closed, a partition beside the one that is, and covers
        only where neither is."""
        left, right = self.args[node]
        if self.dc[node]:
            return self._split_disjoint(team, left, right)
        if self.dc[left]:
            return self._split_one_closed(team, left, right)
        if self.dc[right]:
            parts = self._split_one_closed(team, right, left)
            return parts and parts[::-1]
        return self._split_covers(team, left, right)

    def _check_cap(self, units: list[tuple[int, int]]) -> int:
        """Charge a split over the member units ``units`` against the cap
        (one member is always allowed), and return their copies."""
        members = sum(count for _, count in units)
        if members > 1 and members > self.max_team:
            raise ResourceCapError(
                f"split over {members} members exceeds the split cap {self.max_team}"
            )
        return members

    def _split_disjoint(self, team: int, left: int, right: int) -> tuple[int, int] | None:
        # Downward closure makes minimal assignments complete: a member that
        # can only live on one side must go there, and when one side is flat
        # the other side's part can be taken as small as possible.
        if self.fails[left] is not None:
            part = team & self.fails[left]
            return (team - part, part) if self.check(part, right) else None
        if self.fails[right] is not None:
            part = team & self.fails[right]
            return (part, team - part) if self.check(part, left) else None
        # A member can go on a side only if it satisfies that side alone.
        alone = self.alone
        can_left, can_right = team & alone[left], team & alone[right]
        if can_left | can_right != team:
            return None
        free = list(self.units(can_left & can_right))
        copies = self._check_cap(free)
        # It also makes maximal parts complete.  Beside a side decided by
        # one union whose masks all close (the left side if both are), the
        # largest parts of that side are team & ~F, for each of its masks F
        # that misses the members that must go on it, and the other side is
        # tried only on the complements team & F of the maximal ones: if it
        # holds beside some part, it holds on the smaller complement of a
        # maximal part above it.  They are tried in the order of the
        # enumeration below, which this skips.
        for side, other, can_other in ((left, right, can_right), (right, left, can_left)):
            unions = self.unions[side]
            closed = unions[0].force() if unions is not None and len(unions) == 1 else None
            if closed is not None:
                must = team & ~can_other
                for rest in _minimal([team & f for f in closed if not f & must]):
                    if self.check(rest, other):
                        return (team - rest, rest) if side == left else (rest, team - rest)
                return None
        base, both = team & ~can_right, can_left & can_right
        # Otherwise the right side is tried only on an enumerated left part
        # that no free member can join with the left side still true: if
        # the right side holds beside some part, the members added one by
        # one to make it maximal leave a smaller right part, which still
        # satisfies it.  Parts go from the largest down, so every part with
        # one more member has been checked already and is a memo hit.
        for size in range(copies, -1, -1):
            for added in _parts(free, size):
                part = base + added
                if (
                    self.check(part, left)
                    and not any(self.check(part + unit, left) for unit, _ in self.units(both - added))
                    and self.check(team - part, right)
                ):
                    return part, team - part
        return None

    def _split_one_closed(self, team: int, closed: int, other: int) -> tuple[int, int] | None:
        # The downward-closed side may shrink to the complement of the other
        # side's part, so partitions suffice.  A member on which it fails
        # alone can be on no part of it, so it goes on the other side.
        fails = self.fails[closed]
        must = team & (~self.alone[closed] if fails is None else fails)
        free = list(self.units(team - must))
        # The closed side is checked first: it is cheaper, and memoised.
        for size in range(self._check_cap(free) + 1):
            for extra in _parts(free, size):
                part = must + extra
                if self.check(team - part, closed) and self.check(part, other):
                    return team - part, part
        return None

    def _split_covers(self, team: int, left: int, right: int) -> tuple[int, int] | None:
        # subteams[x] takes n_j copies of member j, for n_j the mixed-radix
        # digits of x, the lowest first: on a set, the members set in x.
        members = list(self.units(team))
        self._check_cap(members)
        subteams = [0]
        for unit, count in members:
            subteams = [sub + n * unit for n in range(count + 1) for sub in subteams]
        # Bit x of ``covered``: some superset of subteams[x] satisfies the
        # right side.  Start from the subteams themselves, then close
        # upwards one copy at a time: for x with fewer than all copies of
        # member j, take the bit of x with one more, ``step`` places higher.
        covered = sum(1 << x for x, sub in enumerate(subteams) if self.check(sub, right))
        every, step = (1 << len(subteams)) - 1, 1
        for _, count in members:
            below = every // ((1 << step * (count + 1)) - 1) * ((1 << step * count) - 1)
            for _ in range(count):
                covered |= (covered >> step) & below
            step *= count + 1
        # A cover exists iff some left subteam's complement is covered; its
        # right part is the first superset of the complement, in index
        # order, that satisfies the right side.
        full = len(subteams) - 1
        for x, sub in enumerate(subteams):
            if covered >> (full - x) & 1 and self.check(sub, left):
                copies, digits = [], x
                for unit, count in members:
                    digits, n = divmod(digits, count + 1)
                    copies.append(range(0, n * unit + 1, unit))
                for extra in itertools.product(*copies[::-1]):
                    part = team - sub + sum(extra)
                    if self.check(part, right):
                        return sub, part
        return None

    # -- the successor-team graph -----------------------------------------

    # Derived from ``succ_ids`` on first use, as many checks step no team
    # and few take a pre-image: ``full``, the mask of every member,
    # ``succ[i]``, member i's successor mask (one shift where it has one
    # successor), and ``pre_some``, the members with a successor in a mask.

    @_derived
    def full(self) -> int:
        return (1 << self.width * len(self.succ_ids)) - 1

    @_derived
    def succ(self) -> list[int]:
        return [1 << vs[0] if len(vs) == 1 else sum(map((1).__lshift__, vs))
                for vs in self.succ_ids]

    @_derived
    def pre_some(self) -> Callable[[int], int]:
        return _pre_image(self.succ_ids, self.width)

    def pre_all(self, mask: int) -> int:
        """The members with no successor outside ``mask``: as each has one,
        those with only successors in it, ``pre_some`` where it is one."""
        return self.full ^ self.pre_some(self.full ^ mask)

    def successors(self, team: int) -> tuple[int, ...]:
        """The distinct successor teams of ``team``, stepped anew on each
        call; here the one successor, the image of ``team`` under
        ``succ``."""
        succ, image = self.succ, 0
        while team:
            low = team & -team
            image |= succ[low.bit_length() - 1]
            team ^= low
        return (image,)

    # -- temporal searches over the successor-team graph ------------------

    # Release is the dual of Until, so each search serves one of each:
    # with ``until`` false it is the Until search for ¬φ and ¬ψ, its
    # verdict negated.

    def _step(self, team: int, node: int) -> bool:
        """X φ: some successor team satisfies φ, or under A every one."""
        child = self.args[node][0]
        every = self.temporal[self.kinds[node]][1] == "A"
        for s in self.successors(team):
            if self.check(s, child) != every:
                return not every
        return every

    def _search(self, team: int, node: int) -> bool:
        """φ U ψ or φ R ψ: a depth-first search over the teams reached
        through φ teams, for a path that decides the node, its verdict
        ``found``.  E[φ U ψ] looks for a path of φ teams to a ψ team, and
        A[φ U ψ] for a path that never meets ψ: one to a team where φ and
        ψ fail, or a cycle, which a successor still on the search stack
        closes.  For Release read ¬φ and ¬ψ: A[φ R ψ] searches as E-Until
        and E[φ R ψ] as A-Until.  Where every team has one successor, E
        and A agree.

        Where a path is found, its verdict holds on every team of the
        search stack, the path itself; where none is, the other verdict
        holds on every team the search entered.  Both go to the memo,
        where the search also stops, so nested temporal nodes read each
        team a bounded number of times."""
        inv, tgt = self.args[node]
        op, quantifier = self.temporal[self.kinds[node]]
        until, found = op == "U", quantifier == "E"
        memo, check, successors = self.memo[node], self.check, self.successors
        seen: set[int] = set()
        # The search stack, in order: each team on it, with its successors
        # still to try.
        stack: dict[int, Iterator[int]] = {}
        pending: Iterator[int] = iter((team,))
        while True:
            for s in pending:
                verdict = memo.get(s)
                if verdict is None:
                    if s in stack:
                        verdict = not until
                    elif s in seen:
                        continue
                    elif check(s, tgt) == until:
                        verdict = until
                    elif check(s, inv) != until:
                        verdict = not until
                    else:
                        seen.add(s)
                        pending = stack[s] = iter(successors(s))
                        break
                if verdict == found:
                    for s in stack:
                        memo[s] = found
                    return found
            else:
                if len(stack) <= 1:
                    for s in seen:
                        memo[s] = not found
                    return not found
                stack.popitem()
                pending = stack[next(reversed(stack))]
