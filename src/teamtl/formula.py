"""Syntax trees for team-semantics LTL and CTL formulas.

Formulas are kept in negation normal form: ordinary negation occurs only
directly on propositions (`NegProp`), while the team-level contradictory
negation has its own node (`CNeg`).  `Split` is the team splitjunction (the
default disjunction of team semantics); `BoolOr` is the classical "whole
team satisfies one side" disjunction.

All node classes are frozen dataclasses, so formulas are immutable,
hashable, and compared structurally.  A connective with one subformula
derives from `Unary` (field ``child``), one with two from `Binary`
(``left``, ``right``); a generalised atom's subformulas are its
``params``.  `children`, `rebuild` and `iter_nodes` are the one
traversal API: structural walks elsewhere go through them (or through
`map_literals`, built on them) rather than reading those fields.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable

# Reserved proposition used by the TOP/BOT expansions; kept out of user
# formula namespaces by convention.
RESERVED_TAUT_PROP = "_taut"

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


@dataclass(frozen=True)
class And(Binary):
    pass


@dataclass(frozen=True)
class Split(Binary):
    """Team splitjunction: T = T1 ∪ T2 with T1 satisfying left, T2 right."""


@dataclass(frozen=True)
class BoolOr(Binary):
    """Boolean (classical) disjunction: the whole team satisfies a side."""


@dataclass(frozen=True)
class CNeg(Unary):
    """Contradictory negation: T satisfies ~φ iff T does not satisfy φ."""


@dataclass(frozen=True)
class GenAtomDef:
    """A generalised atom: a named decision procedure over the relational
    structure induced by a team.

    The evaluator receives one membership row per team member (multiplicity
    preserved for multiset teams): row[i] is the classical truth value of
    the i-th parameter on that member.  ``sep`` records where the parameter
    list splits for rendering (``dep(p;q)`` / ``inc(p;q)``).
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


@dataclass(frozen=True)
class Next(Unary):
    pass


@dataclass(frozen=True)
class Until(Binary):
    pass


@dataclass(frozen=True)
class Release(Binary):
    pass


# ---------------------------------------------------------------------------
# CTL temporal operators (every temporal operator carries a path quantifier)


@dataclass(frozen=True)
class EX(Unary):
    pass


@dataclass(frozen=True)
class AX(Unary):
    pass


@dataclass(frozen=True)
class EU(Binary):
    pass


@dataclass(frozen=True)
class AU(Binary):
    pass


@dataclass(frozen=True)
class ER(Binary):
    pass


@dataclass(frozen=True)
class AR(Binary):
    pass


_LTL_TEMPORAL = (Next, Until, Release)
_CTL_TEMPORAL = (EX, AX, EU, AU, ER, AR)


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


def expand_shorthand(name: str, args: list[Formula] | tuple[Formula, ...] = ()) -> Formula:
    """Expand TOP/BOT and the derived temporal operators.

    The LTL "always" shorthand expands via Release (G φ = ⊥ R φ), matching
    the CTL definition; see README for why the Until variant is rejected.
    """
    args = tuple(args)
    nullary = {"TOP": top, "BOT": bot}
    unary = {
        "F": lambda a: Until(top(), a),
        "G": lambda a: Release(bot(), a),
        "EF": lambda a: EU(top(), a),
        "EG": lambda a: ER(bot(), a),
        "AF": lambda a: AU(top(), a),
        "AG": lambda a: AR(bot(), a),
    }
    if name in nullary:
        if args:
            raise ValueError(f"shorthand {name} takes no arguments")
        return nullary[name]()
    if name in unary:
        if len(args) != 1:
            raise ValueError(f"shorthand {name} takes exactly one argument")
        return unary[name](args[0])
    raise ValueError(f"unknown shorthand name: {name}")


# ---------------------------------------------------------------------------
# Structural queries


@dataclass(frozen=True)
class FragmentFlags:
    uses_split: bool
    uses_cneg: bool
    uses_boolor: bool
    uses_genatoms: bool
    downward_closed_fragment: bool


@lru_cache(maxsize=None)
def classify(phi: Formula) -> FragmentFlags:
    """Flags used to pick evaluation strategies.

    downward_closed_fragment holds iff the formula has no contradictory
    negation and no generalised atom declared non-downward-closed.
    """
    split = cneg = boolor = genatoms = False
    non_dc_atom = False
    for node in iter_nodes(phi):
        if isinstance(node, Split):
            split = True
        elif isinstance(node, CNeg):
            cneg = True
        elif isinstance(node, BoolOr):
            boolor = True
        elif isinstance(node, GenAtomApp):
            genatoms = True
            if not node.atom.downward_closed:
                non_dc_atom = True
    return FragmentFlags(
        uses_split=split,
        uses_cneg=cneg,
        uses_boolor=boolor,
        uses_genatoms=genatoms,
        downward_closed_fragment=not cneg and not non_dc_atom,
    )


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


def is_temporal_free(phi: Formula) -> bool:
    return not any(
        isinstance(node, _LTL_TEMPORAL + _CTL_TEMPORAL) for node in iter_nodes(phi)
    )


def is_ltl(phi: Formula) -> bool:
    """True iff no CTL-only operator occurs (generalised-atom params included)."""
    return not any(isinstance(node, _CTL_TEMPORAL) for node in iter_nodes(phi))


def is_ctl(phi: Formula) -> bool:
    """True iff no bare LTL temporal operator occurs."""
    return not any(isinstance(node, _LTL_TEMPORAL) for node in iter_nodes(phi))
