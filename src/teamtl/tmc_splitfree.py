"""Splitjunction-free team model checking over Kripke structures.

A splitfree formula cannot distinguish which traces of the structure carry
which labels beyond unanimity, so the whole (possibly infinite) trace team
collapses to a single "flattened" lasso trace over an extended alphabet:
position i carries p when every world reachable in exactly i steps is
labeled p, and the companion proposition for "no world labeled p".  Team
satisfaction then reduces to classical path checking of the rewritten
formula on that one trace.

The successor-set sequence is built over world bitmasks: each world is a
bit, with one successor mask per world and one label mask per
proposition, so a step ORs the successor masks of the current set and a
unanimity label is one mask test.  The sequence must repeat within 2^|W|
steps, guarded by a configurable cap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import GenAtomPresent, ResourceCapError, SplitjunctionPresent
from .eval_classical import check_ltl_classical_extended
from .formula import (
    And,
    BoolOr,
    CNeg,
    Formula,
    GenAtomApp,
    NegProp,
    Next,
    Prop,
    RESERVED_TAUT_PROP,
    Release,
    Split,
    Until,
    classify,
    propositions,
)
from .kripke import KripkeStructure
from .trace import LassoTrace

DEFAULT_MAX_SUBSETS = 2**20


def negative_prop(p: str) -> str:
    """Name of the companion proposition recording "no world labeled p"."""
    return f"!{p}"


@dataclass(frozen=True)
class FlattenedTrace:
    """The flattening of a structure: one lasso trace over the extended
    alphabet plus the characteristic (stem, period) of the underlying
    successor-set sequence; stem + period <= 2^|W|."""

    trace: LassoTrace
    stem: int
    period: int


def flatten(
    k: KripkeStructure,
    *,
    props: frozenset[str] | None = None,
    max_subsets: int = DEFAULT_MAX_SUBSETS,
) -> FlattenedTrace:
    """Iterate successor sets from {initial} until a subset repeats and
    fold the sequence of unanimity labels into a lasso trace.

    ``props`` is the proposition universe to record; it defaults to the
    labels used by the structure but must cover the checked formula's
    propositions (a proposition absent everywhere is unanimously false,
    which the flattening has to represent explicitly).
    """
    if k.initial is None:
        raise ValueError("flattening requires an initial world")
    # Edge endpoints get bits too, declared or not, as the edge relation
    # reaches them.
    worlds = list(dict.fromkeys([*k.worlds, k.initial, *itertools.chain(*k.edges)]))
    index = {w: i for i, w in enumerate(worlds)}
    succ = [0] * len(worlds)
    for a, b in k.edges:
        succ[index[a]] |= 1 << index[b]
    labelled = []
    for p in sorted(k.prop_universe if props is None else props):
        mask = sum(1 << i for i, w in enumerate(worlds) if p in k.label(w))
        labelled.append((p, negative_prop(p), mask))
    seen: dict[int, int] = {}
    current = 1 << index[k.initial]
    while current not in seen:
        if len(seen) >= max_subsets:
            raise ResourceCapError(
                f"successor-set sequence exceeded {max_subsets} subsets"
            )
        seen[current] = len(seen)
        image, rest = 0, current
        while rest:
            low = rest & -rest
            image |= succ[low.bit_length() - 1]
            rest ^= low
        current = image
    stem = seen[current]
    labels = []
    for subset in seen:
        position = set()
        for p, not_p, mask in labelled:
            if not subset & ~mask:
                position.add(p)
            if not subset & mask:
                position.add(not_p)
        labels.append(frozenset(position))
    return FlattenedTrace(
        trace=LassoTrace(tuple(labels[:stem]), tuple(labels[stem:])),
        stem=stem,
        period=len(seen) - stem,
    )


def _is_taut_pattern(phi: Formula) -> bool:
    """The ⊤ expansion over the reserved proposition: the only
    splitjunction shape admitted here, since it is satisfied by every team
    and classically true on the flattened trace."""
    return (
        isinstance(phi, Split)
        and phi.left == Prop(RESERVED_TAUT_PROP)
        and phi.right == NegProp(RESERVED_TAUT_PROP)
    )


def _has_real_split(phi: Formula) -> bool:
    if _is_taut_pattern(phi):
        return False
    if isinstance(phi, (Prop, NegProp)):
        return False
    if isinstance(phi, Split):
        return True
    if isinstance(phi, (CNeg, Next)):
        return _has_real_split(phi.child)
    if isinstance(phi, GenAtomApp):
        return any(_has_real_split(param) for param in phi.params)
    return _has_real_split(phi.left) or _has_real_split(phi.right)


def _rewrite_negations(phi: Formula) -> Formula:
    """Replace every negated proposition by its positive companion."""
    if isinstance(phi, Prop):
        return phi
    if isinstance(phi, NegProp):
        return Prop(negative_prop(phi.name))
    if isinstance(phi, Split):
        # Only the ⊤ pattern reaches this point; classical disjunction of
        # the rewritten literals is true at every flattened position.
        return Split(_rewrite_negations(phi.left), _rewrite_negations(phi.right))
    if isinstance(phi, And):
        return And(_rewrite_negations(phi.left), _rewrite_negations(phi.right))
    if isinstance(phi, BoolOr):
        return BoolOr(_rewrite_negations(phi.left), _rewrite_negations(phi.right))
    if isinstance(phi, CNeg):
        return CNeg(_rewrite_negations(phi.child))
    if isinstance(phi, Next):
        return Next(_rewrite_negations(phi.child))
    if isinstance(phi, Until):
        return Until(_rewrite_negations(phi.left), _rewrite_negations(phi.right))
    if isinstance(phi, Release):
        return Release(_rewrite_negations(phi.left), _rewrite_negations(phi.right))
    raise SplitjunctionPresent(
        f"splitfree model checking cannot rewrite {type(phi).__name__}"
    )


def check_model_splitfree(
    k: KripkeStructure,
    phi: Formula,
    *,
    max_subsets: int = DEFAULT_MAX_SUBSETS,
) -> bool:
    """Does the full trace team of the structure satisfy the splitfree
    formula?  CNeg and BoolOr are admitted (they commute with the
    single-trace reduction); splitjunctions and generalised atoms are not.
    """
    flags = classify(phi)
    if _has_real_split(phi):
        raise SplitjunctionPresent(
            "formula contains a splitjunction; use trace enumeration instead"
        )
    if flags.uses_genatoms:
        raise GenAtomPresent(
            "flattening keeps only unanimous-label information, which cannot "
            "evaluate generalised atoms"
        )
    universe = k.prop_universe | propositions(phi)
    flattened = flatten(k, props=universe, max_subsets=max_subsets)
    return check_ltl_classical_extended(flattened.trace, _rewrite_negations(phi))
