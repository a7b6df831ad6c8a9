"""Splitjunction-free team model checking over Kripke structures.

A splitfree formula cannot distinguish which traces of the structure carry
which labels beyond unanimity, so the whole (possibly infinite) trace team
collapses to a single "flattened" lasso trace over an extended alphabet:
position i carries p when every world reachable in exactly i steps is
labeled p, and the companion proposition for "no world labeled p".  Team
satisfaction then reduces to classical path checking of the rewritten
formula on that one trace.

The successor-set sequence is stepped over world bitmasks: each world is
a bit, with one successor mask per world and one label mask per
proposition, so a step ORs the successor masks of the current set and a
unanimity label is one mask test.  The sequence must repeat within 2^|W|
steps.  Model checking steps it on demand, only as far as the classical
walk reads positions, so a formula decided at position 0 costs one step
however long the sequence is; ``flatten`` steps it to the repeat.  The
cap ``max_subsets`` counts the subsets actually stepped.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    GenAtomPresent,
    ResourceCapError,
    SplitjunctionPresent,
)
from .eval_classical import check_ltl_classical_extended
from .formula import (
    And,
    BoolOr,
    CNeg,
    DEFAULT_MAX_SUBSETS,
    Formula,
    GenAtomApp,
    NegProp,
    Next,
    Prop,
    Release,
    Split,
    Until,
    check_depth,
    iter_nodes,
    map_literals,
    propositions,
    require_nodes,
    top,
)
from .kripke import KripkeStructure
from .trace import LassoTrace


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


class _SubsetSequence:
    """The successor-set sequence of a structure, stepped on demand.

    Position i is the set of worlds reachable from the initial world in
    exactly i steps, a world bitmask; ``labels[i]`` is its unanimity label,
    computed once, when the position is stepped.  The first repeated
    subset fixes ``stem`` and ``period`` (0 until then), after which
    ``reduce`` is plain arithmetic.  ``at`` and ``reduce`` are the
    position reads of the classical LTL evaluator, so a check steps only
    as far as its walk reads; ``max_subsets`` caps the subsets stepped.
    """

    def __init__(
        self, k: KripkeStructure, props: frozenset[str], max_subsets: int
    ):
        if max_subsets < 1:
            raise ValueError(f"max_subsets must be at least 1, not {max_subsets}")
        if k.initial is None:
            raise ValueError("flattening requires an initial world")
        bits = [1 << i for i in range(len(k.worlds))]
        self.succ = [sum(map(bits.__getitem__, ids)) for ids in k.succ_ids]
        self.labelled = []
        for p in sorted(props):
            mask = sum(1 << k.index[w] for w, ps in k.labels.items() if p in ps)
            self.labelled.append((p, negative_prop(p), mask))
        self.max_subsets = max_subsets
        self.stem = self.period = 0
        self.positions: dict[int, int] = {}
        self.labels: list[frozenset[str]] = []
        self.at = self.labels.__getitem__
        self.pending = 1 << k.index[k.initial]

    def step(self, n: int):
        """Step until position ``n`` is stepped or a subset repeats, then
        label the new positions.  Each subset's image is taken when the
        subset is stepped, so the repeat is known as soon as the last new
        subset is."""
        if self.period:
            return
        labels, positions, succ = self.labels, self.positions, self.succ
        cap, stepped, new = self.max_subsets, len(labels), []
        subset = self.pending
        while stepped <= n:
            if stepped >= cap:
                raise ResourceCapError(
                    f"successor-set sequence exceeded {cap} subsets"
                )
            positions[subset] = stepped
            new.append(subset)
            stepped += 1
            image, rest = 0, subset
            while rest:
                low = rest & -rest
                image |= succ[low.bit_length() - 1]
                rest ^= low
            subset = image
            if image in positions:
                self.stem = positions[image]
                self.period = stepped - self.stem
                break
        self.pending = subset
        for subset in new:
            position = set()
            for p, not_p, mask in self.labelled:
                if not subset & ~mask:
                    position.add(p)
                if not subset & mask:
                    position.add(not_p)
            labels.append(frozenset(position))

    def reduce(self, i: int) -> int:
        """The stepped position whose suffix is the one at ``i``."""
        if i >= len(self.labels):
            self.step(i)
            if i >= len(self.labels):
                return self.stem + (i - self.stem) % self.period
        return i


def flatten(
    k: KripkeStructure,
    *,
    props: frozenset[str] | None = None,
    max_subsets: int = DEFAULT_MAX_SUBSETS,
) -> FlattenedTrace:
    """Step the successor sets from {initial} until a subset repeats and
    fold the sequence of unanimity labels into a lasso trace.

    ``props`` is the proposition universe to record; it defaults to the
    labels used by the structure but must cover the checked formula's
    propositions (a proposition absent everywhere is unanimously false,
    which the flattening has to represent explicitly).
    """
    sequence = _SubsetSequence(
        k, k.prop_universe if props is None else props, max_subsets
    )
    sequence.step(max_subsets)
    labels, stem = sequence.labels, sequence.stem
    return FlattenedTrace(
        trace=LassoTrace(tuple(labels[:stem]), tuple(labels[stem:])),
        stem=stem,
        period=sequence.period,
    )


# The ⊤ expansion over the reserved proposition is the only splitjunction
# admitted here: every team satisfies it, and its rewritten literals make
# a classical disjunction that holds at every flattened position.
_TOP = top()
_LTL_NODES = (Prop, NegProp, And, Split, BoolOr, CNeg, GenAtomApp, Next, Until, Release)


def _rewrite_literal(literal: Formula) -> Formula:
    """A negated proposition becomes its positive companion."""
    if isinstance(literal, NegProp):
        return Prop(negative_prop(literal.name))
    return literal


def check_model_splitfree(
    k: KripkeStructure,
    phi: Formula,
    *,
    max_subsets: int = DEFAULT_MAX_SUBSETS,
) -> bool:
    """Does the full trace team of the structure satisfy the splitfree
    formula?  CNeg and BoolOr are admitted (they commute with the
    single-trace reduction); splitjunctions, generalised atoms and CTL
    operators are not.  The flattened trace is stepped only as far as the
    classical check reads it, and ``max_subsets`` caps the subsets stepped.
    Raises `ResourceCapError` when ``phi`` is nested deeper than
    `formula.MAX_DEPTH`.
    """
    require_nodes(check_depth(phi), _LTL_NODES, "splitfree model checking")
    if any(isinstance(node, Split) and node != _TOP for node in iter_nodes(phi)):
        raise SplitjunctionPresent(
            "formula contains a splitjunction; use trace enumeration instead"
        )
    if any(isinstance(node, GenAtomApp) for node in iter_nodes(phi)):
        raise GenAtomPresent(
            "flattening keeps only unanimous-label information, which cannot "
            "evaluate generalised atoms"
        )
    sequence = _SubsetSequence(
        k, k.prop_universe | propositions(phi), max_subsets
    )
    return check_ltl_classical_extended(
        sequence, map_literals(phi, _rewrite_literal)
    )
