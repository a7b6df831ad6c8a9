"""Splitjunction-free team model checking over Kripke structures.

The full trace team of a structure, i steps on, is the team of every
path from S_i, the set of worlds reachable from the initial world in
exactly i steps.  A splitfree formula reads it only through unanimity
(p holds iff every world of S_i is labeled p, !p iff none is), and its
one successor team starts from S_i+1, the image of S_i.  So the check
runs on the shared core, `formula.Compiled`, with a team a world bitmask
whose one successor is its image.  A world steps to all of its
successors at once, so the temporal operators carry the A path
quantifier: X φ over a flat φ fails on the worlds with a successor that
fails φ, G ψ on those that reach a world failing ψ, and Until and
Release otherwise are the core's searches.  The subsets repeat within
2^|W| steps, so every search ends, and images are computed only as the
searches reach them, and again each time one does, as none is kept; the
cap ``max_subsets`` counts these steps.

``flatten`` is the paper's construction, the reference of the self-test:
the subsets stepped to their repeat and folded into one lasso trace,
where position i carries p when every world of S_i is labeled p, and
the companion proposition `negative_prop` of p when none is.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    GenAtomPresent,
    ResourceCapError,
    SplitjunctionPresent,
)
from .formula import (
    And,
    BoolOr,
    CNeg,
    Compiled,
    DEFAULT_MAX_SUBSETS,
    Formula,
    GenAtomApp,
    NegProp,
    Next,
    Prop,
    Release,
    Split,
    Until,
    _derived,
    prop_masks,
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


class _SubsetEval(Compiled):
    """One call's structure, over the shared formula core.

    A team is the mask of the worlds its paths start from, bit ``w`` for
    world ``k.worlds[w]``, and a flat node's ``fails`` mask holds the
    worlds falsifying it.  ``root`` is {initial}, and a team's one
    successor team is its image under the core's ``succ``, stepped on
    each call of `successors`, which allows at most ``max_subsets``
    steps per check.
    """

    logic = "splitfree model checking"
    # A world steps to all of its successors at once.
    temporal = {Next: ("X", "A"), Until: ("U", "A"), Release: ("R", "A")}
    # Only ⊤ is admitted, and ⊤ is flat.
    split = Compiled._unsupported
    # Atoms are rejected after compiling, with the formula's other checks.
    param_nodes = (Formula,)

    def __init__(self, k: KripkeStructure, max_subsets: int):
        if max_subsets < 1:
            raise ValueError(f"max_subsets must be at least 1, not {max_subsets}")
        if k.initial is None:
            raise ValueError("splitfree model checking requires an initial world")
        super().__init__()
        self.structure = k
        self.max_subsets = max_subsets
        self.steps = 0
        self.succ_ids = k.succ_ids
        self.root = 1 << k.index[k.initial]

    @_derived
    def prop_masks(self) -> dict[str, int]:
        labels, index = self.structure.labels, self.structure.index
        return prop_masks(zip(labels.values(), map((1).__lshift__, map(index.__getitem__, labels))))

    def successors(self, team: int) -> tuple[int]:
        """The one successor team, one step charged against ``max_subsets``."""
        if self.steps == self.max_subsets:
            raise ResourceCapError(
                f"successor-set sequence exceeded {self.max_subsets} steps"
            )
        self.steps += 1
        return super().successors(team)


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
    evaluator = _SubsetEval(k, max_subsets)
    masks, full = evaluator.prop_masks, evaluator.full
    literals = [
        (name, fails)
        for p in sorted(k.prop_universe if props is None else props)
        for name, fails in ((p, full ^ masks.get(p, 0)), (negative_prop(p), masks.get(p, 0)))
    ]
    positions: dict[int, int] = {}
    subset = evaluator.root
    while subset not in positions:
        positions[subset] = len(positions)
        (subset,) = evaluator.successors(subset)
    labels = [
        frozenset(name for name, fails in literals if not s & fails) for s in positions
    ]
    stem = positions[subset]
    return FlattenedTrace(
        trace=LassoTrace(tuple(labels[:stem]), tuple(labels[stem:])),
        stem=stem,
        period=len(labels) - stem,
    )


# The ⊤ expansion over the reserved proposition is the only splitjunction
# admitted here: every team satisfies it, and it is flat, with no world
# falsifying it.
_TOP = top()
_LTL_NODES = (Prop, NegProp, And, Split, BoolOr, CNeg, GenAtomApp, Next, Until, Release)


def check_model_splitfree(
    k: KripkeStructure,
    phi: Formula,
    *,
    max_subsets: int = DEFAULT_MAX_SUBSETS,
) -> bool:
    """Does the full trace team of the structure satisfy the splitfree
    formula?  CNeg and BoolOr are admitted; splitjunctions other than ⊤,
    generalised atoms and CTL operators are not.  The successor-set
    sequence is stepped only as far as the check's searches reach, and
    ``max_subsets`` caps the steps taken, a subset stepped again counting
    again.  Raises `ResourceCapError` when ``phi`` is nested deeper than
    `formula.MAX_DEPTH`.
    """
    evaluator = _SubsetEval(k, max_subsets)
    node = evaluator.compile(phi)
    require_nodes(phi, _LTL_NODES, "splitfree model checking")
    kinds = evaluator.kinds
    if any(kind is Split and sub != _TOP for kind, sub in zip(kinds, evaluator.formulas)):
        raise SplitjunctionPresent(
            "formula contains a splitjunction; use trace enumeration instead"
        )
    if GenAtomApp in kinds:
        raise GenAtomPresent(
            "flattening keeps only unanimous-label information, which cannot "
            "evaluate generalised atoms"
        )
    return evaluator.check(evaluator.root, node)
