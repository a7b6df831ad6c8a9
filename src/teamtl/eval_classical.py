"""Classical (single-trace / single-world) semantics.

LTL on lasso traces evaluates positions directly; since the suffix
structure of a lasso repeats with its loop length, temporal searches walk
positions until a reduced position repeats, which bounds every witness by
|prefix| + |loop| steps from the current offset.  Every position a walk
passes gets the walk's verdict, so nested temporal operators stay linear
in |prefix| + |loop|.

CTL on pointed Kripke structures uses bottom-up subformula labeling with
the standard fixpoint computations.
"""

from __future__ import annotations

from .errors import UnsupportedNodeError
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
    NegProp,
    Next,
    PURE_LTL,
    Prop,
    Release,
    Split,
    Until,
    check_depth,
    require_nodes,
)
from .kripke import KripkeStructure
from .trace import LassoTrace


def prop_sat(labels: frozenset[str], phi: Formula) -> bool:
    """Propositional satisfaction against a single proposition set.

    Split and BoolOr both act as classical disjunction here.
    """
    if isinstance(phi, Prop):
        return phi.name in labels
    if isinstance(phi, NegProp):
        return phi.name not in labels
    if isinstance(phi, And):
        return prop_sat(labels, phi.left) and prop_sat(labels, phi.right)
    if isinstance(phi, (Split, BoolOr)):
        return prop_sat(labels, phi.left) or prop_sat(labels, phi.right)
    raise UnsupportedNodeError(
        f"node {type(phi).__name__} is not propositional"
    )


# ---------------------------------------------------------------------------
# LTL on lasso traces


_PURE_CTL = (Prop, NegProp, And, Split, EX, AX, EU, AU, ER, AR)


class _LassoEval:
    """Positionwise evaluation on one ultimately periodic trace, with
    memoization over (reduced position, subformula).

    Positions are read through ``t.at(i)``, the label set at a reduced
    position, and ``t.reduce(i)``, the position with the same suffix
    among the first |prefix| + |loop|, which the `LassoTrace` answers by
    prefix/loop arithmetic.  ``~`` reads as negation and ``\\|/`` as
    disjunction, which is their meaning on one trace;
    `check_ltl_classical` admits neither.
    """

    def __init__(self, t: LassoTrace):
        self.at = t.at
        self.reduce = t.reduce
        self.memo: dict[tuple[int, int], bool] = {}

    def eval(self, i: int, phi: Formula) -> bool:
        i = self.reduce(i)
        key = (i, id(phi))
        verdict = self.memo.get(key)
        if verdict is None:
            verdict = self.memo[key] = self._eval(i, phi)
        return verdict

    def _eval(self, i: int, phi: Formula) -> bool:
        if isinstance(phi, Prop):
            return phi.name in self.at(i)
        if isinstance(phi, NegProp):
            return phi.name not in self.at(i)
        if isinstance(phi, And):
            return self.eval(i, phi.left) and self.eval(i, phi.right)
        if isinstance(phi, (Split, BoolOr)):
            return self.eval(i, phi.left) or self.eval(i, phi.right)
        if isinstance(phi, Next):
            return self.eval(i + 1, phi.child)
        if isinstance(phi, (Until, Release)):
            return self._walk(i, phi, isinstance(phi, Until))
        if isinstance(phi, CNeg):
            return not self.eval(i, phi.child)
        raise UnsupportedNodeError(
            f"classical LTL evaluation does not support {type(phi).__name__}"
        )

    def _walk(self, i: int, phi: Until | Release, until: bool) -> bool:
        """Until / Release from position ``i`` on.

        The walk goes on only while the expansion law U = ψ ∨ (φ ∧ X U),
        or R = ψ ∧ (φ ∨ X R), leaves the verdict equal to the next
        position's, so every position walked gets the verdict it ends
        with, and a later walk stops where an earlier one passed.  A
        repeated position means the loop came round without a witness.
        """
        key = id(phi)
        walked = set()
        while True:
            verdict = self.memo.get((i, key))
            if verdict is not None:
                break
            if i in walked:
                verdict = not until
                break
            walked.add(i)
            # Until ends true where ψ holds and false where φ fails;
            # Release ends false where ψ fails and true where φ holds.
            if self.eval(i, phi.right) == until:
                verdict = until
                break
            if self.eval(i, phi.left) != until:
                verdict = not until
                break
            i = self.reduce(i + 1)
        for position in walked:
            self.memo[(position, key)] = verdict
        return verdict


def check_ltl_classical(t: LassoTrace, phi: Formula) -> bool:
    """Classical satisfaction of a pure-grammar LTL formula on one trace."""
    require_nodes(check_depth(phi), PURE_LTL, "classical LTL evaluation")
    return _LassoEval(t).eval(0, phi)


def check_ltl_classical_extended(t: LassoTrace, phi: Formula) -> bool:
    """Classical evaluation admitting CNeg (as negation) and BoolOr (as
    disjunction): on the trace of `tmc_splitfree.flatten`, the paper's
    reference for splitfree model checking."""
    return _LassoEval(t).eval(0, check_depth(phi))


# ---------------------------------------------------------------------------
# CTL on pointed Kripke structures


def _ctl_sat_sets(k: KripkeStructure, phi: Formula) -> dict[int, frozenset[str]]:
    worlds = frozenset(k.worlds)
    table: dict[int, frozenset[str]] = {}

    def sat(node: Formula) -> frozenset[str]:
        cached = table.get(id(node))
        if cached is not None:
            return cached
        if isinstance(node, Prop):
            result = frozenset(w for w in worlds if node.name in k.label(w))
        elif isinstance(node, NegProp):
            result = frozenset(w for w in worlds if node.name not in k.label(w))
        elif isinstance(node, And):
            result = sat(node.left) & sat(node.right)
        elif isinstance(node, Split):
            result = sat(node.left) | sat(node.right)
        elif isinstance(node, (EX, AX)):
            child = sat(node.child)
            every = all if isinstance(node, AX) else any
            result = frozenset(w for w in worlds if every(s in child for s in k.succ[w]))
        elif isinstance(node, (EU, AU)):
            left, result = sat(node.left), sat(node.right)
            every = all if isinstance(node, AU) else any
            while True:
                grow = frozenset(
                    w for w in left - result if every(s in result for s in k.succ[w])
                )
                if not grow:
                    break
                result |= grow
        else:
            # ER or AR: check_ctl_classical admits no other node.
            left, result = sat(node.left), sat(node.right)
            every = all if isinstance(node, AR) else any
            while True:
                keep = frozenset(
                    w for w in result if w in left or every(s in result for s in k.succ[w])
                )
                if keep == result:
                    break
                result = keep
        table[id(node)] = result
        return result

    sat(phi)
    return table


def check_ctl_classical(k: KripkeStructure, w: str, phi: Formula) -> bool:
    """Standard CTL satisfaction at one world, by bottom-up labeling.
    Raises ResourceCapError when ``phi`` is nested deeper than
    `formula.MAX_DEPTH`."""
    if w not in k.worlds:
        raise ValueError(f"{w!r} is not a world of the structure")
    require_nodes(check_depth(phi), _PURE_CTL, "classical CTL evaluation")
    return w in _ctl_sat_sets(k, phi)[id(phi)]
