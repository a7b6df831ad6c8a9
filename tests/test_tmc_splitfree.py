import random

import pytest
from hypothesis import given, settings, strategies as st

from teamtl.errors import (
    GenAtomPresent,
    ResourceCapError,
    SplitjunctionPresent,
    UnsupportedNodeError,
)
from teamtl.eval_classical import check_ltl_classical_extended
from teamtl.eval_team_ltl import check_team
from teamtl.formula import iter_nodes
from teamtl.kripke import KripkeStructure, enumerate_traces
from teamtl.parser import parse_ctl, parse_ltl
from teamtl.selftest import cycle_fan, suite_splitfree
from teamtl.tmc_splitfree import (
    FlattenedTrace,
    _SubsetEval,
    check_model_splitfree,
    flatten,
    negative_prop,
)
from teamtl.trace import LassoTrace, trace_at


def diamond():
    """r branches to a (with p) and b (without); both loop forever."""
    return KripkeStructure.of(
        ["r", "a", "b"],
        [("r", "a"), ("r", "b"), ("a", "a"), ("b", "b")],
        {"a": ["p"]},
        initial="r",
    )


# 1 + lcm(7, 8, 9, 11) = 5545 subsets.
HORIZON = cycle_fan((7, 8, 9, 11), lambda w: ["p"])


class TestFlatten:
    def test_unanimity_labels(self):
        flat = flatten(diamond(), props={"p"})
        # Position 0: nobody has p.  Position 1 on: split verdict.
        assert trace_at(flat.trace, 0) == {negative_prop("p")}
        assert trace_at(flat.trace, 1) == set()

    def test_lassos_are_pinned(self):
        not_p, not_q = negative_prop("p"), negative_prop("q")
        lasso = LassoTrace.of([[not_p]], [[]])
        assert flatten(diamond(), props={"p"}) == FlattenedTrace(lasso, 1, 1)
        assert flatten(diamond()) == FlattenedTrace(lasso, 1, 1)
        assert flatten(diamond(), props={"p", "q"}) == FlattenedTrace(
            LassoTrace.of([[not_p, not_q]], [[not_q]]), 1, 1
        )
        # r -> s, then s into a 2-cycle and a 3-cycle.
        k = KripkeStructure.of(
            ["r", "s", "a0", "a1", "b0", "b1", "b2"],
            [("r", "s"), ("s", "a0"), ("s", "b0"), ("a0", "a1"), ("a1", "a0"),
             ("b0", "b1"), ("b1", "b2"), ("b2", "b0")],
            {"s": ["p"], "a0": ["p"], "b0": ["p"], "b1": ["p"]},
            initial="r",
        )
        assert flatten(k) == FlattenedTrace(
            LassoTrace.of([[not_p], ["p"]], [["p"], [], [], [], ["p"], [not_p]]), 2, 6
        )
        flat = flatten(HORIZON)
        assert (flat.stem, flat.period) == (1, 5544)

    def test_characteristic_bound(self):
        flat = flatten(diamond())
        assert flat.stem + flat.period <= 2 ** 3

    def test_subset_cap(self):
        with pytest.raises(ResourceCapError):
            flatten(diamond(), max_subsets=1)
        assert flatten(diamond(), max_subsets=2).period == 1

    @pytest.mark.parametrize("cap", [0, -5])
    def test_cap_below_one_is_rejected(self, cap):
        with pytest.raises(ValueError, match="max_subsets"):
            flatten(diamond(), max_subsets=cap)
        with pytest.raises(ValueError, match="max_subsets"):
            check_model_splitfree(diamond(), parse_ltl("p"), max_subsets=cap)


class TestOnDemand:
    """Model checking steps the successor-set sequence only as far as its
    searches reach, and the cap counts the steps taken: a subset that two
    searches step is charged twice."""

    def test_decided_at_position_0_under_a_small_cap(self):
        assert check_model_splitfree(HORIZON, parse_ltl("q U p"), max_subsets=4)

    def test_walk_over_the_whole_loop_meets_the_cap(self):
        # G p over a flat p is flat: one mask test, no subset stepped.
        assert check_model_splitfree(HORIZON, parse_ltl("BOT R p"), max_subsets=1)
        phi = parse_ltl("BOT R (p \\|/ p)")
        with pytest.raises(ResourceCapError):
            check_model_splitfree(HORIZON, phi, max_subsets=4)
        assert check_model_splitfree(HORIZON, phi)
        assert check_model_splitfree(HORIZON, phi, max_subsets=5545)
        with pytest.raises(ResourceCapError):
            check_model_splitfree(HORIZON, phi, max_subsets=5544)

    @pytest.mark.parametrize("text", ["G F (p \\|/ p)", "G (q \\|/ F (p \\|/ p))"])
    def test_nested_temporal_operators_are_linear(self, text, monkeypatch):
        # HORIZON's cycles with p at their heads only: p is unanimous once
        # per loop, so an inner F that starts afresh walks up to the whole
        # loop of 5544 subsets from each position of the outer G.
        k = cycle_fan((7, 8, 9, 11), lambda w: ["p"] if w.endswith("_0") else [])
        phi = parse_ltl(text)
        bound = 2 * 5545 * sum(1 for _ in iter_nodes(phi))
        calls = 0
        successors = _SubsetEval.successors

        def counted(self, team):
            nonlocal calls
            calls += 1
            assert calls <= bound
            return successors(self, team)

        monkeypatch.setattr(_SubsetEval, "successors", counted)
        assert check_model_splitfree(k, phi)
        assert calls >= 5545

    def test_cap_counts_every_step_of_nested_searches(self):
        # The outer G and the inner F each walk the loop of 5544 subsets,
        # and no step is kept for the other to reuse.
        k = cycle_fan((7, 8, 9, 11), lambda w: ["p"] if w.endswith("_0") else [])
        phi = parse_ltl("G F (p \\|/ p)")
        assert check_model_splitfree(k, phi, max_subsets=11089)
        with pytest.raises(ResourceCapError):
            check_model_splitfree(k, phi, max_subsets=11088)

    def test_walks_wrap_around_the_loop(self):
        # p only at the two cycle heads: unanimous at positions 1, 7, 13,
        # ..., so F p from position 2 on finds its witness only after the
        # walk passes the end of the loop (stem 1, period 6).
        k = cycle_fan((2, 3), lambda w: ["p"] if w.endswith("_0") else [])
        team = enumerate_traces(k)
        assert check_model_splitfree(k, parse_ltl("G F p"))
        for text in ["G F p", "F G p", "G (F p & F !p)", "X X (!p U p)", "X (p R F !p)"]:
            phi = parse_ltl(text)
            assert check_model_splitfree(k, phi) == check_team(team, phi), text


class TestCheckModelSplitfree:
    def test_branching_globally_not_p(self):
        # One trace hits p, so the full trace team falsifies G !p, and
        # a trace avoids p, so it also falsifies F p.
        k = diamond()
        assert not check_model_splitfree(k, parse_ltl("G !p"))
        assert not check_model_splitfree(k, parse_ltl("F p"))
        # ⊘ needs the whole team on one side; position 1 is mixed.
        assert not check_model_splitfree(k, parse_ltl("X (p \\|/ !p)"))

    def test_all_p_strongly_connected(self):
        k = KripkeStructure.of(
            ["a", "b"], [("a", "b"), ("b", "a"), ("a", "a")],
            {"a": ["p"], "b": ["p"]},
            initial="a",
        )
        assert check_model_splitfree(k, parse_ltl("G p"))

    def test_formula_proposition_missing_from_labels(self):
        k = KripkeStructure.of(["a"], [("a", "a")], initial="a")
        assert check_model_splitfree(k, parse_ltl("G !p"))
        assert not check_model_splitfree(k, parse_ltl("F p"))

    def test_rejects_real_splitjunction(self):
        with pytest.raises(SplitjunctionPresent):
            check_model_splitfree(diamond(), parse_ltl("p | q"))

    def test_rejects_generalised_atoms(self):
        with pytest.raises(GenAtomPresent):
            check_model_splitfree(diamond(), parse_ltl("dep(p; q)"))

    def test_splitjunction_is_rejected_before_atoms(self):
        # A formula with both is rejected for its splitjunction; an atom
        # beside other LTL connectives is rejected as an atom.
        with pytest.raises(SplitjunctionPresent):
            check_model_splitfree(diamond(), parse_ltl("dep(p) | q"))
        with pytest.raises(GenAtomPresent):
            check_model_splitfree(diamond(), parse_ltl("dep(p) & X q"))

    @pytest.mark.parametrize("text, node", [("EX p", "EX"), ("E[p U q]", "EU")])
    def test_rejects_ctl_operators(self, text, node):
        with pytest.raises(UnsupportedNodeError, match=node):
            check_model_splitfree(diamond(), parse_ctl(text))

    def test_shorthand_top_is_admitted(self):
        assert check_model_splitfree(diamond(), parse_ltl("F TOP"))

    def test_deterministic_structure_reduces_to_one_trace(self):
        k = KripkeStructure.of(
            ["a", "b"], [("a", "b"), ("b", "a")], {"a": ["p"]}, initial="a"
        )
        (trace,) = enumerate_traces(k)
        for text in ["G (p \\|/ X p)", "~F p", "p U !p", "G F p"]:
            phi = parse_ltl(text)
            assert check_model_splitfree(k, phi) == \
                check_ltl_classical_extended(trace, phi)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32))
def test_agrees_with_trace_enumeration(seed):
    assert not suite_splitfree(random.Random(seed), 1).mismatches
