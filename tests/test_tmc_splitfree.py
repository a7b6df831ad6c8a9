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
from teamtl.kripke import KripkeStructure, enumerate_traces
from teamtl.parser import parse_ctl, parse_ltl
from teamtl.selftest import suite_splitfree
from teamtl.tmc_splitfree import check_model_splitfree, flatten, negative_prop
from teamtl.trace import trace_at


def diamond():
    """r branches to a (with p) and b (without); both loop forever."""
    return KripkeStructure.of(
        ["r", "a", "b"],
        [("r", "a"), ("r", "b"), ("a", "a"), ("b", "b")],
        {"a": ["p"]},
        initial="r",
    )


class TestFlatten:
    def test_unanimity_labels(self):
        flat = flatten(diamond(), props={"p"})
        # Position 0: nobody has p.  Position 1 on: split verdict.
        assert trace_at(flat.trace, 0) == {negative_prop("p")}
        assert trace_at(flat.trace, 1) == set()

    def test_characteristic_bound(self):
        flat = flatten(diamond())
        assert flat.stem + flat.period <= 2 ** 3

    def test_subset_cap(self):
        with pytest.raises(ResourceCapError):
            flatten(diamond(), max_subsets=1)


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
