import random

import pytest
from hypothesis import given, settings, strategies as st

from teamtl.errors import UnsupportedNodeError
from teamtl.eval_classical import (
    _LassoEval,
    check_ctl_classical,
    check_ltl_classical,
    check_ltl_classical_extended,
    prop_sat,
)
from teamtl.eval_team_ctl import mc_ctl
from teamtl.formula import (
    And,
    BoolOr,
    CNeg,
    EU,
    EX,
    Next,
    Prop,
    Release,
    Split,
    Until,
    iter_nodes,
)
from teamtl.kripke import KripkeStructure, MultiTeam
from teamtl.parser import parse_ctl, parse_ltl
from teamtl.selftest import random_kripke, random_ltl_formula, random_trace
from teamtl.trace import LassoTrace, suffix_trace

p, q = Prop("p"), Prop("q")


def test_prop_sat_treats_both_disjunctions_classically():
    labels = frozenset({"p"})
    assert prop_sat(labels, Split(p, q))
    assert prop_sat(labels, BoolOr(q, p))
    assert not prop_sat(labels, And(p, q))


class TestLtl:
    def test_next_and_until(self):
        t = LassoTrace.of([[], ["p"]], [["q"]])
        assert check_ltl_classical(t, Next(p))
        assert check_ltl_classical(t, parse_ltl("F q"))
        assert not check_ltl_classical(t, parse_ltl("G q"))
        assert check_ltl_classical(t, parse_ltl("X X G q"))

    def test_release_example(self):
        # q R p: p holds until (and including when) q releases it.
        t = LassoTrace.of([["p"], ["p", "q"]], [[]])
        assert check_ltl_classical(t, Release(q, p))
        t2 = LassoTrace.of([["p"], ["q"]], [[]])
        assert not check_ltl_classical(t2, Release(q, p))

    def test_rejects_team_connectives(self):
        t = LassoTrace.of([], [["p"]])
        with pytest.raises(UnsupportedNodeError):
            check_ltl_classical(t, CNeg(p))
        assert not check_ltl_classical_extended(t, CNeg(p))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32))
    def test_until_satisfies_its_expansion(self, seed):
        rng = random.Random(seed)
        t = random_trace(rng, max_prefix=3, max_loop=3)
        left = random_ltl_formula(rng, 2, allow_split=False)
        right = random_ltl_formula(rng, 2, allow_split=False)
        u = Until(left, right)
        expansion = check_ltl_classical(t, right) or (
            check_ltl_classical(t, left)
            and check_ltl_classical(suffix_trace(t, 1), u)
        )
        assert check_ltl_classical(t, u) == expansion

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32))
    def test_release_is_dual_of_until(self, seed):
        rng = random.Random(seed)
        t = random_trace(rng, max_prefix=3, max_loop=3)
        r = Release(p, q)
        expansion = check_ltl_classical(t, q) and (
            check_ltl_classical(t, p)
            or check_ltl_classical(suffix_trace(t, 1), r)
        )
        assert check_ltl_classical(t, r) == expansion

    @pytest.mark.parametrize(
        "text", ["G F (p & q)", "F G !q", "G (!p | F (q & X p))", "~G F (p & q)"]
    )
    def test_nested_temporal_operators_are_linear(self, text, monkeypatch):
        # p & q holds at one loop position only, so each inner walk that
        # starts afresh runs up to the whole loop.
        loop = [["p", "q"]] + [["p"] if i % 2 else [] for i in range(1, 300)]
        t = LassoTrace.of([[], ["q"], []], loop)
        phi = parse_ltl(text)
        calls = 0
        original = _LassoEval.eval

        def counted(self, i, node):
            nonlocal calls
            calls += 1
            return original(self, i, node)

        monkeypatch.setattr(_LassoEval, "eval", counted)
        check_ltl_classical_extended(t, phi)
        assert calls <= 2 * (3 + 300) * sum(1 for _ in iter_nodes(phi))


class TestCtl:
    def test_reachability(self):
        k = KripkeStructure.of(
            ["a", "b", "c"],
            [("a", "b"), ("a", "c"), ("b", "b"), ("c", "c")],
            {"b": ["p"]},
        )
        assert check_ctl_classical(k, "a", parse_ctl("EF p"))
        assert not check_ctl_classical(k, "a", parse_ctl("AF p"))
        assert check_ctl_classical(k, "a", EX(p))
        assert check_ctl_classical(k, "b", parse_ctl("AG p"))

    def test_until_and_release(self):
        k = KripkeStructure.of(
            ["a", "b"], [("a", "a"), ("a", "b"), ("b", "b")],
            {"a": ["p"], "b": ["q"]},
        )
        assert check_ctl_classical(k, "a", EU(p, q))
        assert check_ctl_classical(k, "a", parse_ctl("E[q R p]"))
        assert not check_ctl_classical(k, "a", parse_ctl("A[p U q]"))

    def test_rejects_ltl_operators(self):
        k = KripkeStructure.of(["a"], [("a", "a")])
        with pytest.raises(UnsupportedNodeError):
            check_ctl_classical(k, "a", Next(p))

    def test_multiset_lift_is_pointwise(self):
        k = KripkeStructure.of(
            ["a", "b"], [("a", "a"), ("b", "b")], {"a": ["p"]}
        )
        phi = parse_ctl("AG p")
        # A formula without ~, \|/ or atoms holds on a team iff it holds
        # classically at every member.
        for worlds, verdict in {("a", "a"): True, ("a", "b"): False, (): True}.items():
            assert mc_ctl(k, MultiTeam.of(worlds), phi) is verdict
            assert all(check_ctl_classical(k, w, phi) for w in worlds) is verdict

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32))
    def test_ex_matches_successor_quantification(self, seed):
        rng = random.Random(seed)
        k = random_kripke(rng)
        w = rng.choice(k.worlds)
        assert check_ctl_classical(k, w, EX(p)) == any(
            check_ctl_classical(k, v, p) for v in k.succ[w]
        )
