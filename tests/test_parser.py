import random

import pytest
from hypothesis import given, settings, strategies as st

from teamtl.formula import (
    AR,
    AU,
    AX,
    And,
    BoolOr,
    CNeg,
    ER,
    EU,
    EX,
    GenAtomApp,
    NegProp,
    Next,
    Prop,
    Release,
    Split,
    Until,
    bot,
    dependence_atom,
    inclusion_atom,
    top,
)
from teamtl.errors import ResourceCapError
from teamtl.eval_classical import (
    check_ctl_classical,
    check_ltl_classical,
    check_ltl_classical_extended,
)
from teamtl.eval_team_ctl import from_index_zero, mc_ctl, mc_ctl_bruteforce
from teamtl.eval_team_ltl import check_team
from teamtl.kripke import KripkeStructure, MultiTeam
from teamtl.qbf import QbfInstance, reduce_plsim_to_tpc, reduce_to_tmc_ctl
from teamtl.parser import MAX_DEPTH, ParseError, parse_ctl, parse_ltl, render
from teamtl.selftest import random_ctl_formula, random_ltl_formula
from teamtl.tmc_splitfree import check_model_splitfree
from teamtl.trace import LassoTrace, TeamEncoding

p, q, r = Prop("p"), Prop("q"), Prop("r")


class TestPrecedence:
    def test_and_binds_tighter_than_split(self):
        assert parse_ltl("p & q | r") == Split(And(p, q), r)

    def test_boolor_between_split_and_and(self):
        assert parse_ltl("p | q \\|/ r & s") == Split(p, BoolOr(q, And(r, Prop("s"))))

    def test_until_is_loosest_binary(self):
        assert parse_ltl("p & q U r") == Until(And(p, q), r)

    def test_until_right_associative(self):
        assert parse_ltl("p U q U r") == Until(p, Until(q, r))

    def test_release(self):
        assert parse_ltl("p R q") == Release(p, q)

    def test_cneg_is_greedy(self):
        assert parse_ltl("~p & q") == CNeg(And(p, q))
        assert parse_ltl("(~p) & q") == And(CNeg(p), q)
        assert parse_ltl("~p U q") == CNeg(Until(p, q))

    def test_unary_operators(self):
        assert parse_ltl("X p & q") == And(Next(p), q)
        assert parse_ltl("F p") == Until(top(), p)
        assert parse_ltl("G p") == Release(bot(), p)


class TestLiteralsAndAtoms:
    def test_negated_proposition(self):
        assert parse_ltl("!p") == NegProp("p")

    def test_negation_only_on_propositions(self):
        with pytest.raises(ParseError):
            parse_ltl("!(p & q)")

    def test_dep_atom(self):
        phi = parse_ltl("dep(p; q)")
        assert isinstance(phi, GenAtomApp)
        assert phi.atom.name == "dep" and phi.atom.sep == 1
        assert phi.params == (p, q)

    def test_dep_constancy_shorthand(self):
        phi = parse_ltl("dep(q)")
        assert phi.atom.sep == 0 and phi.params == (q,)

    def test_inc_atom(self):
        phi = parse_ltl("inc(p; q)")
        assert phi.atom.name == "inc" and phi.params == (p, q)
        with pytest.raises(ParseError):
            parse_ltl("inc(p; q, r)")

    def test_top_bot(self):
        assert parse_ltl("TOP") == top()
        assert parse_ltl("BOT") == bot()

    def test_comments_and_whitespace(self):
        assert parse_ltl("p &  # comment\n q") == And(p, q)


class TestCtlMode:
    def test_prefix_operators(self):
        assert parse_ctl("EX p") == EX(p)
        assert parse_ctl("EF p") == EU(top(), p)

    def test_bracketed_path(self):
        assert parse_ctl("E[p U q]") == EU(p, q)
        assert parse_ctl("A[p U q]") == AU(p, q)

    def test_bare_temporal_operator_rejected(self):
        with pytest.raises(ParseError):
            parse_ctl("F p")
        with pytest.raises(ParseError):
            parse_ctl("X p")

    def test_ltl_mode_rejects_ctl_operators(self):
        with pytest.raises(ParseError):
            parse_ltl("EX p")


class TestErrors:
    def test_error_carries_span(self):
        with pytest.raises(ParseError) as e:
            parse_ltl("p & )")
        assert e.value.span.start == 4

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_ltl("p q")

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as e:
            parse_ltl("p @ q")
        assert (e.value.span.start, e.value.span.end) == (2, 3)
        for text, offset in (("p & q @", 6), ("@", 0), ("p # note\n& q@", 12)):
            with pytest.raises(ParseError) as e:
                parse_ltl(text)
            assert (e.value.span.start, e.value.span.end) == (offset, offset + 1)


# Formulas of each nesting shape, n levels deep.
DEEP = {
    "prefix": lambda n: "X " * (n - 1) + "p",
    "brackets": lambda n: "(" * (n - 1) + "p" + ")" * (n - 1),
    "atoms": lambda n: "dep(" * (n - 1) + "p" + ")" * (n - 1),
    "chain": lambda n: " & ".join(["p"] * n),
    "until": lambda n: " U ".join(["p"] * n),
    "cneg": lambda n: "~" * (n - 1) + "p",
}


@pytest.mark.parametrize("shape", DEEP)
def test_nesting_is_bounded(shape):
    parse_ltl(DEEP[shape](MAX_DEPTH))
    for depth in (MAX_DEPTH + 1, 5000):
        with pytest.raises(ParseError, match="nested more than"):
            parse_ltl(DEEP[shape](depth))


def test_evaluators_run_at_the_depth_bound():
    trace = LassoTrace((), (frozenset({"p"}),))
    for text in ("X " * (MAX_DEPTH - 1) + "p", DEEP["until"](MAX_DEPTH)):
        phi = parse_ltl(text)
        assert check_team(TeamEncoding.of([trace]), phi)
        assert check_ltl_classical(trace, phi)
    k = KripkeStructure.of(["a", "b"], [("a", "a"), ("a", "b"), ("b", "a")], {"a": ["p"]})
    n = MAX_DEPTH - 1
    for text in ("EX " * n + "p", "E[p U " * n + "p" + "]" * n):
        phi = parse_ctl(text)
        assert mc_ctl(k, MultiTeam.of(["a", "b"]), phi) == \
            mc_ctl_bruteforce(k, MultiTeam.of(["a", "b"]), phi)
        assert check_ctl_classical(k, "a", phi)


def chain(operator, levels):
    """``operator`` applied to p until the tree has ``levels`` levels."""
    phi = Prop("p")
    for _ in range(levels - 1):
        phi = operator(phi)
    return phi


@pytest.mark.parametrize("levels", [MAX_DEPTH + 1, 1200])
def test_evaluators_bound_trees_built_in_code(levels):
    trace = LassoTrace((), (frozenset({"p"}),))
    team = TeamEncoding.of([trace])
    k = KripkeStructure.of(["a"], [("a", "a")], {"a": ["p"]}, initial="a")
    ltl, ctl = chain(Next, levels), chain(EX, levels)
    # The reduction, the rewrite and the splitfree check rebuild the tree
    # by recursion before they decide anything.
    for decide in (
        lambda: check_team(team, ltl),
        lambda: check_ltl_classical(trace, ltl),
        lambda: check_ltl_classical_extended(trace, ltl),
        lambda: check_model_splitfree(k, ltl),
        lambda: reduce_plsim_to_tpc(chain(CNeg, levels)),
        lambda: from_index_zero(ctl),
        lambda: mc_ctl(k, MultiTeam.of(["a"]), ctl),
        lambda: mc_ctl_bruteforce(k, MultiTeam.of(["a"]), ctl),
        lambda: check_ctl_classical(k, "a", ctl),
    ):
        with pytest.raises(ResourceCapError, match="nested more than"):
            decide()
    assert check_team(team, chain(Next, MAX_DEPTH))
    assert mc_ctl_bruteforce(k, MultiTeam.of(["a"]), chain(EX, MAX_DEPTH))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32))
def test_ltl_round_trip(seed):
    rng = random.Random(seed)
    phi = random_ltl_formula(
        rng, rng.randint(0, 7),
        allow_cneg=True, allow_boolor=True, allow_atoms=True,
    )
    assert parse_ltl(render(phi)) == phi


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32))
def test_ctl_round_trip(seed):
    rng = random.Random(seed)
    phi = random_ctl_formula(
        rng, rng.randint(0, 7),
        allow_cneg=True, allow_boolor=True, allow_atoms=True,
    )
    assert parse_ctl(render(phi)) == phi


def _tmc_ctl_goal():
    clause = (("x", True), ("y", False), ("x", False))
    return reduce_to_tmc_ctl(QbfInstance(("e", "a"), ("x", "y"), (clause,)))[2]


# Text pinned literally, so that a change to how any operator is written
# shows here and not only as a change to the benchmark's formula pools.
RENDERED_LTL = [
    (Until(top(), p), "F p"),
    (Release(bot(), p), "G p"),
    (Next(p), "X p"),
    (Until(bot(), p), "BOT U p"),
    (Release(top(), p), "TOP R p"),
    (Until(top(), And(p, q)), "F (p & q)"),
    (Release(p, Until(q, r)), "p R q U r"),
    (Until(Until(p, q), r), "(p U q) U r"),
    (And(Split(p, q), BoolOr(p, NegProp("q"))), "(p | q) & (p \\|/ !q)"),
    (Split(CNeg(p), q), "(~p) | q"),
    (Split(p, CNeg(q)), "p | ~q"),
    (CNeg(Until(p, q)), "~p U q"),
    (And(Next(CNeg(p)), q), "X (~p) & q"),
    (Next(Until(top(), CNeg(p))), "X F ~p"),
    (GenAtomApp(dependence_atom(1, 1), (p, q)), "dep(p; q)"),
    (GenAtomApp(dependence_atom(0, 1), (Next(p),)), "dep(X p)"),
    (GenAtomApp(inclusion_atom(2), (p, q, Until(top(), r), NegProp("p"))),
     "inc(p, q; F r, !p)"),
    (Split(GenAtomApp(dependence_atom(1, 1), (p, q)), CNeg(top())), "dep(p; q) | ~TOP"),
]
RENDERED_CTL = [
    (EX(p), "EX p"),
    (AX(p), "AX p"),
    (EU(top(), p), "EF p"),
    (AU(top(), p), "AF p"),
    (ER(bot(), p), "EG p"),
    (AR(bot(), p), "AG p"),
    (EU(p, q), "E[p U q]"),
    (AU(p, q), "A[p U q]"),
    (ER(p, q), "E[p R q]"),
    (AR(p, q), "A[p R q]"),
    (ER(top(), p), "E[TOP R p]"),
    (EU(CNeg(p), CNeg(q)), "E[~p U ~q]"),
    (And(CNeg(EX(p)), q), "(~EX p) & q"),
    (BoolOr(AR(bot(), Split(p, q)), AX(CNeg(q))), "AG (p | q) \\|/ AX ~q"),
    (GenAtomApp(inclusion_atom(1), (p, And(q, r))), "inc(p; q & r)"),
    (_tmc_ctl_goal(), "EX AX AX EX (EF x & EF y)"),
]


@pytest.mark.parametrize("phi,text", RENDERED_LTL, ids=[t for _, t in RENDERED_LTL])
def test_render_ltl_text_is_pinned(phi, text):
    assert render(phi) == text
    assert parse_ltl(text) == phi


@pytest.mark.parametrize("phi,text", RENDERED_CTL, ids=[t for _, t in RENDERED_CTL])
def test_render_ctl_text_is_pinned(phi, text):
    assert render(phi) == text
    assert parse_ctl(text) == phi
