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


# One input per place that raises ParseError, with the message and the
# (start, end) span pinned as they were before the tokenizer kept offsets
# only for errors.
_TOO_DEEP = f"formula nested more than {MAX_DEPTH} deep"
_NEGATION = "negation `!` applies only to propositions (formulas are in negation normal form)"
ERROR_SPANS = [
    ("ltl", "p @ q", "unexpected character '@'", (2, 3)),
    ("ltl", "p # comment\n& @", "unexpected character '@'", (14, 15)),
    ("ltl", "p \\| q", "unexpected character '\\\\'", (2, 3)),
    ("ltl", "p & (q | r", "expected ')', found 'end of input'", (10, 10)),
    ("ctl", "E p", "expected '[', found 'p'", (2, 3)),
    ("ctl", "E[p U q", "expected ']', found 'end of input'", (7, 7)),
    ("ctl", "X p", "bare X without path quantifier", (0, 1)),
    ("ctl", "EX p U q", "bare U without path quantifier", (5, 6)),
    ("ltl", "!(p & q)", _NEGATION, (1, 2)),
    ("ltl", "p & !", _NEGATION, (5, 5)),
    ("ctl", "E[p & q]", "expected U or R inside path brackets", (7, 8)),
    ("ltl", "p & U", "unexpected keyword 'U'", (4, 5)),
    ("ltl", "p & )", "expected a formula, found ')'", (4, 5)),
    ("ltl", "", "expected a formula, found 'end of input'", (0, 0)),
    ("ltl", "p q", "unexpected 'q'", (2, 3)),
    ("ltl", "TOP(p)", "unexpected '('", (3, 4)),
    ("ltl", "dep(p;)", "expected a formula, found ')'", (6, 7)),
    ("ltl", "inc(p; q, r)", "inc needs two parameter lists of equal length", (0, 3)),
    ("ltl", DEEP["prefix"](MAX_DEPTH + 1), _TOO_DEEP, (2 * MAX_DEPTH, 2 * MAX_DEPTH + 1)),
    ("ltl", DEEP["brackets"](MAX_DEPTH + 1), _TOO_DEEP, (MAX_DEPTH, MAX_DEPTH + 1)),
    ("ltl", DEEP["atoms"](MAX_DEPTH + 1), _TOO_DEEP, (4 * MAX_DEPTH, 4 * MAX_DEPTH + 1)),
    ("ltl", DEEP["chain"](MAX_DEPTH + 1), _TOO_DEEP, (4 * MAX_DEPTH + 1, 4 * MAX_DEPTH + 1)),
    ("ltl", DEEP["cneg"](MAX_DEPTH + 1), _TOO_DEEP, (MAX_DEPTH + 1, MAX_DEPTH + 1)),
]


class TestErrors:
    def test_error_carries_span(self):
        for mode, text, message, span in ERROR_SPANS:
            with pytest.raises(ParseError) as e:
                (parse_ltl if mode == "ltl" else parse_ctl)(text)
            assert (mode, text, e.value.message) == (mode, text, message)
            assert (e.value.span.start, e.value.span.end) == span, (mode, text)

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


# Each recursive shape of tree the evaluators take, by the logics that
# admit it, ``levels`` levels deep.
LTL_SHAPES = {
    "next": lambda n: chain(Next, n),
    "until": lambda n: chain(lambda phi: Until(p, phi), n),
    "release": lambda n: chain(lambda phi: Release(phi, q), n),
    "and": lambda n: chain(lambda phi: And(phi, p), n),
    "split": lambda n: chain(lambda phi: Split(q, phi), n),
}
EXTENDED_SHAPES = {
    "cneg": lambda n: chain(CNeg, n),
    "boolor": lambda n: chain(lambda phi: BoolOr(phi, q), n),
}
CTL_SHAPES = {
    "ex": lambda n: chain(EX, n),
    "ax": lambda n: chain(AX, n),
    "eu": lambda n: chain(lambda phi: EU(p, phi), n),
    "ar": lambda n: chain(lambda phi: AR(q, phi), n),
    "and": lambda n: chain(lambda phi: And(phi, p), n),
}
# Splitfree model checking admits no splitjunction.
SPLITFREE_SHAPES = {
    name: shape
    for name, shape in {**LTL_SHAPES, **EXTENDED_SHAPES}.items()
    if name != "split"
}


def _entry_points():
    trace = LassoTrace((frozenset({"p"}),), (frozenset({"q"}), frozenset()))
    team = TeamEncoding.of([trace, LassoTrace((), (frozenset({"p", "q"}),))])
    k = KripkeStructure.of(
        ["a", "b"], [("a", "a"), ("a", "b"), ("b", "a")], {"a": ["p"], "b": ["q"]}, "a"
    )
    multiteam = MultiTeam.of(["a", "b"])
    return [
        ("check_team", lambda phi: check_team(team, phi), {**LTL_SHAPES, **EXTENDED_SHAPES}),
        ("check_ltl_classical", lambda phi: check_ltl_classical(trace, phi), LTL_SHAPES),
        ("check_ltl_classical_extended",
         lambda phi: check_ltl_classical_extended(trace, phi), SPLITFREE_SHAPES),
        ("check_model_splitfree", lambda phi: check_model_splitfree(k, phi), SPLITFREE_SHAPES),
        ("mc_ctl", lambda phi: mc_ctl(k, multiteam, phi), {**CTL_SHAPES, **EXTENDED_SHAPES}),
        ("check_ctl_classical", lambda phi: check_ctl_classical(k, "a", phi), CTL_SHAPES),
    ]


def _from_deep_caller(frames, call):
    """``call()`` run from a caller already ``frames`` frames deep."""
    return call() if frames == 0 else _from_deep_caller(frames - 1, call)


@pytest.mark.parametrize(
    "name,decide,shapes", _entry_points(), ids=[name for name, _, _ in _entry_points()]
)
def test_entry_points_decide_at_the_bound_from_a_deep_caller(name, decide, shapes):
    # At MAX_DEPTH an entry point decides, and one level past it, it
    # raises ResourceCapError; never RecursionError, even 100 frames down.
    assert MAX_DEPTH == 140
    for shape in shapes.values():
        phi = shape(MAX_DEPTH)
        assert _from_deep_caller(100, lambda: decide(phi)) in (True, False)
        too_deep = shape(MAX_DEPTH + 1)
        with pytest.raises(ResourceCapError, match="nested more than"):
            _from_deep_caller(100, lambda: decide(too_deep))


@pytest.mark.parametrize("mode", ["ltl", "ctl"])
def test_parser_and_render_at_the_bound_from_a_deep_caller(mode):
    parse = parse_ltl if mode == "ltl" else parse_ctl
    shapes = {**(LTL_SHAPES if mode == "ltl" else CTL_SHAPES), **EXTENDED_SHAPES}
    for shape in shapes.values():
        phi = shape(MAX_DEPTH)
        text = _from_deep_caller(100, lambda: render(phi))
        assert _from_deep_caller(100, lambda: parse(text)) == phi
        text = render(shape(MAX_DEPTH + 1))
        with pytest.raises(ParseError, match="nested more than"):
            _from_deep_caller(100, lambda: parse(text))
    texts = DEEP if mode == "ltl" else {
        "prefix": lambda n: "EX " * (n - 1) + "p",
        "path": lambda n: "E[p U " * (n - 1) + "p" + "]" * (n - 1),
        "brackets": DEEP["brackets"],
        "atoms": DEEP["atoms"],
    }
    for make in texts.values():
        _from_deep_caller(100, lambda: parse(make(MAX_DEPTH)))
        with pytest.raises(ParseError, match="nested more than"):
            _from_deep_caller(100, lambda: parse(make(MAX_DEPTH + 1)))


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
