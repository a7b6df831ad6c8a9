import dataclasses
import random
import time
import typing

import pytest
from hypothesis import given, settings, strategies as st

from teamtl.errors import ResourceCapError, UnsupportedNodeError
from teamtl.eval_classical import check_ctl_classical, check_ltl_classical
from teamtl.eval_team_ctl import _CtlEval, mc_ctl
from teamtl.eval_team_ltl import _TeamEval, check_team
from teamtl.formula import (
    AR,
    AU,
    AX,
    EX,
    SHORTHANDS,
    And,
    BoolOr,
    Binary,
    CNeg,
    Compiled,
    ER,
    EU,
    Formula,
    GenAtomApp,
    GenAtomDef,
    NegProp,
    Next,
    Prop,
    Release,
    Split,
    Unary,
    Until,
    MAX_DEPTH,
    bot,
    check_depth,
    children,
    dependence_atom,
    expand_shorthand,
    formula_length,
    inclusion_atom,
    is_ctl,
    is_downward_closed,
    is_ltl,
    iter_nodes,
    map_literals,
    propositions,
    rebuild,
    top,
)
from teamtl.kripke import KripkeStructure, MultiTeam
from teamtl.tmc_splitfree import check_model_splitfree
from teamtl.selftest import random_ctl_formula, random_ltl_formula, suite_ltl_ctl_agreement
from teamtl.trace import LassoTrace, TeamEncoding

p, q, r = Prop("p"), Prop("q"), Prop("r")


def test_nodes_are_hashable_and_structural():
    assert And(p, q) == And(Prop("p"), Prop("q"))
    assert And(p, q) != And(q, p)
    assert len({Split(p, q), Split(p, q)}) == 1


CONNECTIVES = [And, Split, BoolOr, CNeg, Next, Until, Release, EX, AX, EU, AU, ER, AR]


@pytest.mark.parametrize("cls", CONNECTIVES, ids=lambda c: c.__name__)
def test_connectives_inherit_a_frozen_dataclass(cls):
    # A connective adds no field: it takes its fields, equality, hash and
    # repr from Unary or Binary, and equality still tells the classes apart.
    assert "__dataclass_fields__" not in vars(cls)
    base, kids, names = (Unary, (p,), ("child",)) if issubclass(cls, Unary) \
        else (Binary, (p, q), ("left", "right"))
    phi = cls(*kids)
    assert children(phi) == kids
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(phi, name, r)
    assert repr(phi).startswith(f"{cls.__name__}(")
    assert hash(phi) == hash(cls(*kids))
    assert all(phi != other(*kids) for other in CONNECTIVES
               if other is not cls and issubclass(other, base))


def test_shorthand_table():
    for name, (kind, constant) in SHORTHANDS.items():
        assert issubclass(kind, Binary)
        assert constant == (top() if name.endswith("F") else bot())
        assert expand_shorthand(name, [p]) == kind(constant, p)
    assert expand_shorthand("AG", [p]) == AR(bot(), p)


def test_shorthand_expansions():
    assert expand_shorthand("F", [p]) == Until(top(), p)
    assert expand_shorthand("G", [p]) == Release(bot(), p)
    assert expand_shorthand("EF", [p]) == EU(top(), p)
    assert expand_shorthand("AF", [p]) == AU(top(), p)
    assert expand_shorthand("EG", [p]) == ER(bot(), p)
    assert expand_shorthand("TOP") == top()
    with pytest.raises(ValueError):
        expand_shorthand("F")
    with pytest.raises(ValueError):
        expand_shorthand("nope", [p])


def test_downward_closed_fragment():
    dep = GenAtomApp(dependence_atom(1, 1), (p, q))
    inc = GenAtomApp(inclusion_atom(1), (p, q))
    assert is_downward_closed(And(dep, Split(p, q)))
    assert is_downward_closed(Split(p, BoolOr(q, r)))
    assert not is_downward_closed(inc)
    assert not is_downward_closed(CNeg(p))
    assert not is_downward_closed(Split(p, BoolOr(q, CNeg(r))))


def test_dependence_evaluator():
    ev = dependence_atom(1, 1).evaluator
    assert ev([(True, True), (False, False), (True, True)])
    assert not ev([(True, True), (True, False)])
    constancy = dependence_atom(0, 1).evaluator
    assert constancy([(True,), (True,)])
    assert not constancy([(True,), (False,)])


def test_inclusion_evaluator():
    ev = inclusion_atom(1).evaluator
    # every p-value occurs as a q-value somewhere
    assert ev([(True, False), (False, True)])
    assert not ev([(True, False), (False, False)])
    assert ev([])


def test_structural_queries():
    phi = Until(And(p, NegProp("q")), Next(r))
    assert formula_length(phi) == 3
    assert propositions(phi) == {"p", "q", "r"}
    assert is_ltl(phi) and not is_ctl(phi)
    assert is_ctl(EU(p, q)) and not is_ltl(EU(p, q))


def test_atom_length_counts_parameters():
    dep = GenAtomApp(dependence_atom(1, 1), (And(p, q), r))
    assert formula_length(dep) == 2


def _node_classes(cls=Formula):
    """The concrete node classes: the leaves of the Formula hierarchy."""
    for sub in cls.__subclasses__():
        if sub.__subclasses__():
            yield from _node_classes(sub)
        else:
            yield sub


def _instance(cls):
    """One node of ``cls`` with distinct propositions in its formula fields,
    and the subformulas it was given, in field order."""
    hints = typing.get_type_hints(cls)
    values, subformulas = [], []
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        if hint is str:
            values.append("p")
        elif hint is GenAtomDef:
            values.append(dependence_atom(1, 1))
        elif hint is Formula:
            subformulas.append(Prop(f"x{len(subformulas)}"))
            values.append(subformulas[-1])
        elif hint == tuple[Formula, ...]:
            params = (Prop(f"x{len(subformulas)}"), Prop(f"x{len(subformulas) + 1}"))
            subformulas += params
            values.append(params)
        else:
            pytest.fail(f"{cls.__name__}.{f.name}: no test value for {hint}")
    return cls(*values), tuple(subformulas)


@pytest.mark.parametrize("cls", list(_node_classes()), ids=lambda c: c.__name__)
def test_every_node_class_goes_through_children(cls):
    # A node class whose subformula fields children() does not know would
    # be invisible to every structural walk.
    phi, subformulas = _instance(cls)
    assert children(phi) == subformulas
    assert rebuild(phi, children(phi)) == phi
    replaced = tuple(Next(kid) for kid in subformulas)
    assert type(rebuild(phi, replaced)) is cls
    assert children(rebuild(phi, replaced)) == replaced
    assert set(subformulas) <= set(iter_nodes(phi))


@pytest.mark.parametrize("cls", list(_node_classes()), ids=lambda c: c.__name__)
def test_every_node_class_gets_a_verdict_or_a_clean_rejection(cls):
    # Both team evaluators dispatch on the node class: each must answer on
    # every class of its logic and reject the other logic's temporal
    # operators with UnsupportedNodeError, never with a lookup error.
    phi, _ = _instance(cls)
    team = TeamEncoding.of([LassoTrace((), (frozenset({"x0"}),))])
    k = KripkeStructure.of(["w"], [("w", "w")], {"w": ["x0"]})
    for decide, admitted in (
        (lambda: check_team(team, phi), is_ltl(phi)),
        (lambda: mc_ctl(k, MultiTeam.of(["w"]), phi), is_ctl(phi)),
    ):
        if admitted:
            assert isinstance(decide(), bool)
        else:
            with pytest.raises(UnsupportedNodeError):
                decide()


@settings(max_examples=1000, deadline=None)
@given(st.integers(0, 2**32))
def test_team_ltl_and_team_ctl_agree_on_propositional_formulas(seed):
    assert not suite_ltl_ctl_agreement(random.Random(seed), 1).mismatches


def test_map_literals_keeps_shared_subtrees_shared():
    shared = And(p, NegProp("q"))
    rewritten = map_literals(Split(shared, shared), lambda lit: Prop(lit.name + "'"))
    assert rewritten == Split(And(Prop("p'"), Prop("q'")), And(Prop("p'"), Prop("q'")))
    assert rewritten.left is rewritten.right


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.booleans())
def test_rebuild_round_trips_random_formulas(seed, ctl):
    rng = random.Random(seed)
    generate = random_ctl_formula if ctl else random_ltl_formula
    phi = generate(
        rng, rng.randint(0, 6), allow_cneg=True, allow_boolor=True, allow_atoms=True
    )
    assert all(rebuild(node, children(node)) == node for node in iter_nodes(phi))
    assert map_literals(phi, lambda lit: lit) == phi
    primed = map_literals(phi, lambda lit: type(lit)(lit.name + "'"))
    assert propositions(primed) == {name + "'" for name in propositions(phi)}
    assert formula_length(primed) == formula_length(phi)


def test_check_depth_visits_shared_subtrees_once():
    # As a tree this formula has 2^MAX_DEPTH - 1 nodes; shared, MAX_DEPTH.
    phi = p
    for _ in range(MAX_DEPTH - 1):
        phi = And(phi, phi)
    assert check_depth(phi) is phi
    with pytest.raises(ResourceCapError, match=f"nested more than {MAX_DEPTH} deep"):
        check_depth(And(phi, phi))


def test_compiling_bounds_shared_subtrees():
    # The evaluators that compile take no separate depth walk: compiling
    # visits each shared subtree once, and where it meets one again
    # further down, checks it by its height.
    inner = p
    for _ in range(MAX_DEPTH - 11):
        inner = And(inner, inner)

    def beside(levels):
        """``inner`` beside itself ``levels`` levels further down."""
        phi = inner
        for _ in range(levels):
            phi = Next(phi)
        return And(inner, phi)

    team = TeamEncoding.of([LassoTrace.of([], [["p"]])])
    k = KripkeStructure.of(["a"], [("a", "a")], {"a": ["p"]}, initial="a")
    # ``inner`` has MAX_DEPTH - 10 levels.
    assert check_team(team, beside(9))
    for decide in (
        lambda phi: check_team(team, phi),
        lambda phi: check_model_splitfree(k, phi),
        lambda phi: mc_ctl(k, MultiTeam.of(["a"]), phi),
    ):
        for phi in (beside(10), And(beside(9), beside(9))):
            with pytest.raises(ResourceCapError, match=f"nested more than {MAX_DEPTH} deep"):
                decide(phi)


def test_shared_subtrees_are_checked_once():
    # And(φ, φ) nested 41 deep has 2^41 leaves but 42 distinct subtrees:
    # the node-class checks visit each distinct subtree once, so the
    # entry points that walk the tree before they evaluate decide at once.
    phi = p
    for _ in range(41):
        phi = And(phi, phi)
    k = KripkeStructure.of(["a"], [("a", "a")], {"a": ["p"]}, initial="a")
    for decide in (
        lambda: check_model_splitfree(k, phi),
        lambda: check_ltl_classical(LassoTrace.of([], [["p"]]), phi),
        lambda: check_ctl_classical(k, "a", phi),
    ):
        started = time.process_time()
        assert decide()
        assert time.process_time() - started < 1


def test_temporal_rules_come_from_the_path_quantifier():
    # Neither evaluator writes a temporal rule: each declares its classes
    # by operator and quantifier, and the shared core picks the rule.
    trace = LassoTrace((), (frozenset({"p"}),))
    k = KripkeStructure.of(["a"], [("a", "a")], {"a": ["p"]})
    evaluators = (
        _TeamEval(TeamEncoding.of([trace]), p, 1),
        _CtlEval(k, 1),
    )
    step, search = Compiled._step, Compiled._search
    expected = {
        Next: step, Until: search, Release: search,
        EX: step, AX: step, EU: search, AR: search, AU: search, ER: search,
    }
    for ev in evaluators:
        assert {kind: ev.rule_of[kind] for kind in ev.temporal} == {
            kind: expected[kind] for kind in ev.temporal
        }
        assert {quantifier for _, quantifier in ev.temporal.values()} <= {"E", "A"}
        assert not {"_step", "_search"} & vars(type(ev)).keys()
