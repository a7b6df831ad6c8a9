"""Seeded random instance generators and the differential self-test.

Every evaluator in the library has an independent counterpart (a naive
oracle, a brute-force enumeration, or a cross-construction); the self-test
draws random desk-scale instances and demands exact agreement, then checks
the pinned fixture verdicts.  A fixed seed reproduces the exact stream.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections import Counter
from dataclasses import dataclass, field

from . import fixtures
from .eval_classical import (
    check_ctl_classical,
    check_ltl_classical,
    check_ltl_classical_extended,
)
from .eval_team_ctl import CtlLimits, _CtlEval, from_index_zero, mc_ctl, mc_ctl_bruteforce
from .eval_team_ltl import _TeamEval, check_team, naive_oracle
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
    GenAtomApp,
    NegProp,
    Next,
    PURE_LTL,
    Prop,
    Release,
    Split,
    Unary,
    Until,
    bot,
    dependence_atom,
    expand_shorthand,
    inclusion_atom,
    is_downward_closed,
    iter_nodes,
    map_literals,
    propositions,
    top,
)
from .kripke import KripkeStructure, MultiTeam, enumerate_traces, is_successor_team
from .parser import parse_ctl, render
from .qbf import (
    QbfInstance,
    eval_qbf,
    pl_team_satisfiable_bruteforce,
    reduce_plsim_to_tpc,
    reduce_to_tmc_ctl,
    reduce_to_tpc,
)
from .tmc_splitfree import check_model_splitfree, flatten, negative_prop
from .trace import LassoTrace, TeamEncoding

# ---------------------------------------------------------------------------
# Generators


def random_trace(
    rng: random.Random,
    props=("p", "q"),
    max_prefix: int = 2,
    max_loop: int = 2,
) -> LassoTrace:
    def position():
        return frozenset(p for p in props if rng.random() < 0.4)

    prefix = tuple(position() for _ in range(rng.randint(0, max_prefix)))
    loop = tuple(position() for _ in range(rng.randint(1, max_loop)))
    return LassoTrace(prefix, loop)


def random_team(
    rng: random.Random,
    props=("p", "q"),
    max_traces: int = 3,
    max_prefix: int = 2,
    max_loop: int = 2,
) -> TeamEncoding:
    count = rng.randint(0, max_traces)
    return TeamEncoding.of(
        random_trace(rng, props, max_prefix, max_loop) for _ in range(count)
    )


def random_phase_team(rng: random.Random, max_traces: int = 6) -> TeamEncoding:
    """Three to ``max_traces`` traces, each a loop of 2, 3, 4 or 6
    positions behind an unlabelled prefix of up to 2, in which ``p`` holds
    at one position and ``q`` at one, each at a random phase.  Loops that
    reach ``p`` at different phases make the steps at which ``F p`` holds
    on a subteam incomparable, so a split beside it has several maximal
    parts."""
    traces = []
    for _ in range(rng.randint(3, max_traces)):
        n = rng.choice((2, 3, 4, 6))
        p_at, q_at = rng.randrange(n), rng.randrange(n)
        loop = tuple(
            frozenset(name for name, at in (("p", p_at), ("q", q_at)) if at == j)
            for j in range(n)
        )
        traces.append(LassoTrace((frozenset(),) * rng.randint(0, 2), loop))
    return TeamEncoding.of(traces)


def _random_literal(rng, props) -> Formula:
    name = rng.choice(props)
    return Prop(name) if rng.random() < 0.5 else NegProp(name)


def _random_atom(rng, props) -> Formula:
    atom = dependence_atom(rng.randint(0, 1), 1) if rng.random() < 0.5 else inclusion_atom(1)
    params = tuple(Prop(rng.choice(props)) for _ in range(atom.arity))
    return GenAtomApp(atom, params)


def _random_tree(rng: random.Random, budget: int, props, kinds: list) -> Formula:
    """A random formula with at most ``budget`` connectives, each node
    drawn from ``kinds``: node classes, ``"literal"`` and ``"atom"``."""
    if budget <= 0:
        return _random_literal(rng, props)
    kind = rng.choice(kinds)
    if kind == "literal":
        return _random_literal(rng, props)
    if kind == "atom":
        return _random_atom(rng, props)
    if issubclass(kind, Unary):
        return kind(_random_tree(rng, budget - 1, props, kinds))
    b1 = rng.randint(0, budget - 1)
    left = _random_tree(rng, b1, props, kinds)
    return kind(left, _random_tree(rng, budget - 1 - b1, props, kinds))


def random_ltl_formula(
    rng: random.Random,
    budget: int,
    props=("p", "q"),
    *,
    allow_split: bool = True,
    allow_cneg: bool = False,
    allow_boolor: bool = False,
    allow_atoms: bool = False,
) -> Formula:
    """A random NNF LTL formula with at most ``budget`` connectives."""
    kinds = [And, Next, Until, Release, "literal"] + [Split, Split] * allow_split
    kinds += [CNeg] * allow_cneg + [BoolOr] * allow_boolor + ["atom"] * allow_atoms
    return _random_tree(rng, budget, props, kinds)


def random_ctl_formula(
    rng: random.Random,
    budget: int,
    props=("p", "q"),
    *,
    allow_split: bool = True,
    allow_cneg: bool = False,
    allow_boolor: bool = False,
    allow_atoms: bool = False,
) -> Formula:
    """A random NNF CTL formula with at most ``budget`` connectives."""
    kinds = [And, EX, AX, EU, AU, ER, AR, "literal"] + [Split] * allow_split
    kinds += [CNeg] * allow_cneg + [BoolOr] * allow_boolor + ["atom"] * allow_atoms
    return _random_tree(rng, budget, props, kinds)


def random_flat_body(
    rng: random.Random, budget: int, props=("p", "q"), steps: tuple[type, ...] = (EX, AX)
) -> Formula:
    """A random formula over literals, ``TOP``, ``BOT``, ``|``, ``&`` and
    the one-step operators ``steps`` (``EX`` and ``AX``, or ``X`` for
    team LTL): on these, team satisfaction is pointwise."""
    if budget <= 0:
        if rng.random() < 0.2:
            return expand_shorthand(rng.choice(("TOP", "BOT")))
        return _random_literal(rng, props)
    kind = rng.choice(("split", "and", *steps))
    if kind in steps:
        return kind(random_flat_body(rng, budget - 1, props, steps))
    b1 = rng.randint(0, budget - 1)
    left = random_flat_body(rng, b1, props, steps)
    right = random_flat_body(rng, budget - 1 - b1, props, steps)
    return Split(left, right) if kind == "split" else And(left, right)


def random_flat_ctl_formula(rng: random.Random, budget: int, props=("p", "q")) -> Formula:
    """Either ``EG``/``AG`` ψ1 ``|`` ``EG``/``AG`` ψ2, which is pointwise, or
    one ``E``/``A[φ U/R ψ]`` over pointwise operands, which is not."""
    first, second = (random_flat_body(rng, budget, props) for _ in range(2))
    if rng.random() < 0.5:
        return Split(
            expand_shorthand(rng.choice(("EG", "AG")), [first]),
            expand_shorthand(rng.choice(("EG", "AG")), [second]),
        )
    return rng.choice((EU, AU, ER, AR))(first, second)


def random_kripke(
    rng: random.Random,
    max_worlds: int = 4,
    props=("p", "q"),
) -> KripkeStructure:
    n = rng.randint(1, max_worlds)
    worlds = [f"w{i}" for i in range(n)]
    edges = []
    for w in worlds:
        out = [v for v in worlds if rng.random() < 0.45]
        if not out:
            out = [rng.choice(worlds)]
        edges += [(w, v) for v in out]
    labels = {
        w: frozenset(p for p in props if rng.random() < 0.4) for w in worlds
    }
    return KripkeStructure.of(worlds, edges, labels, initial=worlds[0])


def random_lasso_forest(
    rng: random.Random,
    max_stem: int = 4,
    props=("p", "q"),
) -> KripkeStructure:
    """A random tree whose leaves close into private cycles, so that every
    world on a cycle has out-degree 1 and the trace set is finite."""
    n = rng.randint(1, max_stem)
    worlds = [f"s{i}" for i in range(n)]
    edges = []
    children = {w: 0 for w in worlds}
    for i in range(1, n):
        parent = worlds[rng.randrange(i)]
        children[parent] += 1
        edges.append((parent, worlds[i]))
    leaves = [w for w in worlds if children[w] == 0]
    all_worlds = list(worlds)
    for idx, leaf in enumerate(leaves):
        if rng.random() < 0.5:
            edges.append((leaf, leaf))
        else:
            extra = f"c{idx}"
            all_worlds.append(extra)
            edges.append((leaf, extra))
            edges.append((extra, leaf))
    labels = {
        w: frozenset(p for p in props if rng.random() < 0.4) for w in all_worlds
    }
    return KripkeStructure.of(all_worlds, edges, labels, initial=worlds[0])


# Pairwise coprime cycle lengths: the fan's sequence has period their lcm.
_COPRIME_LENGTHS = ((2, 3), (2, 5), (3, 4), (3, 5), (4, 5), (2, 3, 5), (3, 4, 5))


def cycle_fan(lengths, label) -> KripkeStructure:
    """A root r with one edge into each of several private cycles; world j
    of cycle c is ``c{c}_{j}`` and carries ``label(world)``.  Its trace
    team has one member per cycle, and its successor-set sequence has
    stem 1 and period lcm(lengths)."""
    worlds, edges = ["r"], []
    for c, length in enumerate(lengths):
        cycle = [f"c{c}_{j}" for j in range(length)]
        worlds += cycle
        edges += [("r", cycle[0]), *zip(cycle, cycle[1:] + cycle[:1])]
    return KripkeStructure.of(worlds, edges, {w: label(w) for w in worlds}, initial="r")


def random_cycle_fan(rng: random.Random, props=("p", "q")) -> KripkeStructure:
    """A cycle fan over two or three cycles of pairwise coprime lengths
    from 2 to 5: a loop of 6 to 60 positions for walks to come round."""
    return cycle_fan(
        rng.choice(_COPRIME_LENGTHS),
        lambda w: [p for p in props if rng.random() < 0.4],
    )


def random_multiteam(rng: random.Random, k: KripkeStructure, max_size: int = 3) -> MultiTeam:
    size = rng.randint(0, max_size)
    return MultiTeam.of([rng.choice(k.worlds) for _ in range(size)])


def random_rotation_kripke(rng: random.Random, max_worlds: int = 4) -> KripkeStructure:
    """A random structure, or, half the time, a rotation of its worlds by
    a fixed distance plus a few of its edges: members on a cycle cannot
    wait for each other, and most worlds share one successor shift."""
    k = random_kripke(rng, max_worlds)
    worlds, labels = k.worlds, dict(k.labels)
    if rng.random() < 0.5:
        n, d = len(worlds), rng.choice((1, -1, 2))
        edges = {(w, worlds[(i + d) % n]) for i, w in enumerate(worlds)}
        edges |= {e for e in k.edges if rng.random() < 0.1}
        k = KripkeStructure.of(worlds, edges, labels)
    return k


def random_flat_instance(rng: random.Random) -> tuple[KripkeStructure, MultiTeam, Formula]:
    """A `random_rotation_kripke` structure, a team of at most three
    members (the brute-force oracle unrolls C(|W|+|T|-1, |T|) steps deep)
    and a formula of the flat CTL fragment."""
    k = random_rotation_kripke(rng)
    team = random_multiteam(rng, k)
    if len(team) < 3 and rng.random() < 0.5:
        team = MultiTeam.of(team.worlds + (rng.choice(k.worlds),))
    return k, team, random_flat_ctl_formula(rng, rng.randint(0, 2))


def random_qbf(rng: random.Random, max_vars: int = 3, max_clauses: int = 2) -> QbfInstance:
    n = rng.randint(1, max_vars)
    variables = tuple(f"x{i}" for i in range(1, n + 1))
    quantifiers = tuple("e" if i % 2 == 0 else "a" for i in range(n))
    clauses = tuple(
        tuple((rng.choice(variables), rng.random() < 0.5) for _ in range(3))
        for _ in range(rng.randint(1, max_clauses))
    )
    return QbfInstance(quantifiers, variables, clauses)


def random_pl_formula(rng: random.Random, budget: int, props=("p", "q")) -> Formula:
    """A random propositional team formula with contradictory negation."""
    kinds = [And, Split, Split, BoolOr, CNeg, CNeg, "literal"]
    return _random_tree(rng, budget, props, kinds)


# ---------------------------------------------------------------------------
# Differential suites
#
# Each suite draws ``count`` random instances from ``rng`` (after any
# pinned instance it leads with) and compares an evaluator with an
# independent counterpart.  ``run_selftest``, the acceptance tests and the
# per-module fuzz tests all run these suites; none pairs an instance with
# an oracle on its own.


@dataclass
class SuiteResult:
    name: str
    instances: int = 0
    mismatches: list[str] = field(default_factory=list)


@dataclass
class SelfTestReport:
    seed: int
    suites: list[SuiteResult] = field(default_factory=list)

    @property
    def instances(self) -> int:
        return sum(s.instances for s in self.suites)

    @property
    def mismatches(self) -> list[str]:
        return [m for s in self.suites for m in s.mismatches]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _show(part) -> str:
    return render(part) if isinstance(part, Formula) else repr(part)


def _suite(name: str):
    """Make a suite ``(rng, count) -> SuiteResult`` named ``name`` from a
    generator that yields one ``(got, expected, *instance)`` tuple per
    instance; the instance's parts are shown when the two differ."""

    def make(instances):
        @functools.wraps(instances)
        def suite(rng: random.Random, count: int) -> SuiteResult:
            result = SuiteResult(name)
            for got, expected, *parts in instances(rng, count):
                result.instances += 1
                if got != expected:
                    result.mismatches.append(
                        f"{name}: got {got}, expected {expected} on "
                        + ", ".join(map(_show, parts))
                    )
            return result

        return suite

    return make


@_suite("check_team vs naive_oracle")
def suite_ltl_oracle(rng, count):
    for _ in range(count):
        team = random_team(rng)
        phi = random_ltl_formula(
            rng, rng.randint(1, 6),
            allow_cneg=True, allow_boolor=True, allow_atoms=True,
        )
        yield check_team(team, phi), naive_oracle(team, phi), phi, team


@_suite("check_team on the empty team, subteams and singletons")
def suite_ltl_structural(rng, count):
    """The empty team satisfies every ``~``-free formula, a downward-closed
    formula holds on every subteam of a team satisfying it, and a singleton
    team agrees with classical LTL on its trace."""
    empty = TeamEncoding.of([])
    for _ in range(count):
        phi = random_ltl_formula(rng, rng.randint(1, 8), allow_atoms=True)
        team = random_team(rng, max_prefix=3, max_loop=3)
        sub = TeamEncoding.of(t for t in team if rng.random() < 0.5)
        closed = not (is_downward_closed(phi) and check_team(team, phi)) or \
            check_team(sub, phi)
        pure = random_ltl_formula(rng, rng.randint(1, 8))
        t = random_trace(rng, max_prefix=3, max_loop=3)
        yield (
            (check_team(empty, phi), closed, check_team(TeamEncoding.of([t]), pure)),
            (True, True, check_ltl_classical(t, pure)),
            phi, team, sub, pure, TeamEncoding.of([t]),
        )


@_suite("check_team vs naive_oracle on downward-closed formulas")
def suite_ltl_downward_closed(rng, count):
    """Every split here is decided by disjoint splits, which the oracle
    never tries: it always enumerates covers."""
    for _ in range(count):
        team = random_team(rng)
        phi = random_ltl_formula(rng, rng.randint(1, 5), allow_atoms=True)
        while not is_downward_closed(phi):
            phi = random_ltl_formula(rng, rng.randint(1, 5), allow_atoms=True)
        yield check_team(team, phi), naive_oracle(team, phi), phi, team


def _random_wrap(rng: random.Random, phi: Formula, props=("p", "q")) -> Formula:
    """``phi`` under one random connective, on either side of a literal
    where the connective needs a second operand."""
    wrap = rng.choice((Next, CNeg, And, BoolOr, Split, Until, Release))
    if wrap is Next or wrap is CNeg:
        return wrap(phi)
    literal = _random_literal(rng, props)
    return wrap(phi, literal) if rng.random() < 0.5 else wrap(literal, phi)


# Enumerating the downward-closed side's parts in place of the other
# side's gives mismatches on 39 to 50 of 300 instances of this suite, and
# leaving out the traces that must go on the other side on 129 to 139,
# for each of the seeds 0 to 4; `suite_ltl_oracle` finds 1 to 9.
@_suite("check_team vs naive_oracle on splits with one downward-closed side")
def suite_split_one_dc(rng, count):
    """A split of a downward-closed side and a side that is not, in either
    order, alone or under one more connective, on one to four traces.
    ``check_team`` decides it by partitions, with every trace on which the
    downward-closed side fails alone on the other side; the oracle
    enumerates covers."""
    for _ in range(count):
        team = TeamEncoding.of(random_trace(rng) for _ in range(rng.randint(1, 4)))
        closed = random_ltl_formula(rng, rng.randint(0, 2), allow_atoms=True)
        while not is_downward_closed(closed):
            closed = random_ltl_formula(rng, rng.randint(0, 2), allow_atoms=True)
        mixed = dict(allow_cneg=True, allow_boolor=True, allow_atoms=True)
        other = random_ltl_formula(rng, rng.randint(1, 3), **mixed)
        while is_downward_closed(other):
            other = random_ltl_formula(rng, rng.randint(1, 3), **mixed)
        phi = Split(closed, other) if rng.random() < 0.5 else Split(other, closed)
        if rng.random() < 0.5:
            phi = _random_wrap(rng, phi)
        yield check_team(team, phi), naive_oracle(team, phi), phi, team


@_suite("Until/Release masks vs the walk")
def suite_ltl_union(rng, count):
    """φ U ψ, φ R ψ, their conjunction and a disjoint split of two such
    nodes, over flat operands, which ``check_team`` decides by unions of
    masks, against the same formulas with each ψ read as ψ \\|/ ψ: that
    is not flat, so they take the walk and part enumeration.  Half of the
    teams are phase teams, under ψ = p and the split F p | F q, which then
    has one maximal left part per step at which p holds on a subteam, and
    often several complements to try.  About 30 % of the others are cycle
    fans, whose long loops keep some sequences open past the cutoff, so
    that those nodes give way to the walk."""
    for _ in range(count):
        phased = rng.random() < 0.5
        if phased:
            team = random_phase_team(rng)
        elif rng.random() < 0.3:
            team = enumerate_traces(random_cycle_fan(rng))
        else:
            team = random_team(rng, max_traces=8, max_prefix=3, max_loop=4)
        phi, psi, chi, omega = (
            random_flat_body(rng, rng.randint(0, 2), steps=(Next,)) for _ in range(4)
        )
        # An F goal has a mask for each step until its sequence closes, so
        # a split beside it has more maximal parts to choose from.
        first, second = (top() if rng.random() < 0.5 else body for body in (phi, chi))
        other = rng.choice((Until, Release))
        if phased:
            psi, omega, first, second, other = Prop("p"), Prop("q"), top(), top(), Until
        formulas = []
        for a, b in ((psi, omega), (BoolOr(psi, psi), BoolOr(omega, omega))):
            until, release = Until(phi, a), Release(phi, a)
            formulas.append(
                [until, release, And(until, release), Split(Until(first, a), other(second, b))]
            )
        yield (
            tuple(check_team(team, f, max_team=len(team)) for f in formulas[0]),
            tuple(check_team(team, f, max_team=len(team)) for f in formulas[1]),
            *formulas[0][2:], team,
        )


def _companion(literal: Formula) -> Formula:
    """A negated proposition read as its flattening companion."""
    if isinstance(literal, NegProp):
        return Prop(negative_prop(literal.name))
    return literal


@_suite("check_model_splitfree vs trace enumeration and the flattened trace")
def suite_splitfree(rng, count):
    """Both ``check_model_splitfree`` and ``check_team`` run on the shared
    core, so the paper's construction is the third reference: classical
    path checking on the trace of ``flatten``, each !p read as its
    companion proposition.  Also checks that the flattened characteristic
    stays within 2^|W|.  A quarter of the structures are cycle fans, whose
    long loops make the searches step past the repeat."""
    for _ in range(count):
        k = random_cycle_fan(rng) if rng.random() < 0.25 else random_lasso_forest(rng)
        phi = random_ltl_formula(
            rng, rng.randint(1, 5),
            allow_split=False, allow_cneg=True, allow_boolor=True,
        )
        flat = flatten(k, props=k.prop_universe | propositions(phi))
        expected = check_team(enumerate_traces(k), phi)
        yield (
            (
                check_model_splitfree(k, phi),
                check_ltl_classical_extended(flat.trace, map_literals(phi, _companion)),
                flat.stem + flat.period <= 2 ** len(k.worlds),
            ),
            (expected, expected, True),
            phi, k,
        )


@_suite("check_team vs mc_ctl on propositional formulas")
def suite_ltl_ctl_agreement(rng, count):
    """A team of one-state loops and a team of self-loop worlds with the
    same pairwise distinct labels: sets and multisets coincide and no
    temporal operator occurs, so the two evaluators must agree."""
    props = ("p", "q", "r")
    subsets = [frozenset(c) for n in range(4) for c in itertools.combinations(props, n)]
    for _ in range(count):
        phi = random_pl_formula(rng, rng.randint(0, 5), props)
        if rng.random() < 0.3:
            phi = And(phi, _random_atom(rng, props))
        labels = rng.sample(subsets, rng.randint(0, 4))
        team = TeamEncoding.of(LassoTrace((), (label,)) for label in labels)
        worlds = [f"w{i}" for i in range(len(labels))]
        k = KripkeStructure.of(worlds, [(w, w) for w in worlds], dict(zip(worlds, labels)))
        yield check_team(team, phi), mc_ctl(k, MultiTeam.of(worlds), phi), phi, team


@_suite("mc_ctl vs mc_ctl_bruteforce")
def suite_ctl_oracle(rng, count):
    for _ in range(count):
        k = random_kripke(rng)
        team = random_multiteam(rng, k)
        phi = random_ctl_formula(rng, rng.randint(1, 5), allow_cneg=True, allow_atoms=True)
        yield mc_ctl(k, team, phi), mc_ctl_bruteforce(k, team, phi), phi, team, k


# Deciding E[φ U ψ] over flat operands pointwise, as if each member could
# reach ψ on its own schedule, is wrong on about one instance in 300; two
# thousand instances catch that mutant.
@_suite("flat mc_ctl vs mc_ctl_bruteforce, Until from index 0 and 1")
def suite_ctl_flat(rng, count):
    """The flat fragment, which ``mc_ctl`` decides by digit masks and by
    searches that the oracle does not know."""
    for _ in range(count):
        k, team, phi = random_flat_instance(rng)
        from_one = from_index_zero(phi)
        yield (
            (mc_ctl(k, team, phi), mc_ctl(k, team, from_one)),
            (mc_ctl_bruteforce(k, team, phi), mc_ctl_bruteforce(k, team, from_one)),
            phi, team, k,
        )


@_suite("E-Until/E-Release masks vs the search")
def suite_ctl_union(rng, count):
    """E[φ U ψ], E[φ R ψ] and their conjunction over flat operands, which
    ``mc_ctl`` decides by unions of masks, against the same formulas with
    ψ read as ψ \\|/ ψ: that is not flat, so they take the searches.  Up
    to 8 worlds and 6 members, beyond the brute-force oracle's reach."""
    for _ in range(count):
        k = random_rotation_kripke(rng, max_worlds=8)
        team = random_multiteam(rng, k, max_size=6)
        phi, psi = (random_flat_body(rng, rng.randint(0, 2)) for _ in range(2))
        until, release = EU(phi, psi), ER(phi, psi)
        searched = [
            mc_ctl(k, team, op(phi, BoolOr(psi, psi))) for op in (EU, ER)
        ]
        yield (
            (mc_ctl(k, team, until), mc_ctl(k, team, release),
             mc_ctl(k, team, And(until, release))),
            (*searched, all(searched)),
            until, release, team, k,
        )


def _searched(rng: random.Random, op: type, phi: Formula, psi: Formula) -> Formula:
    """``op`` over φ and ψ, one of them read as ψ \\|/ ψ: not flat, so
    the node is decided by a search."""
    operands = [phi, psi]
    side = rng.randrange(2)
    operands[side] = BoolOr(operands[side], operands[side])
    return op(*operands)


# A search that leaves a wrong verdict in the memo for a team it did not
# decide passes every other suite, since random formulas rarely read one
# U/R node on two teams.  Memoising every team `Compiled._search`
# entered, not only its stack, where it finds its path gives mismatches
# here only: at seed 3 and count 200, on the pinned EF and AF instances
# and on one random instance.
@_suite("U/R verdicts read from several contexts vs the oracles")
def suite_shared_temporal(rng, count):
    """A non-flat U or R node θ decided on a team, then read, from the
    memo that search filled, on the teams next to it: θ & EX ~θ,
    (~θ) & EX θ and θ | AX θ, for mc_ctl against mc_ctl_bruteforce, and
    θ & X ~θ, for check_team against naive_oracle.  Leads with EF and AF
    of p on a root whose two successors, in either order, reach p or loop
    without it.  Half of the random structures are cycle fans with the
    root in the team, whose branches often disagree on θ."""
    limits = CtlLimits(max_worlds=16)

    def contexts(k, team, theta):
        phis = (And(theta, EX(CNeg(theta))), And(CNeg(theta), EX(theta)), Split(theta, AX(theta)))
        return (
            tuple(mc_ctl(k, team, phi, limits=limits) for phi in phis),
            tuple(mc_ctl_bruteforce(k, team, phi) for phi in phis),
            *phis, team, k,
        )

    p = BoolOr(Prop("p"), Prop("p"))
    for good, bad in (("b", "c"), ("c", "b")):
        k = KripkeStructure.of(
            ["a", "b", "c", "d"],
            [("a", "b"), ("a", "c"), (good, "d"), (bad, bad), ("d", "d")],
            {"d": ["p"]},
        )
        for op in (EU, AU):
            yield contexts(k, MultiTeam.of(["a"]), op(top(), p))
    props = ("p", "q")
    for _ in range(count):
        if rng.random() < 0.5:
            k = random_cycle_fan(rng)
            team = MultiTeam.of(["r", *(rng.choice(k.worlds) for _ in range(rng.randint(0, 1)))])
        else:
            k = random_kripke(rng)
            team = random_multiteam(rng, k)
        op = rng.choice((EU, AU, ER, AR))
        first, second = (random_flat_body(rng, rng.randint(0, 2)) for _ in range(2))
        if rng.random() < 0.5:
            first = top() if op in (EU, AU) else bot()
        got, expected, *parts = contexts(k, team, _searched(rng, op, first, second))
        # Literal operands keep θ & X ~θ within the oracle's 8 connectives.
        traces = random_team(rng)
        theta = _searched(
            rng, rng.choice((Until, Release)), _random_literal(rng, props), _random_literal(rng, props)
        )
        ltl = And(theta, Next(CNeg(theta)))
        yield (
            (got, check_team(traces, ltl)), (expected, naive_oracle(traces, ltl)),
            *parts, ltl, traces,
        )


@_suite("mc_ctl vs classical CTL on singletons")
def suite_ctl_singleton(rng, count):
    for _ in range(count):
        k = random_kripke(rng)
        w = rng.choice(k.worlds)
        phi = random_ctl_formula(rng, rng.randint(1, 5))
        yield mc_ctl(k, MultiTeam.of([w]), phi), check_ctl_classical(k, w, phi), phi, w, k


@_suite("successor teams vs function enumeration")
def suite_successor_teams(rng, count):
    """``is_successor_team``, and the successor multisets of
    ``_CtlEval.successors``, against the multisets that one successor
    per member makes.  Leads with the pinned case where every member can
    step into the target but no matching exists, with teams whose
    members fill a whole digit of their key, and with teams too small to
    keep every shift class."""

    def compare(k, t1, t2):
        choices = list(itertools.product(*(k.succ[w] for w in t1.worlds)))
        expected = len(t1) == len(t2) and any(
            Counter(choice) == Counter(t2.worlds) for choice in choices
        )
        ev = _CtlEval(k, len(t1))
        return (
            (is_successor_team(k, t1, t2), set(ev.successors(ev.encode(t1.worlds)))),
            (expected, set(map(ev.encode, choices))),
            t1, t2, k,
        )

    k = KripkeStructure.of(
        ["a", "b", "c", "x", "y"],
        [("a", "x"), ("b", "x"), ("c", "x"), ("c", "y"), ("x", "x"), ("y", "y")],
    )
    yield compare(k, MultiTeam.of(["a", "b", "c"]), MultiTeam.of(["x", "y", "y"]))
    # 3 copies fill a digit of a key at width 2 and 7 copies at width 3,
    # which random teams of at most 4 members never do: on a branching
    # world, and on a forward (f0, f1) and a backward (g2, g1) shift class.
    k = KripkeStructure.of(
        ["a", "f0", "f1", "f2", "g0", "g1", "g2"],
        [("a", "a"), ("a", "f0"), ("a", "g2"), ("f0", "f1"), ("f1", "f2"),
         ("f2", "a"), ("g2", "g1"), ("g1", "g0"), ("g0", "g0")],
    )
    for n in (3, 7):
        for w in ("a", "f0", "f1", "g1", "g2"):
            yield compare(k, MultiTeam.of([w] * n), MultiTeam.of([k.succ[w][-1]] * n))
    # Three shift classes of two worlds each, at offsets +1 (u0, u1), -1
    # (d2, d1) and 0 (s0, s1), beside the branching world b, whose edge at
    # +1 keeps it out of the first class: a team of one or two members
    # keeps only one or two of them and steps the others' worlds one by
    # one, and two copies of b run the set sums.
    k = KripkeStructure.of(
        ["b", "u0", "u1", "u2", "d0", "d1", "d2", "s0", "s1"],
        [("b", "u0"), ("b", "d2"), ("b", "s0"), ("u0", "u1"), ("u1", "u2"), ("u2", "b"),
         ("d2", "d1"), ("d1", "d0"), ("d0", "b"), ("s0", "s0"), ("s1", "s1")],
    )
    for n in (1, 2):
        for ws in itertools.combinations_with_replacement(k.worlds, n):
            yield compare(k, MultiTeam.of(ws), MultiTeam.of([k.succ[w][-1] for w in ws]))
    for _ in range(count):
        k = random_kripke(rng, max_worlds=5)
        t1, t2 = random_multiteam(rng, k, max_size=4), random_multiteam(rng, k, max_size=4)
        yield compare(k, t1, t2)


_CLAUSE_VARIABLES = ("x1", "x2", "x3")
_CLAUSES = [
    tuple(sorted(c)) for c in itertools.combinations_with_replacement(
        [(v, s) for v in _CLAUSE_VARIABLES for s in (True, False)], 3
    )
]


@_suite("both QBF reductions vs eval_qbf")
def suite_qbf_reductions(rng, count):
    """Leads with the worked instance.  Every other instance is a random
    QBF; the rest are the single-clause instances ∃x1 ∀x2 ∃x3 (C), one
    clause C after another from a random start, so that 112 instances or
    more try every clause."""
    instances = [fixtures.worked_qbf()]
    start = rng.randrange(len(_CLAUSES))
    for i in range(count):
        if i % 2:
            clause = _CLAUSES[(start + i // 2) % len(_CLAUSES)]
            instances.append(QbfInstance(("e", "a", "e"), _CLAUSE_VARIABLES, (clause,)))
        else:
            instances.append(random_qbf(rng, max_vars=3, max_clauses=3))
    limits = CtlLimits(max_worlds=128)
    for q in instances:
        team, phi = reduce_to_tpc(q)
        k, ctl_team, ctl_phi = reduce_to_tmc_ctl(q)
        expected = eval_qbf(q)
        yield (
            (check_team(team, phi), mc_ctl(k, ctl_team, ctl_phi, limits=limits)),
            (expected, expected),
            q,
        )


@_suite("propositional ~-reduction vs brute force")
def suite_plsim(rng, count):
    for _ in range(count):
        phi = random_pl_formula(rng, rng.randint(1, 5), props=("p", "q", "r"))
        team, goal = reduce_plsim_to_tpc(phi)
        yield check_team(team, goal), pl_team_satisfiable_bruteforce(phi), phi


@_suite("check_team vs eval_qbf on 5-7 variable QBF->TPC")
def suite_qbf_tpc(rng, count):
    """QBF->TPC teams of 24 to 44 traces, far beyond the naive oracle's
    four, with the cap lifted.  The clause chain's splits are downward
    closed, so their free traces make this the suite in which the
    disjoint split tries many parts before it reaches a verdict."""
    for _ in range(count):
        q = random_qbf(rng, max_vars=7, max_clauses=9)
        while len(q.variables) < 5 or len(q.clauses) < 4:
            q = random_qbf(rng, max_vars=7, max_clauses=9)
        team, phi = reduce_to_tpc(q)
        yield check_team(team, phi, max_team=len(team)), eval_qbf(q), q


@_suite("check_team vs eval_qbf on many-clause QBF->TPC")
def suite_qbf_tpc_clauses(rng, count):
    """QBF->TPC teams of 3 to 5 variables and 10 to 20 clauses (37 to 72
    traces), with the cap lifted: long chains of ``F`` goals split over
    many free traces, each split beside the masks of one goal."""
    for _ in range(count):
        q = random_qbf(rng, max_vars=5, max_clauses=20)
        while len(q.variables) < 3 or len(q.clauses) < 10:
            q = random_qbf(rng, max_vars=5, max_clauses=20)
        team, phi = reduce_to_tpc(q)
        yield check_team(team, phi, max_team=len(team)), eval_qbf(q), q


def _state_trace(ev: _TeamEval, state: int) -> LassoTrace:
    """The suffix that the interned state ``state`` of ``ev`` stands for:
    its heads along the successor table, looping at the first repeat."""
    path: list[int] = []
    while state not in path:
        path.append(state)
        state = ev.succ[state].bit_length() - 1
    heads = [ev.heads[s] for s in path]
    start = path.index(state)
    return LassoTrace(tuple(heads[:start]), tuple(heads[start:]))


@_suite("one-trace masks of check_team vs classical LTL")
def suite_ltl_alone(rng, count):
    """Singleton equivalence for the masks a split reads: for every
    downward-closed node, each state's bit in ``_TeamEval.alone`` against
    the suffix that state stands for, alone; every member is such a
    state.  Classical LTL is the reference on pure LTL nodes, and
    ``naive_oracle`` on the one-trace team where a node holds a ``\\|/``
    or a dependence atom.  Every other node must have no mask."""
    for _ in range(count):
        team = random_team(rng, max_prefix=3, max_loop=3)
        phi = random_ltl_formula(
            rng, rng.randint(1, 6),
            allow_cneg=True, allow_boolor=True, allow_atoms=True,
        )
        ev = _TeamEval(team, phi, len(team))
        traces = [_state_trace(ev, s) for s in range(len(ev.heads))]
        got, expected = [], []
        for node, sub in enumerate(ev.formulas):
            if not ev.dc[node]:
                got.append(ev.alone[node])
                expected.append(None)
                continue
            pure = all(isinstance(n, PURE_LTL) for n in iter_nodes(sub))
            for s, t in enumerate(traces):
                got.append(bool(ev.alone[node] >> s & 1))
                expected.append(
                    check_ltl_classical(t, sub) if pure
                    else naive_oracle(TeamEncoding.of([t]), sub)
                )
        yield got, expected, phi, team


@_suite("one-world masks of mc_ctl vs classical CTL")
def suite_ctl_alone(rng, count):
    """Singleton equivalence for the masks a TeamCTL split reads: for
    every downward-closed node, each world's bit in ``_CtlEval.alone``
    against classical CTL at that world, or ``mc_ctl_bruteforce`` on that
    one world where the node holds a ``\\|/`` or a dependence atom.
    Every other node must have no mask.  Leads with fixed instances, which
    draw nothing: on a→b, a→c, b→d, c→c, d→d with p on d, the A forms of
    AF p, A[!p U p], AG !p, AX EF p and (AF p) | (AF p) fail at a, and
    their E forms hold there."""

    def compare(k, phi):
        ev = _CtlEval(k, 1)
        ev.compile(phi)
        got, expected = [], []
        for node, sub in enumerate(ev.formulas):
            if not ev.dc[node]:
                got.append(ev.alone[node])
                expected.append(None)
                continue
            pure = not any(isinstance(n, (BoolOr, GenAtomApp)) for n in iter_nodes(sub))
            for w, world in enumerate(k.worlds):
                got.append(bool(ev.alone[node] & ev.unit[w]))
                expected.append(
                    check_ctl_classical(k, world, sub) if pure
                    else mc_ctl_bruteforce(k, MultiTeam.of([world]), sub)
                )
        return got, expected, phi, k

    k = KripkeStructure.of(
        ["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "d"), ("c", "c"), ("d", "d")],
        {"d": ["p"]},
    )
    for text in ("AF p", "A[!p U p]", "AG !p", "AX EF p", "(AF p) | (AF p)"):
        yield compare(k, parse_ctl(text))
        yield compare(k, parse_ctl(text.replace("A", "E")))
    for _ in range(count):
        k = random_kripke(rng)
        phi = random_ctl_formula(
            rng, rng.randint(1, 6),
            allow_cneg=True, allow_boolor=True, allow_atoms=True,
        )
        yield compare(k, phi)


@_suite("pinned fixtures")
def suite_fixtures(rng, count):
    """The pinned verdicts; draws nothing and ignores ``count``."""
    for description, passed in fixtures.pinned_checks():
        yield passed, True, description


SUITES = (
    suite_ltl_oracle, suite_ltl_structural, suite_ltl_downward_closed, suite_split_one_dc,
    suite_ltl_union, suite_splitfree, suite_ltl_ctl_agreement, suite_ctl_oracle, suite_ctl_flat,
    suite_ctl_union, suite_ctl_singleton, suite_successor_teams, suite_qbf_reductions,
    suite_plsim, suite_qbf_tpc, suite_qbf_tpc_clauses, suite_shared_temporal, suite_ltl_alone,
    suite_ctl_alone, suite_fixtures,
)
# The costlier suites run at a fraction of ``run_selftest``'s count.
_DIVISORS = {
    suite_qbf_reductions: 10, suite_qbf_tpc: 10, suite_qbf_tpc_clauses: 10, suite_plsim: 2,
}


def run_selftest(seed: int = 0, count: int = 50) -> SelfTestReport:
    """Run every differential suite with roughly ``count`` instances each."""
    rng = random.Random(seed)
    return SelfTestReport(
        seed, [suite(rng, max(1, count // _DIVISORS.get(suite, 1))) for suite in SUITES]
    )
