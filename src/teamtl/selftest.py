"""Seeded random instance generators and the differential self-test.

Every evaluator in the library has an independent counterpart (a naive
oracle, a brute-force enumeration, or a cross-construction); the self-test
draws random desk-scale instances and demands exact agreement, then checks
the pinned fixture verdicts.  A fixed seed reproduces the exact stream.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass, field

from . import fixtures
from .eval_classical import check_ctl_classical, check_ltl_classical
from .eval_team_ctl import CtlLimits, mc_ctl, mc_ctl_bruteforce
from .eval_team_ltl import check_team, naive_oracle
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
    Prop,
    Release,
    Split,
    Until,
    dependence_atom,
    expand_shorthand,
    inclusion_atom,
    is_downward_closed,
)
from .kripke import KripkeStructure, MultiTeam, is_successor_team
from .kripke import enumerate_traces
from .qbf import (
    QbfInstance,
    eval_qbf,
    pl_team_satisfiable_bruteforce,
    reduce_plsim_to_tpc,
    reduce_to_tmc_ctl,
    reduce_to_tpc,
)
from .tmc_splitfree import check_model_splitfree
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


def _random_literal(rng, props) -> Formula:
    name = rng.choice(props)
    return Prop(name) if rng.random() < 0.5 else NegProp(name)


def _random_atom(rng, props) -> Formula:
    if rng.random() < 0.5:
        n_in = rng.randint(0, 1)
        atom = dependence_atom(n_in, 1)
    else:
        atom = inclusion_atom(1)
        n_in = 1
    params = tuple(Prop(rng.choice(props)) for _ in range(atom.arity))
    return GenAtomApp(atom, params)


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
    if budget <= 0:
        return _random_literal(rng, props)
    kinds = ["and", "next", "until", "release", "literal"]
    if allow_split:
        kinds += ["split", "split"]
    if allow_cneg:
        kinds.append("cneg")
    if allow_boolor:
        kinds.append("boolor")
    if allow_atoms:
        kinds.append("atom")
    kind = rng.choice(kinds)
    if kind == "literal":
        return _random_literal(rng, props)
    if kind == "atom":
        return _random_atom(rng, props)
    sub = dict(
        allow_split=allow_split,
        allow_cneg=allow_cneg,
        allow_boolor=allow_boolor,
        allow_atoms=allow_atoms,
    )
    if kind in ("next", "cneg"):
        child = random_ltl_formula(rng, budget - 1, props, **sub)
        return Next(child) if kind == "next" else CNeg(child)
    b1 = rng.randint(0, budget - 1)
    left = random_ltl_formula(rng, b1, props, **sub)
    right = random_ltl_formula(rng, budget - 1 - b1, props, **sub)
    ctor = {"and": And, "split": Split, "until": Until, "release": Release, "boolor": BoolOr}
    return ctor[kind](left, right)


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
    if budget <= 0:
        return _random_literal(rng, props)
    kinds = ["and", "ex", "ax", "eu", "au", "er", "ar", "literal"]
    if allow_split:
        kinds.append("split")
    if allow_cneg:
        kinds.append("cneg")
    if allow_boolor:
        kinds.append("boolor")
    if allow_atoms:
        kinds.append("atom")
    kind = rng.choice(kinds)
    if kind == "literal":
        return _random_literal(rng, props)
    if kind == "atom":
        return _random_atom(rng, props)
    sub = dict(
        allow_split=allow_split,
        allow_cneg=allow_cneg,
        allow_boolor=allow_boolor,
        allow_atoms=allow_atoms,
    )
    if kind in ("ex", "ax", "cneg"):
        child = random_ctl_formula(rng, budget - 1, props, **sub)
        return {"ex": EX, "ax": AX, "cneg": CNeg}[kind](child)
    b1 = rng.randint(0, budget - 1)
    left = random_ctl_formula(rng, b1, props, **sub)
    right = random_ctl_formula(rng, budget - 1 - b1, props, **sub)
    ctor = {
        "and": And, "split": Split, "boolor": BoolOr,
        "eu": EU, "au": AU, "er": ER, "ar": AR,
    }
    return ctor[kind](left, right)


def random_flat_body(rng: random.Random, budget: int, props=("p", "q")) -> Formula:
    """A random formula over literals, ``TOP``, ``BOT``, ``|``, ``&``,
    ``EX`` and ``AX``: on these, team satisfaction is pointwise."""
    if budget <= 0:
        if rng.random() < 0.2:
            return expand_shorthand(rng.choice(("TOP", "BOT")))
        return _random_literal(rng, props)
    kind = rng.choice(("split", "and", "ex", "ax"))
    if kind in ("ex", "ax"):
        child = random_flat_body(rng, budget - 1, props)
        return EX(child) if kind == "ex" else AX(child)
    b1 = rng.randint(0, budget - 1)
    left = random_flat_body(rng, b1, props)
    right = random_flat_body(rng, budget - 1 - b1, props)
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


def random_multiteam(rng: random.Random, k: KripkeStructure, max_size: int = 3) -> MultiTeam:
    size = rng.randint(0, max_size)
    return MultiTeam.of([rng.choice(k.worlds) for _ in range(size)])


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
    if budget <= 0:
        return _random_literal(rng, props)
    kind = rng.choice(["and", "split", "split", "boolor", "cneg", "cneg", "literal"])
    if kind == "literal":
        return _random_literal(rng, props)
    if kind == "cneg":
        return CNeg(random_pl_formula(rng, budget - 1, props))
    b1 = rng.randint(0, budget - 1)
    left = random_pl_formula(rng, b1, props)
    right = random_pl_formula(rng, budget - 1 - b1, props)
    return {"and": And, "split": Split, "boolor": BoolOr}[kind](left, right)


# ---------------------------------------------------------------------------
# Differential suites


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


def _describe_team(team: TeamEncoding) -> str:
    return repr([(t.prefix, t.loop) for t in team])


def suite_ltl_oracle(rng, count, *, inject_mutant=False) -> SuiteResult:
    from .parser import render

    result = SuiteResult("team LTL vs naive oracle")
    for _ in range(count):
        team = random_team(rng)
        phi = random_ltl_formula(
            rng, rng.randint(1, 6),
            allow_cneg=True, allow_boolor=True, allow_atoms=True,
        )
        fast = check_team(team, phi)
        if inject_mutant:
            fast = not fast
        slow = naive_oracle(team, phi)
        result.instances += 1
        if fast != slow:
            result.mismatches.append(
                f"check_team={fast} oracle={slow} on {render(phi)} "
                f"team={_describe_team(team)}"
            )
    return result


def suite_ltl_structural(rng, count) -> SuiteResult:
    result = SuiteResult("LTL structural properties")
    empty = TeamEncoding.of([])
    for _ in range(count):
        phi = random_ltl_formula(rng, rng.randint(1, 6), allow_atoms=True)
        result.instances += 1
        if not check_team(empty, phi):
            result.mismatches.append(f"empty-team property failed on {phi}")
            continue
        team = random_team(rng)
        if is_downward_closed(phi) and check_team(team, phi):
            members = list(team.traces)
            sub = TeamEncoding(
                frozenset(t for t in members if rng.random() < 0.5)
            )
            if not check_team(sub, phi):
                result.mismatches.append(f"downward closure failed on {phi}")
                continue
        pure = random_ltl_formula(rng, rng.randint(1, 6))
        t = random_trace(rng)
        if check_team(TeamEncoding.of([t]), pure) != check_ltl_classical(t, pure):
            result.mismatches.append(f"singleton equivalence failed on {pure}")
    return result


def suite_splitfree(rng, count) -> SuiteResult:
    result = SuiteResult("splitfree model checking vs trace enumeration")
    for _ in range(count):
        k = random_lasso_forest(rng)
        phi = random_ltl_formula(
            rng, rng.randint(1, 5),
            allow_split=False, allow_cneg=True, allow_boolor=True,
        )
        flat = check_model_splitfree(k, phi)
        enumerated = check_team(enumerate_traces(k), phi)
        result.instances += 1
        if flat != enumerated:
            result.mismatches.append(
                f"splitfree={flat} enumerate={enumerated} on {phi} structure={k.edges}"
            )
    return result


def suite_ctl_oracle(rng, count) -> SuiteResult:
    result = SuiteResult("team CTL vs brute force")
    for _ in range(count):
        k = random_kripke(rng)
        team = random_multiteam(rng, k)
        if rng.random() < 0.3:
            phi = random_flat_ctl_formula(rng, rng.randint(0, 2))
        else:
            phi = random_ctl_formula(rng, rng.randint(1, 4), allow_cneg=True)
        fast = mc_ctl(k, team, phi)
        slow = mc_ctl_bruteforce(k, team, phi)
        result.instances += 1
        if fast != slow:
            result.mismatches.append(
                f"mc_ctl={fast} bruteforce={slow} on {phi} "
                f"team={team.worlds} structure={sorted(k.edges)}"
            )
    return result


def suite_ctl_singleton(rng, count) -> SuiteResult:
    result = SuiteResult("team CTL singleton equivalence")
    for _ in range(count):
        k = random_kripke(rng)
        w = rng.choice(k.worlds)
        phi = random_ctl_formula(rng, rng.randint(1, 5))
        team_verdict = mc_ctl(k, MultiTeam.of([w]), phi)
        classical = check_ctl_classical(k, w, phi)
        result.instances += 1
        if team_verdict != classical:
            result.mismatches.append(
                f"team={team_verdict} classical={classical} on {phi} "
                f"at {w} structure={sorted(k.edges)}"
            )
    return result


def suite_successor_teams(rng, count) -> SuiteResult:
    result = SuiteResult("successor teams vs function enumeration")
    for _ in range(count):
        k = random_kripke(rng, max_worlds=5)
        t1 = random_multiteam(rng, k, max_size=4)
        t2 = random_multiteam(rng, k, max_size=4)
        fast = is_successor_team(k, t1, t2)
        target = Counter(t2.worlds)
        slow = any(
            Counter(choice) == target
            for choice in itertools.product(*(k.succ[w] for w in t1.worlds))
        ) and len(t1) == len(t2)
        result.instances += 1
        if fast != slow:
            result.mismatches.append(
                f"matching={fast} enumeration={slow} for {t1.worlds}->{t2.worlds} "
                f"structure={sorted(k.edges)}"
            )
    return result


def suite_qbf_reductions(rng, count) -> SuiteResult:
    result = SuiteResult("QBF reductions vs brute force")
    limits = CtlLimits(max_worlds=128)
    for _ in range(count):
        q = random_qbf(rng)
        expected = eval_qbf(q)
        team, phi = reduce_to_tpc(q)
        via_tpc = check_team(team, phi)
        k, ctl_team, ctl_phi = reduce_to_tmc_ctl(q)
        via_ctl = mc_ctl(k, ctl_team, ctl_phi, limits=limits)
        result.instances += 1
        if via_tpc != expected or via_ctl != expected:
            result.mismatches.append(
                f"eval={expected} tpc={via_tpc} ctl={via_ctl} on {q}"
            )
    return result


def suite_plsim(rng, count) -> SuiteResult:
    result = SuiteResult("propositional ~-reduction vs brute force")
    for _ in range(count):
        phi = random_pl_formula(rng, rng.randint(1, 4))
        team, goal = reduce_plsim_to_tpc(phi)
        via_reduction = check_team(team, goal)
        expected = pl_team_satisfiable_bruteforce(phi)
        result.instances += 1
        if via_reduction != expected:
            result.mismatches.append(
                f"reduction={via_reduction} bruteforce={expected} on {phi}"
            )
    return result


def suite_fixtures() -> SuiteResult:
    result = SuiteResult("pinned fixtures")
    for description, passed in fixtures.pinned_checks():
        result.instances += 1
        if not passed:
            result.mismatches.append(f"pinned verdict failed: {description}")
    return result


def run_selftest(
    seed: int = 0,
    count: int = 50,
    *,
    inject_mutant: bool = False,
) -> SelfTestReport:
    """Run every differential suite with roughly ``count`` instances each."""
    rng = random.Random(seed)
    report = SelfTestReport(seed=seed)
    report.suites.append(
        suite_ltl_oracle(rng, count, inject_mutant=inject_mutant)
    )
    report.suites.append(suite_ltl_structural(rng, count))
    report.suites.append(suite_splitfree(rng, count))
    report.suites.append(suite_ctl_oracle(rng, count))
    report.suites.append(suite_ctl_singleton(rng, count))
    report.suites.append(suite_successor_teams(rng, count))
    report.suites.append(suite_qbf_reductions(rng, max(1, count // 10)))
    report.suites.append(suite_plsim(rng, max(1, count // 2)))
    report.suites.append(suite_fixtures())
    return report
