"""Acceptance suite: one test per shipped guarantee, each printing a
single PASS line with its instance count and runtime."""

import itertools
import random
import time
from collections import Counter

from teamtl.eval_classical import check_ctl_classical, check_ltl_classical
from teamtl.eval_team_ctl import CtlLimits, mc_ctl, mc_ctl_bruteforce
from teamtl.eval_team_ltl import check_team, naive_oracle
from teamtl.fixtures import pinned_checks, worked_qbf
from teamtl.formula import is_downward_closed
from teamtl.kripke import KripkeStructure, MultiTeam, enumerate_traces, is_successor_team
from teamtl.qbf import (
    QbfInstance,
    eval_qbf,
    pl_team_satisfiable_bruteforce,
    reduce_plsim_to_tpc,
    reduce_to_tmc_ctl,
    reduce_to_tpc,
)
from teamtl.selftest import (
    random_kripke,
    random_lasso_forest,
    random_ltl_formula,
    random_multiteam,
    random_pl_formula,
    random_qbf,
    random_team,
    random_trace,
)
from teamtl.tmc_splitfree import check_model_splitfree, flatten
from teamtl.trace import TeamEncoding


def report(number, description, instances, started):
    elapsed = time.perf_counter() - started
    print(f"\nACCEPTANCE {number} PASS: {description} "
          f"({instances} instances, {elapsed:.1f}s)")


def test_acceptance_1_structural_properties():
    started = time.perf_counter()
    rng = random.Random(101)
    checked = 0
    while checked < 1000:
        phi = random_ltl_formula(rng, rng.randint(1, 8), allow_atoms=True)
        team = random_team(rng, max_traces=3, max_prefix=3, max_loop=3)
        assert check_team(TeamEncoding.of([]), phi), phi
        if is_downward_closed(phi) and check_team(team, phi):
            members = list(team.traces)
            sub = TeamEncoding(frozenset(
                t for t in members if rng.random() < 0.5
            ))
            assert check_team(sub, phi), (phi, team)
        pure = random_ltl_formula(rng, rng.randint(1, 8))
        t = random_trace(rng, max_prefix=3, max_loop=3)
        assert check_team(TeamEncoding.of([t]), pure) == \
            check_ltl_classical(t, pure), (pure, t)
        checked += 1
    assert time.perf_counter() - started < 60
    report(1, "empty team / downward closure / singleton equivalence",
           checked, started)


def test_acceptance_2_pinned_fixture_verdicts():
    started = time.perf_counter()
    results = pinned_checks()
    for description, passed in results:
        assert passed, description
    report(2, "union-closure and EF/AF fixtures match exactly",
           len(results), started)


def test_acceptance_3_ltl_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(103)
    for _ in range(2000):
        team = random_team(rng)
        phi = random_ltl_formula(
            rng, rng.randint(1, 6),
            allow_cneg=True, allow_boolor=True, allow_atoms=True,
        )
        assert check_team(team, phi) == naive_oracle(team, phi), (phi, team)
    report(3, "check_team equals the naive oracle", 2000, started)


def test_acceptance_4_qbf_reduction_round_trips():
    started = time.perf_counter()
    variables = ("x1", "x2", "x3")
    quantifiers = ("e", "a", "e")
    pool = [(v, s) for v in variables for s in (True, False)]
    clauses = [
        tuple(sorted(c)) for c in
        itertools.combinations_with_replacement(pool, 3)
    ]
    rng = random.Random(104)
    instances = [QbfInstance(quantifiers, variables, (c,)) for c in clauses]
    while len(instances) < 210:
        pair = (rng.choice(clauses), rng.choice(clauses))
        instances.append(QbfInstance(quantifiers, variables, pair))
    limits = CtlLimits(max_worlds=128)
    for q in instances:
        expected = eval_qbf(q)
        team, phi = reduce_to_tpc(q)
        assert check_team(team, phi) == expected, q
        k, ctl_team, ctl_phi = reduce_to_tmc_ctl(q)
        assert mc_ctl(k, ctl_team, ctl_phi, limits=limits) == expected, q
    # The worked example instance is valid on both routes.
    q = worked_qbf()
    assert eval_qbf(q)
    team, phi = reduce_to_tpc(q)
    assert check_team(team, phi)
    k, ctl_team, ctl_phi = reduce_to_tmc_ctl(q)
    assert mc_ctl(k, ctl_team, ctl_phi, limits=limits)
    assert time.perf_counter() - started < 600
    report(4, "both QBF reductions agree with eval_qbf",
           len(instances) + 1, started)


def test_acceptance_5_splitfree_cross_validation():
    started = time.perf_counter()
    rng = random.Random(105)
    for _ in range(500):
        k = random_lasso_forest(rng)
        assert len(k.worlds) <= 8
        phi = random_ltl_formula(
            rng, rng.randint(1, 5),
            allow_split=False, allow_cneg=True, allow_boolor=True,
        )
        assert check_model_splitfree(k, phi) == \
            check_team(enumerate_traces(k), phi), (phi, k.edges)
        flat = flatten(k)
        assert flat.stem + flat.period <= 2 ** len(k.worlds)
    report(5, "splitfree model checking equals trace enumeration "
              "and the characteristic stays within 2^|W|", 500, started)


def test_acceptance_6_ctl_oracle_and_singletons():
    started = time.perf_counter()
    rng = random.Random(106)
    from teamtl.selftest import random_ctl_formula

    for _ in range(300):
        k = random_kripke(rng, max_worlds=4)
        team = random_multiteam(rng, k, max_size=3)
        phi = random_ctl_formula(rng, rng.randint(1, 5), allow_cneg=True)
        assert mc_ctl(k, team, phi) == mc_ctl_bruteforce(k, team, phi), \
            (phi, team.worlds, sorted(k.edges))
    for _ in range(1000):
        k = random_kripke(rng)
        w = rng.choice(k.worlds)
        phi = random_ctl_formula(rng, rng.randint(1, 5))
        assert mc_ctl(k, MultiTeam.of([w]), phi) == \
            check_ctl_classical(k, w, phi), (phi, w, sorted(k.edges))
    report(6, "mc_ctl equals the brute-force evaluator and classical CTL "
              "on singletons", 1300, started)


def test_acceptance_7_successor_team_matching():
    started = time.perf_counter()
    rng = random.Random(107)
    cases = 0
    # The documented shape: per-member feasibility without a matching.
    k = KripkeStructure.of(
        ["a", "b", "c", "x", "y"],
        [("a", "x"), ("b", "x"), ("c", "x"), ("c", "y"), ("x", "x"), ("y", "y")],
    )
    assert not is_successor_team(
        k, MultiTeam.of(["a", "b", "c"]), MultiTeam.of(["x", "y", "y"])
    )
    cases += 1
    while cases < 500:
        k = random_kripke(rng, max_worlds=5)
        t1 = random_multiteam(rng, k, max_size=4)
        t2 = random_multiteam(rng, k, max_size=4)
        expected = len(t1) == len(t2) and any(
            Counter(choice) == Counter(t2.worlds)
            for choice in itertools.product(*(k.succ[w] for w in t1.worlds))
        )
        assert is_successor_team(k, t1, t2) == expected, \
            (t1.worlds, t2.worlds, sorted(k.edges))
        cases += 1
    report(7, "successor-team matching equals exhaustive function "
              "enumeration", cases, started)


def test_acceptance_8_pl_cneg_reduction():
    started = time.perf_counter()
    rng = random.Random(108)
    for _ in range(1000):
        phi = random_pl_formula(rng, rng.randint(1, 5), props=("p", "q", "r"))
        team, goal = reduce_plsim_to_tpc(phi)
        assert check_team(team, goal) == pl_team_satisfiable_bruteforce(phi), phi
    report(8, "the propositional ~-reduction matches brute-force team "
              "satisfiability", 1000, started)
