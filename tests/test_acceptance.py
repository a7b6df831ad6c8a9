"""Acceptance suite: one test per shipped guarantee, each running the
matching differential suites of `teamtl.selftest` at a fixed seed and
printing a single PASS line with its instance count and runtime."""

import random
import time

from teamtl.selftest import (
    suite_ctl_oracle,
    suite_ctl_singleton,
    suite_fixtures,
    suite_ltl_oracle,
    suite_ltl_structural,
    suite_plsim,
    suite_qbf_reductions,
    suite_splitfree,
    suite_successor_teams,
)


def accept(number, description, seed, *runs, bound=None):
    """Run each (suite, count) of ``runs`` in turn on one generator seeded
    with ``seed``, and fail on any mismatch or past ``bound`` seconds."""
    started = time.perf_counter()
    rng = random.Random(seed)
    results = [suite(rng, count) for suite, count in runs]
    mismatches = [m for result in results for m in result.mismatches]
    assert not mismatches, mismatches[:5]
    elapsed = time.perf_counter() - started
    assert bound is None or elapsed < bound
    instances = sum(result.instances for result in results)
    print(f"\nACCEPTANCE {number} PASS: {description} "
          f"({instances} instances, {elapsed:.1f}s)")


def test_acceptance_1_structural_properties():
    accept(1, "empty team / downward closure / singleton equivalence",
           101, (suite_ltl_structural, 1000), bound=60)


def test_acceptance_2_pinned_fixture_verdicts():
    accept(2, "union-closure and EF/AF fixtures match exactly",
           102, (suite_fixtures, 0))


def test_acceptance_3_ltl_oracle_equivalence():
    accept(3, "check_team equals the naive oracle", 103, (suite_ltl_oracle, 2000))


def test_acceptance_4_qbf_reduction_round_trips():
    accept(4, "both QBF reductions agree with eval_qbf",
           104, (suite_qbf_reductions, 210), bound=600)


def test_acceptance_5_splitfree_cross_validation():
    accept(5, "splitfree model checking equals trace enumeration "
              "and the characteristic stays within 2^|W|",
           105, (suite_splitfree, 500))


def test_acceptance_6_ctl_oracle_and_singletons():
    accept(6, "mc_ctl equals the brute-force evaluator and classical CTL "
              "on singletons",
           106, (suite_ctl_oracle, 300), (suite_ctl_singleton, 1000))


def test_acceptance_7_successor_team_matching():
    accept(7, "successor-team matching equals exhaustive function "
              "enumeration", 107, (suite_successor_teams, 500))


def test_acceptance_8_pl_cneg_reduction():
    accept(8, "the propositional ~-reduction matches brute-force team "
              "satisfiability", 108, (suite_plsim, 1000))
