import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from teamtl.eval_team_ltl import _TeamEval, check_team
from teamtl.eval_team_ctl import CtlLimits, mc_ctl
from teamtl.fixtures import WORKED_QBF_TEXT, worked_qbf
from teamtl.formula import And, CNeg, Prop, Split
from teamtl.kripke import enumerate_traces
from teamtl.parser import parse_ltl
from teamtl.qbf import (
    DOLLAR,
    HASH,
    QbfInstance,
    QbfParseError,
    clause_prop,
    eval_qbf,
    normalize_qbf,
    parse_qbf_text,
    pl_team_satisfiable_bruteforce,
    reduce_plsim_to_tpc,
    reduce_to_tmc_ctl,
    reduce_to_tpc,
)
from teamtl.selftest import (
    cycle_fan,
    suite_plsim,
    suite_qbf_reductions,
    suite_qbf_tpc,
    suite_qbf_tpc_clauses,
)
from teamtl.trace import trace_at

p, q = Prop("p"), Prop("q")


class TestParsing:
    def test_worked_instance_round_trip(self):
        raw = parse_qbf_text(WORKED_QBF_TEXT)
        assert normalize_qbf(raw) == worked_qbf()

    def test_non_prenex_rejected(self):
        with pytest.raises(QbfParseError):
            parse_qbf_text("exists x\nx x x\nforall y\n")

    def test_dummy_insertion_restores_alternation(self):
        raw = parse_qbf_text("forall x\nx x x\n")
        inst = normalize_qbf(raw)
        assert inst.quantifiers == ("e", "a")
        assert inst.variables[0].startswith("_dummy")
        raw2 = parse_qbf_text("exists x\nexists y\nx y y\n")
        inst2 = normalize_qbf(raw2)
        assert inst2.quantifiers == ("e", "a", "e")

    def test_clause_padding(self):
        inst = normalize_qbf(parse_qbf_text("exists x\nx -x\n"))
        assert inst.clauses == ((("x", True), ("x", False), ("x", True)),)
        with pytest.raises(QbfParseError):
            normalize_qbf(parse_qbf_text("exists x\nx x x x\n"))

    def test_instance_validation(self):
        with pytest.raises(ValueError):
            QbfInstance(("a",), ("x",), ())  # must start with e
        with pytest.raises(ValueError):
            QbfInstance(("e",), ("x",), ((("y", True),) * 3,))


class TestEval:
    def test_worked_instance_is_valid(self):
        assert eval_qbf(worked_qbf())

    def test_simple_instances(self):
        taut = normalize_qbf(parse_qbf_text("exists x\nx -x\n"))
        assert eval_qbf(taut)
        contradiction = QbfInstance(
            ("e",), ("x",),
            ((("x", True),) * 3, (("x", False),) * 3),
        )
        assert not eval_qbf(contradiction)
        # ∀ over a literal clause is never valid.
        forall = normalize_qbf(parse_qbf_text("forall x\nx x x\n"))
        assert not eval_qbf(forall)


class TestTpcReduction:
    def test_output_size_is_linear(self):
        q = worked_qbf()
        team, _ = reduce_to_tpc(q)
        n_forall = sum(1 for s in q.quantifiers if s == "a")
        expected = 3 * len(q.clauses) + 2 * len(q.variables) + n_forall
        assert len(team) == expected
        assert {len(t.loop) for t in team} <= {3, 6}
        assert all(len(t.prefix) == 0 for t in team)

    def test_clause_synchronization(self):
        """No loop position carries a clause proposition on all three of its
        literal traces; each position carries it on exactly two."""
        q = worked_qbf()
        team, _ = reduce_to_tpc(q)
        for j in range(1, len(q.clauses) + 1):
            cp = clause_prop(j)
            literal_traces = [t for t in team if any(cp in pos for pos in t.loop)]
            assert len(literal_traces) == 3
            for s in range(6):
                hits = sum(1 for t in literal_traces if cp in trace_at(t, s))
                assert hits == 2

    def test_markers_are_synchronized(self):
        team, _ = reduce_to_tpc(worked_qbf())
        for t in team:
            assert len(t.prefix) == 0
            for s in range(len(t.loop)):
                # $ everywhere except positions ≡ 0, # exactly at the restart
                assert (DOLLAR in t.loop[s]) == (s % 3 != 0)
                assert (HASH in t.loop[s]) == (s == len(t.loop) - 1)

    def test_worked_instance_checks_valid(self):
        team, phi = reduce_to_tpc(worked_qbf())
        assert check_team(team, phi)

    def test_empty_instance(self):
        team, phi = reduce_to_tpc(QbfInstance((), (), ()))
        assert check_team(team, phi)


def frontier_qbf(n: int, m: int) -> QbfInstance:
    """The QBF->TPC frontier family: n variables quantified alternately
    from ∃ and m clauses of three literals, drawn from random.Random(2)."""
    rng = random.Random(2)
    variables = tuple(f"x{i}" for i in range(1, n + 1))
    quantifiers = tuple("e" if i % 2 == 0 else "a" for i in range(n))
    clauses = tuple(
        tuple((rng.choice(variables), rng.random() < 0.5) for _ in range(3))
        for _ in range(m)
    )
    return QbfInstance(quantifiers, variables, clauses)


def test_frontier_instance_decides_in_seconds():
    # 55 traces and UNSAT, so no early exit helps: trying the right side
    # beside every left part took about 60 s of CPU time.
    q = frontier_qbf(10, 10)
    team, phi = reduce_to_tpc(q)
    assert len(team) == 55
    started = time.process_time()
    assert check_team(team, phi, max_team=len(team)) is eval_qbf(q) is False
    assert time.process_time() - started < 10


def test_many_clause_frontier_instance_decides_in_a_second():
    # 85 traces and UNSAT; enumerating the parts of each split of the
    # clause chain, even beside maximal left parts only, took minutes.
    q = frontier_qbf(4, 25)
    team, phi = reduce_to_tpc(q)
    assert len(team) == 85
    started = time.process_time()
    assert check_team(team, phi, max_team=len(team)) is eval_qbf(q) is False
    assert time.process_time() - started < 1


def test_frontier_instance_deeper_than_80_levels_decides():
    # 88 traces and UNSAT; the goal is 5.5n + 2 = 90 levels deep, which a
    # depth bound of 80 rejected before any evaluation.
    q = frontier_qbf(16, 16)
    team, phi = reduce_to_tpc(q)
    assert len(team) == 88
    assert check_team(team, phi, max_team=len(team)) is eval_qbf(q) is False


def test_frontier_splits_read_one_trace_verdicts_off_masks():
    # 71 traces and SAT.  Which traces can go on each side of a split is
    # read off the one-trace masks, so hardly any one-trace team is
    # decided by the rules: checking each trace alone stored 8128 of the
    # 16 093 memo entries.
    team, phi = reduce_to_tpc(frontier_qbf(13, 13))
    ev = _TeamEval(team, phi, len(team))
    assert ev.check(ev.root, ev.top) is True
    entries = [sub for memo in ev.memo for sub in memo]
    assert sum(sub.bit_count() == 1 for sub in entries) <= 10
    assert len(entries) < 10_000


@pytest.mark.parametrize(
    "lengths, goals, verdict",
    [
        # p on the last world of each cycle: first together after lcm =
        # 2310 steps.
        ((2, 3, 5, 7, 11), (1, 2, 4, 6, 10), True),
        # p on odd steps only in the 2-cycle, on even ones in the 4-cycle.
        ((2, 4, 3, 5, 7), (0, 1, 0, 0, 0), False),
    ],
)
def test_open_until_sequence_gives_way_to_the_walk(lengths, goals, verdict):
    # The masks of F p repeat only after the lcm of the lengths, far
    # past the |S| + 1 sets (S the states of the team) after which the
    # node is decided by walking the suffix teams.
    def label(world):
        cycle, _, j = world[1:].partition("_")
        return ["p"] if j and int(j) == goals[int(cycle)] else []

    team = enumerate_traces(cycle_fan(lengths, label))
    ev = _TeamEval(team, parse_ltl("F p"), len(team))
    assert ev.check(ev.root, ev.top) is verdict
    (union,) = ev.unions[ev.top]
    assert union.rest is None
    assert check_team(team, parse_ltl("F (p \\|/ p)")) is verdict


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32))
def test_tpc_beyond_the_oracle_agrees_with_eval(seed):
    assert not suite_qbf_tpc(random.Random(seed), 1).mismatches


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32))
def test_many_clause_tpc_agrees_with_eval(seed):
    assert not suite_qbf_tpc_clauses(random.Random(seed), 1).mismatches


class TestCtlReduction:
    def test_structure_is_valid(self):
        # Building the structure checks it: a dead end or an undeclared
        # name would raise ValueError here.
        _, team, _ = reduce_to_tmc_ctl(worked_qbf())
        assert len(team) == len(worked_qbf().variables) + 1

    def test_worked_instance_checks_valid(self):
        k, team, phi = reduce_to_tmc_ctl(worked_qbf())
        assert mc_ctl(k, team, phi, limits=CtlLimits(max_worlds=128))

    def test_invalid_instance_rejected(self):
        q = normalize_qbf(parse_qbf_text("forall x\nx x x\n"))
        k, team, phi = reduce_to_tmc_ctl(q)
        assert not mc_ctl(k, team, phi, limits=CtlLimits(max_worlds=128))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32))
def test_reductions_agree_with_eval(seed):
    assert not suite_qbf_reductions(random.Random(seed), 1).mismatches


class TestPlSim:
    def test_contradiction_is_unsatisfiable(self):
        phi = And(p, CNeg(p))
        team, goal = reduce_plsim_to_tpc(phi)
        assert not check_team(team, goal)
        assert not pl_team_satisfiable_bruteforce(phi)

    def test_cneg_literal_is_satisfiable(self):
        phi = CNeg(p)
        team, goal = reduce_plsim_to_tpc(phi)
        assert check_team(team, goal)
        assert pl_team_satisfiable_bruteforce(phi)

    def test_split_with_contradictory_side(self):
        # p & ~p is satisfied by no team at all (the empty team satisfies p
        # but not ~p), so it poisons the whole splitjunction.
        phi = Split(And(p, CNeg(p)), q)
        assert not pl_team_satisfiable_bruteforce(phi)
        team, goal = reduce_plsim_to_tpc(phi)
        assert not check_team(team, goal)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32))
    def test_reduction_matches_bruteforce(self, seed):
        assert not suite_plsim(random.Random(seed), 1).mismatches
