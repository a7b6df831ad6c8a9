import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import teamtl
from teamtl.errors import ResourceCapError, UnsupportedNodeError
from teamtl.eval_team_ltl import _TeamEval, check_team, naive_oracle
from teamtl.fixtures import union_closure_team
from teamtl.formula import (
    And,
    CNeg,
    NegProp,
    Prop,
    Split,
    bot,
)
from teamtl.kripke import enumerate_traces
from teamtl.parser import parse_ltl
from teamtl.selftest import (
    cycle_fan,
    random_ltl_formula,
    suite_ltl_alone,
    suite_ltl_oracle,
    suite_ltl_downward_closed,
    suite_plsim,
    suite_split_one_dc,
    suite_ltl_structural,
    suite_ltl_union,
)
from teamtl.trace import LassoTrace, TeamEncoding, lcm_loop, prfx

p, q = Prop("p"), Prop("q")
positions = st.frozensets(st.sampled_from(["p", "q"]))


@st.composite
def merging_teams(draw):
    """Up to three traces that differ only at position 0, so their suffixes
    merge after one step, plus at most one other trace."""
    tail = tuple(draw(st.lists(positions, max_size=2)))
    loop = tuple(draw(st.lists(positions, min_size=1, max_size=3)))
    heads = draw(st.lists(positions, min_size=1, max_size=3, unique=True))
    traces = [LassoTrace((head,) + tail, loop) for head in heads]
    if draw(st.booleans()):
        traces.append(LassoTrace(
            tuple(draw(st.lists(positions, max_size=2))),
            tuple(draw(st.lists(positions, min_size=1, max_size=3))),
        ))
    return TeamEncoding.of(traces)


def team_of(*specs):
    return TeamEncoding.of(LassoTrace.of(pre, loop) for pre, loop in specs)


class TestBasics:
    def test_union_closure_counterexample(self):
        team = union_closure_team()
        f_p = parse_ltl("F p")
        assert not check_team(team, f_p)
        for t in team:
            assert check_team(TeamEncoding.of([t]), f_p)

    def test_empty_team_satisfies_cneg_free_formulas(self):
        empty = TeamEncoding.of([])
        for text in ["p", "!p", "F p", "G p", "p U q", "dep(p; q)", "BOT"]:
            assert check_team(empty, parse_ltl(text))
        assert not check_team(empty, CNeg(parse_ltl("p")))

    def test_split_needs_synchronous_witnesses(self):
        # Each trace satisfies its own side of the splitjunction.
        team = team_of(([["p"]], [[]]), ([["q"]], [[]]))
        assert check_team(team, parse_ltl("p | q"))
        assert not check_team(team, parse_ltl("p & q | p & q"))

    def test_globally(self):
        team = team_of(([], [["p"]]), ([["p"]], [["p"], ["p", "q"]]))
        assert check_team(team, parse_ltl("G p"))
        assert not check_team(team, parse_ltl("G q"))

    def test_cneg_flips_team_verdict(self):
        team = union_closure_team()
        assert check_team(team, parse_ltl("~F p"))

    def test_boolor_needs_whole_team(self):
        team = team_of(([["p"]], [[]]), ([["q"]], [[]]))
        assert check_team(team, parse_ltl("p | q"))
        assert not check_team(team, parse_ltl("p \\|/ q"))


class TestGenAtoms:
    def test_dependence(self):
        # q constant wherever p is constant: rows (p,q) must be functional.
        functional = team_of(
            ([["p", "q"]], [[]]), ([[]], [[]]), ([["p", "q"]], [["p"]])
        )
        broken = team_of(([["p", "q"]], [[]]), ([["p"]], [[]]))
        dep = parse_ltl("dep(p; q)")
        assert check_team(functional, dep)
        assert not check_team(broken, dep)

    def test_constancy(self):
        assert check_team(team_of(([["p"]], [[]]), ([["p"]], [["q"]])),
                          parse_ltl("dep(p)"))
        assert not check_team(team_of(([["p"]], [[]]), ([[]], [[]])),
                              parse_ltl("dep(p)"))

    def test_inclusion_is_not_downward_closed(self):
        inc = parse_ltl("inc(p; q)")
        team = team_of(([["p"]], [[]]), ([["q"]], [[]]))
        assert check_team(team, inc)
        # Dropping the witness trace breaks the inclusion.
        smaller = team_of(([["p"]], [[]]),)
        assert not check_team(smaller, inc)

    def test_atom_rows_are_classical(self):
        team = team_of(([["p"]], [[]]), ([[]], [[]]))
        assert not check_team(team, parse_ltl("dep(p)"))
        assert check_team(team, parse_ltl("dep(r)"))

    @pytest.mark.parametrize("text", [
        "dep(~p)", "dep(p \\|/ q)", "dep(dep(p))",
        # The atom is rejected where it is compiled, before the left side
        # would decide the disjunction.
        "p \\|/ dep(~p)",
    ])
    def test_atom_parameters_are_pure_ltl(self, text):
        with pytest.raises(UnsupportedNodeError, match="atom parameters"):
            check_team(team_of(([["p"]], [[]]),), parse_ltl(text))

    def test_atoms_see_temporal_parameters(self):
        # dep(; F p): eventual satisfaction of p is constant across the team.
        team = team_of(([["p"]], [[]]), ([[]], [["p"], []]))
        assert check_team(team, parse_ltl("dep(F p)"))
        mixed = team_of(([["p"]], [[]]), ([[]], [[]]))
        assert not check_team(mixed, parse_ltl("dep(F p)"))


class TestStrategies:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32))
    def test_disjoint_and_cover_splits_agree_on_dc_formulas(self, seed):
        assert not suite_ltl_downward_closed(random.Random(seed), 1).mismatches

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32))
    def test_splits_with_one_closed_side_match_naive_oracle(self, seed):
        assert not suite_split_one_dc(random.Random(seed), 1).mismatches

    def test_cover_splits_needed_under_cneg(self):
        # ~(p-side empty) forces both parts nonempty; with covers the single
        # trace can sit on both sides.
        team = team_of(([["p"]], [[]]),)
        phi = Split(CNeg(parse_ltl("BOT")), CNeg(parse_ltl("BOT")))
        assert check_team(team, phi)

    def test_team_cap(self):
        # A cover of two sides that are not downward closed counts every
        # trace.
        team = TeamEncoding.of(
            LassoTrace.of([], [[f"p{i}"]]) for i in range(5)
        )
        phi = parse_ltl("(~p0) | (~p1)")
        with pytest.raises(ResourceCapError):
            check_team(team, phi, max_team=4)

    def test_split_with_one_closed_side_counts_its_free_traces(self):
        # ~p0 | ~p1 reads ~(p0 | ~p1): the split's left side is flat, so
        # only the one trace with p0 is free to go on either side.
        team = TeamEncoding.of(
            LassoTrace.of([], [[f"p{i}"]]) for i in range(4)
        )
        phi = parse_ltl("~p0 | ~p1")
        assert check_team(team, phi, max_team=2) == naive_oracle(team, phi)
        with pytest.raises(ResourceCapError):
            check_team(team, parse_ltl("(~p0) | (~p1)"), max_team=2)

    @pytest.mark.parametrize("seed", range(3))
    def test_covers_only_when_neither_side_is_closed(self, seed, monkeypatch):
        reached = {"covers": [], "one closed": 0}
        covers, one_closed = _TeamEval._split_covers, _TeamEval._split_one_closed

        def spy_covers(self, mask, left, right):
            reached["covers"].append(self.dc[left] or self.dc[right])
            return covers(self, mask, left, right)

        def spy_one_closed(self, mask, closed, other):
            assert self.dc[closed] and not self.dc[other]
            reached["one closed"] += 1
            return one_closed(self, mask, closed, other)

        monkeypatch.setattr(_TeamEval, "_split_covers", spy_covers)
        monkeypatch.setattr(_TeamEval, "_split_one_closed", spy_one_closed)
        for suite in (suite_split_one_dc, suite_ltl_oracle, suite_plsim):
            assert not suite(random.Random(seed), 100).mismatches
        assert check_team(union_closure_team(), parse_ltl("(~p) | (~q)"))
        assert reached["covers"] and not any(reached["covers"])
        assert reached["one closed"]

    def test_cap_charges_only_what_a_split_enumerates(self):
        # An atom parameter's split runs on one trace and has a flat side.
        one = team_of(([], [["p"]]))
        assert check_team(one, parse_ltl("dep(F p | q)"), max_team=0)
        # Five traces, each able to go on one side only: no free trace.
        only = TeamEncoding.of(
            LassoTrace.of([], [[f"p{i % 2}"]]) for i in range(5)
        )
        assert check_team(only, parse_ltl("F p0 | F p1"), max_team=0)
        # Three traces able to go on either side are three free traces.
        free = TeamEncoding.of(
            LassoTrace.of([[f"r{i}"]], [["p0", "p1"]]) for i in range(3)
        )
        assert check_team(free, parse_ltl("F p0 | F p1"), max_team=3)
        with pytest.raises(ResourceCapError):
            check_team(free, parse_ltl("F p0 | F p1"), max_team=2)


class TestMaskUnions:
    def compiled(self, team, text):
        ev = _TeamEval(team, parse_ltl(text), len(team))
        return ev, ev.top

    @pytest.mark.parametrize("text", ["X p", "G p", "p U BOT", "F BOT", "X (p | X q)"])
    def test_flat_temporal_nodes(self, text):
        ev, node = self.compiled(union_closure_team(), text)
        assert ev.fails[node] is not None
        assert ev.check(ev.root, node) == naive_oracle(union_closure_team(), parse_ltl(text))

    @pytest.mark.parametrize(
        "text", ["F p", "!q U p", "(p | q) R p", "F p & G !q", "F p & !q & ((p | q) R p)"]
    )
    def test_until_and_release_are_mask_decided(self, text):
        ev, node = self.compiled(union_closure_team(), text)
        assert ev.fails[node] is None and ev.unions[node]
        assert ev.check(ev.root, node) == naive_oracle(union_closure_team(), parse_ltl(text))

    def test_split_beside_a_mask_union_reads_every_mask(self):
        # Each trace reaches p on its own, at a different step: the split
        # holds, and it has found every mask of its left side.
        ev, node = self.compiled(union_closure_team(), "F p | F p")
        assert ev.check(ev.root, node)
        (union,) = ev.unions[ev.args[node][0]]
        assert union.force() == union.masks and union.masks

    def test_split_beside_a_closed_union_checks_the_other_side_per_maximal_part(self):
        # The traces that can go on either side are read off the one-trace
        # masks: F p holds alone on the two states that reach p, F !p on
        # every state.  No one-trace team is checked against F p, and F !p
        # is checked only on the complement of the one maximal part of
        # F p, which here is one trace.
        ev, node = self.compiled(union_closure_team(), "F p | F !p")
        left, right = ev.args[node]
        assert ev.check(ev.root, node)
        reach_p = sum(1 << s for s, head in enumerate(ev.heads) if "p" in head)
        reach_p |= ev.pre_some(reach_p)
        assert (ev.alone[left], ev.alone[right]) == (reach_p, ev.full)
        assert list(ev.memo[left]) == []
        assert list(ev.memo[right]) == [ev.split(ev.root, node)[1]]


class TestOracleAgreement:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32))
    def test_masks_agree_with_the_walk(self, seed):
        assert not suite_ltl_union(random.Random(seed), 1).mismatches

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32))
    def test_matches_naive_oracle(self, seed):
        assert not suite_ltl_oracle(random.Random(seed), 1).mismatches

    @settings(max_examples=300, deadline=None)
    @given(merging_teams(), st.integers(0, 2**32))
    def test_matches_naive_oracle_on_merging_prefixes(self, team, seed):
        rng = random.Random(seed)
        phi = random_ltl_formula(
            rng, rng.randint(1, 6),
            allow_cneg=True, allow_boolor=True, allow_atoms=True,
        )
        if rng.random() < 0.3:
            # Both parts non-empty: a member may have to sit on both sides.
            sides = [
                And(CNeg(bot()), rng.choice([p, q, NegProp("p"), NegProp("q")]))
                for _ in range(2)
            ]
            phi = Split(*sides)
        assert check_team(team, phi) == naive_oracle(team, phi)

    # The structural suite checks the empty team, downward closure and
    # singleton equivalence on every instance.
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32))
    def test_singleton_equals_classical(self, seed):
        assert not suite_ltl_structural(random.Random(seed), 1).mismatches

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32))
    def test_downward_closure(self, seed):
        assert not suite_ltl_structural(random.Random(seed), 1).mismatches

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32))
    def test_one_trace_masks_equal_classical(self, seed):
        assert not suite_ltl_alone(random.Random(seed), 1).mismatches


def test_long_horizon_stops_at_first_witness():
    # Loop lengths 7, 11, 13, 17, 19, 23 and 2: the suffix teams repeat
    # only after lcm = 14 872 858 steps, but F (p & q) holds at position 0.
    loops = [7, 11, 13, 17, 19, 23, 2]
    team = TeamEncoding.of(
        LassoTrace.of([], [["p", "q"]] + [[]] * (n - 1)) for n in loops
    )
    assert prfx(team) + lcm_loop(team) == math.prod(loops) == 14_872_858
    assert check_team(team, parse_ltl("F (p & q)"))


def test_long_loop_interning_is_linear():
    # One member whose primitive loop has 5544 steps (lcm of 7, 8, 9, 11):
    # keying every rotation of the loop takes about 250 MB here.
    loop = [
        [name for name, m in (("p", 7), ("q", 8), ("r", 9), ("s", 11)) if i % m == 0]
        for i in range(5544)
    ]
    team = TeamEncoding.of([LassoTrace.of([], loop)])
    tracemalloc.start()
    try:
        assert check_team(team, parse_ltl("F (p & q)"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize(
    "text, verdict",
    [
        ("G F (p \\|/ q)", True),
        ("F G F (p \\|/ p)", True),
        ("G F (p \\|/ q) & F G (p \\|/ q)", False),
    ],
)
def test_nested_searches_are_linear_in_the_horizon(monkeypatch, text, verdict):
    # The team has 5544 suffix teams (lcm of 7, 8, 9, 11), and p holds
    # on one of them; \\|/ keeps every operand off the masks.  Each search
    # memoises every team it passes, so the nested ones step each suffix
    # team a bounded number of times, not once per outer team.
    team = enumerate_traces(
        cycle_fan((7, 8, 9, 11), lambda w: ["p"] if w.endswith("_0") else [])
    )
    successors = _TeamEval.successors
    calls = []

    def spy(self, mask):
        calls.append(mask)
        return successors(self, mask)

    monkeypatch.setattr(_TeamEval, "successors", spy)
    assert check_team(team, parse_ltl(text)) is verdict
    assert len(set(calls)) == 5544
    assert len(calls) <= 3 * 5544


def test_state_numbering_does_not_follow_the_hash_seed():
    # A team's traces are a frozenset, which iterates in an order that
    # follows the string hash seed; states are numbered in the team's order.
    code = (
        "import random\n"
        "from teamtl.eval_team_ltl import _TeamEval\n"
        "from teamtl.formula import Prop\n"
        "from teamtl.qbf import reduce_to_tpc\n"
        "from teamtl.selftest import random_qbf\n"
        "team, _ = reduce_to_tpc(random_qbf(random.Random(3), 4, 4))\n"
        "ev = _TeamEval(team, Prop('p'), len(team))\n"
        "print(len(team), ev.root, [sorted(head) for head in ev.heads])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(teamtl.__file__).parents[1]))
    runs = {
        subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env=dict(env, PYTHONHASHSEED=str(seed)),
        ).stdout
        for seed in (0, 1)
    }
    assert len(runs) == 1
