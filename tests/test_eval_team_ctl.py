import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import teamtl

from teamtl.errors import ResourceCapError, UnsupportedNodeError
from teamtl.eval_team_ctl import (
    CtlLimits,
    _CtlEval,
    from_index_zero,
    mc_ctl,
    mc_ctl_bruteforce,
)
from teamtl.fixtures import af_multiplicity_structure, ef_counterexample_structure
from teamtl.formula import EX, Prop, Split
from teamtl.kripke import KripkeStructure, MultiTeam
from teamtl.parser import parse_ctl
from teamtl.qbf import reduce_to_tmc_ctl
from teamtl.selftest import (
    cycle_fan,
    random_ctl_formula,
    random_flat_ctl_formula,
    random_kripke,
    random_multiteam,
    random_qbf,
    suite_ctl_alone,
    suite_ctl_flat,
    suite_ctl_oracle,
    suite_ctl_singleton,
    suite_ctl_union,
    suite_shared_temporal,
)

p = Prop("p")


def loops(*worlds, labels=None, extra_edges=()):
    edges = [(w, w) for w in worlds] + list(extra_edges)
    return KripkeStructure.of(worlds, edges, labels or {})


class TestPinnedFixtures:
    def test_ef_needs_a_synchronous_witness(self):
        k = ef_counterexample_structure()
        ef_p = parse_ctl("EF p")
        assert mc_ctl(k, MultiTeam.of(["x1"]), ef_p)
        assert mc_ctl(k, MultiTeam.of(["y1"]), ef_p)
        assert not mc_ctl(k, MultiTeam.of(["x1", "y1"]), ef_p)

    def test_af_is_multiplicity_sensitive(self):
        k = af_multiplicity_structure()
        af_p = parse_ctl("AF p")
        assert mc_ctl(k, MultiTeam.of(["w"]), af_p)
        assert not mc_ctl(k, MultiTeam.of(["w", "w"]), af_p)


class TestBasics:
    def test_empty_team(self):
        k = loops("a")
        assert mc_ctl(k, MultiTeam.of([]), parse_ctl("AG p"))
        assert not mc_ctl(k, MultiTeam.of([]), parse_ctl("~AG p"))

    def test_team_indices_do_not_matter(self):
        k = af_multiplicity_structure()
        phi = parse_ctl("AF p")
        a = MultiTeam(((0, "w"), (1, "a1")))
        b = MultiTeam(((5, "a1"), (2, "w")))
        assert mc_ctl(k, a, phi) == mc_ctl(k, b, phi)

    def test_split_on_multiset(self):
        k = loops("a", "b", labels={"a": ["p"], "b": ["q"]})
        team = MultiTeam.of(["a", "a", "b"])
        assert mc_ctl(k, team, parse_ctl("p | q"))
        # the a-copies satisfy q on neither side of the split
        assert not mc_ctl(k, team, parse_ctl("q | q"))

    def test_split_with_a_dead_end_member(self):
        # a has no successor: a team holding a would have no successor team.
        with pytest.raises(ValueError, match="'a' has no successor"):
            KripkeStructure.of(["a", "b", "c"], [("b", "c"), ("c", "c")], {"a": ["p"]})

    def test_edge_to_an_undeclared_world(self):
        with pytest.raises(ValueError, match="'b' is not a declared"):
            KripkeStructure.of(["a"], [("a", "b")])

    def test_caps(self):
        k = loops("a")
        with pytest.raises(ResourceCapError):
            mc_ctl(k, MultiTeam.of(["a"] * 7), parse_ctl("p"))
        big = loops(*[f"w{i}" for i in range(13)])
        with pytest.raises(ResourceCapError):
            mc_ctl(big, MultiTeam.of(["w0"]), parse_ctl("p"))
        assert mc_ctl(
            big, MultiTeam.of(["w0"]), parse_ctl("TOP"),
            limits=CtlLimits(max_worlds=20),
        )

    @pytest.mark.parametrize("text", ["dep(EX p)", "inc(p; ~q)", "p \\|/ dep(AG p)"])
    def test_atom_parameters_are_propositional(self, text):
        with pytest.raises(UnsupportedNodeError, match="atom parameters"):
            mc_ctl(loops("a", labels={"a": ["p"]}), MultiTeam.of(["a"]), parse_ctl(text))

    def test_unknown_world(self):
        with pytest.raises(ValueError):
            mc_ctl(loops("a"), MultiTeam.of(["z"]), parse_ctl("p"))

    def test_until_from_one(self):
        k = KripkeStructure.of(
            ["w", "v"], [("w", "v"), ("v", "v")], {"w": ["p"]}
        )
        team = MultiTeam.of(["w"])
        phi = parse_ctl("EF p")
        assert mc_ctl(k, team, phi)
        assert not mc_ctl(k, team, from_index_zero(phi))
        # a steps to b or to c, and both loop; only b has q, only c has p.
        # From index 1 the team a itself is never inspected.
        k = KripkeStructure.of(
            ["a", "b", "c"], [("a", "b"), ("a", "c"), ("b", "b"), ("c", "c")],
            {"b": ["q"], "c": ["p"]},
        )
        verdicts = {  # formula: (from index 0, from index 1)
            # a has neither p nor q; b has q.
            "E[p U q]": (False, True),
            # a has !p; from 1, c has neither q nor !p.
            "A[q U !p]": (True, False),
            # q fails at a; b keeps q forever.
            "E[p R q]": (False, True),
            # p | q fails at a; b releases it with q, c keeps p forever.
            "A[q R (p | q)]": (False, True),
            "EG q": (False, True),
            "AG (p | q)": (False, True),
            # b has q on every reading; a and c never have it.
            "AG !q": (False, False),
            "EG !q": (True, True),
        }
        for text, (from_zero, from_one) in verdicts.items():
            for team in (MultiTeam.of(["a"]), MultiTeam.of(["a", "a"])):
                phi = parse_ctl(text)
                assert mc_ctl(k, team, phi) == from_zero, text
                assert mc_ctl(k, team, from_index_zero(phi)) == from_one, text


class TestSuccessorGraphReach:
    # E[φ U p] and A[φ U p] run the existential and the universal until
    # search over the successor-multiset graph; no world is labelled q,
    # so the invariant q stops both searches at the start team.
    def test_e_mode_finds_a_path(self):
        k = ef_counterexample_structure()
        phi = parse_ctl("E[TOP U p]")
        assert mc_ctl(k, MultiTeam.of(["x1"]), phi)
        assert not mc_ctl(k, MultiTeam.of(["x1", "y1"]), phi)
        assert not mc_ctl(k, MultiTeam.of(["x1"]), parse_ctl("E[q U p]"))

    def test_a_mode_requires_all_branches(self):
        k = af_multiplicity_structure()
        phi = parse_ctl("A[TOP U p]")
        assert mc_ctl(k, MultiTeam.of(["w"]), phi)
        assert not mc_ctl(k, MultiTeam.of(["w", "w"]), phi)
        assert not mc_ctl(k, MultiTeam.of(["w"]), parse_ctl("A[q U p]"))


def decided_by_masks(k, team, text):
    """The verdict of ``text``, after checking that its root node is
    decided by unions of masks."""
    ev = _CtlEval(k, len(team))
    node = ev.compile(parse_ctl(text))
    assert ev.fails[node] is None and ev.unions[node] is not None
    return ev.check(ev.encode(team.worlds), node)


class TestMaskUnions:
    def test_ef_counterexample(self):
        # Both members reach p, at different steps: deciding EF p member
        # by member, each on its own schedule, would answer True.
        k = ef_counterexample_structure()
        assert not decided_by_masks(k, MultiTeam.of(["x1", "y1"]), "EF p")
        # x2 and y1 both reach p in one step.
        assert decided_by_masks(k, MultiTeam.of(["x2", "y1"]), "EF p")
        assert decided_by_masks(k, MultiTeam.of(["x2", "y1"]), "EF p & E[TOP U !p]")
        assert not decided_by_masks(k, MultiTeam.of(["x1", "y1"]), "EF p & E[TOP U !p]")

    def test_empty_team(self):
        k = ef_counterexample_structure()
        assert decided_by_masks(k, MultiTeam.of([]), "E[q U p]")
        assert decided_by_masks(k, MultiTeam.of([]), "E[!q R p]")

    def test_conjunction_is_one_node(self):
        ev = _CtlEval(ef_counterexample_structure(), 2)
        node = ev.compile(parse_ctl("EF p & (!q & E[!q R p])"))
        assert len(ev.unions[node]) == 3

    @pytest.mark.parametrize("text", ["EF p", "E[!q U p]"])
    @pytest.mark.parametrize("team", [["c0_1", "c0_2"], ["c0_1", "c0_2", "c1_0"]])
    def test_cutoff(self, text, team):
        # Cycles of 7 to 23 worlds (c0 is the 7-cycle), p at each start:
        # the worlds n steps before a start repeat only after the lcm of
        # the lengths, about 5.4e8 steps, so the masks give way to the
        # search after |W|² + 1 of them.
        k = cycle_fan((7, 8, 9, 11, 13, 17, 19, 23), lambda w: ["p"] if w.endswith("_0") else [])
        start = time.process_time()
        ev = _CtlEval(k, len(team))
        node = ev.compile(parse_ctl(text))
        assert not ev.check(ev.encode(team), node)
        assert time.process_time() - start < 0.2
        (union,) = ev.unions[node]
        assert union.rest is None


@pytest.mark.parametrize("text", ["E[!q U p]", "EG !p", "AG !p"])
def test_bruteforce_unrolls_only_as_deep_as_there_are_multisets(text):
    # 4 members on a 5-cycle: 70 multisets, so the oracle unrolls 70 steps
    # deep, where 5^4 = 625 steps would exhaust the recursion limit.
    worlds = "abcde"
    k = KripkeStructure.of(
        list(worlds), [(w, worlds[(i + 1) % 5]) for i, w in enumerate(worlds)],
        {"a": ["p"]},
    )
    team = MultiTeam.of(list("abcd"))
    phi = parse_ctl(text)
    assert mc_ctl_bruteforce(k, team, phi) == mc_ctl(k, team, phi)


def test_bruteforce_refuses_deep_unrolling():
    # 5 members on a 7-cycle: C(11, 5) = 462 multisets, too deep to unroll.
    worlds = [f"w{i}" for i in range(7)]
    k = KripkeStructure.of(worlds, [(w, worlds[(i + 1) % 7]) for i, w in enumerate(worlds)])
    team = MultiTeam.of(worlds[:5])
    with pytest.raises(ResourceCapError, match="unroll"):
        mc_ctl_bruteforce(k, team, parse_ctl("EG !p"))
    assert mc_ctl(k, team, parse_ctl("EG !p"))


def test_bruteforce_refuses_a_recursion_past_the_stack():
    # EF p under 137 EX, unrolled 120 steps: the formula is within the
    # depth bound and the unrolling within its cap, but the two stack.
    worlds = [f"c{i}" for i in range(7)]
    k = KripkeStructure.of(worlds, [(w, worlds[(i + 1) % 7]) for i, w in enumerate(worlds)])
    phi = parse_ctl("E[TOP U p]")
    for _ in range(137):
        phi = EX(phi)
    with pytest.raises(ResourceCapError, match="recursion"):
        mc_ctl_bruteforce(k, MultiTeam.of(["c0"]), phi, depth=120)
    assert not mc_ctl(k, MultiTeam.of(["c0"]), phi)


def test_successors_deduplicate_multisets():
    k = KripkeStructure.of(
        ["a", "x", "y"], [("a", "x"), ("a", "y"), ("x", "x"), ("y", "y")]
    )
    ev = _CtlEval(k, 2)
    found = ev.successors(ev.encode(["a", "a"]))
    assert sorted(found) == sorted(
        ev.encode(team) for team in (["x", "x"], ["x", "y"], ["y", "y"])
    )


@pytest.mark.parametrize("text,team,expected", [
    ("p | ~q", ["a", "a", "c"], True),
    ("p | ~q", ["b", "b"], False),
    ("(~!q) | !p", ["a", "a", "b"], True),
    ("(~!q) | !p", ["a", "a", "c"], False),
    ("(~AX p) | EX q", ["b", "b"], True),
    ("(~AX p) | EX q", ["a", "a"], False),
    # Neither side is downward closed: only a cover puts the one member on
    # both sides.
    ("(~BOT) | (~BOT)", ["a"], True),
])
def test_splits_with_negated_sides(text, team, expected):
    # Where one side is downward closed, mc_ctl splits the team's copies
    # between the sides; the oracle tries every cover.
    k = KripkeStructure.of(
        ["a", "b", "c"], [("a", "a"), ("b", "b"), ("c", "c"), ("c", "a")],
        {"a": ["p"], "b": ["q"]},
    )
    phi, team = parse_ctl(text), MultiTeam.of(team)
    assert mc_ctl(k, team, phi) == mc_ctl_bruteforce(k, team, phi) == expected


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32))
def test_agrees_with_bruteforce(seed):
    assert not suite_ctl_oracle(random.Random(seed), 1).mismatches


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32))
def test_singleton_equals_classical(seed):
    assert not suite_ctl_singleton(random.Random(seed), 1).mismatches


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32))
def test_one_world_masks_equal_classical(seed):
    assert not suite_ctl_alone(random.Random(seed), 1).mismatches


@pytest.mark.parametrize("text,copies,expected", [
    ("AX EF p", 1, True),
    ("AX EF p", 2, False),
    ("(AX EF p) | (AX EF p)", 2, True),
    ("(AX EF p) | (AX EF p)", 3, False),
    ("(AX EF p) | ~(AX EF p)", 3, True),
])
def test_one_copy_holding_a_side_alone_does_not_let_every_copy_join(text, copies, expected):
    # Each copy of w holds AX EF p alone, but two copies can step to a and
    # b, which never reach p at one step.  So a split side takes at most
    # one copy of w, which the maximal-part test finds by adding one copy
    # at a time.
    k = KripkeStructure.of(
        ["w", "a", "b", "c", "d"],
        [("w", "a"), ("w", "b"), ("a", "d"), ("b", "c"), ("c", "d"), ("d", "d")],
        {"a": ["p"], "c": ["p"]},
    )
    phi, team = parse_ctl(text), MultiTeam.of(["w"] * copies)
    assert mc_ctl(k, team, phi) == mc_ctl_bruteforce(k, team, phi) == expected


@pytest.mark.parametrize("text,expected", [
    ("(AX EF p) | (AX EF p)", False),
    ("(AX EF p) | ~(AX EF p)", True),
    ("(~p) | (~q)", True),
])
def test_splits_over_many_copies_of_one_world_enumerate_each_multiset_once(text, expected):
    # A split of 24 copies of w has 25 distinct parts: the disjoint, the
    # one-closed and the cover enumeration each visit every sub-multiset
    # once, where 2^24 index sets would not finish.
    k = KripkeStructure.of(
        ["w", "a", "b", "c", "d"],
        [("w", "a"), ("w", "b"), ("a", "d"), ("b", "c"), ("c", "d"), ("d", "d")],
        {"a": ["p"], "c": ["p"]},
    )
    started = time.process_time()
    team = MultiTeam.of(["w"] * 24)
    assert mc_ctl(k, team, parse_ctl(text), limits=CtlLimits(max_team=24)) == expected
    assert time.process_time() - started < 1


# The verdicts of the 20 instances per team size, in the order drawn.
SPLIT_RECIPE_VERDICTS = {
    8: "11110111111111111110",
    10: "10111111111011011111",
    12: "11011111111110111111",
}


def test_splits_beside_flat_sides_decide_within_a_cpu_bound():
    # Splits of four flat CTL formulas (pointwise EG/AG splits, or one U/R
    # over pointwise operands) on teams of 8, 10 and 12 members over up to
    # 12 worlds, with copies.  Enumerating every count assignment took
    # about 29 s of CPU time for the three sizes, 28 s of it on one
    # instance of size 12 (2-core shared VM, Python 3.11).
    started = time.process_time()
    for size, pinned in SPLIT_RECIPE_VERDICTS.items():
        r = random.Random(size)
        verdicts = ""
        for _ in range(20):
            k = random_kripke(r, max_worlds=12)
            phi = random_flat_ctl_formula(r, 3)
            for _ in range(3):
                phi = Split(phi, random_flat_ctl_formula(r, 3))
            worlds = list(k.worlds[:size])
            while len(worlds) < size:
                worlds.append(r.choice(k.worlds))
            limits = CtlLimits(max_team=size, max_worlds=64)
            verdicts += "01"[mc_ctl(k, MultiTeam.of(worlds), phi, limits=limits)]
        assert verdicts == pinned, size
    assert time.process_time() - started < 10


@settings(max_examples=2000, deadline=None)
@given(st.integers(0, 2**32))
def test_flat_fragment_agrees_with_bruteforce(seed):
    assert not suite_ctl_flat(random.Random(seed), 1).mismatches


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32))
def test_masks_agree_with_the_search(seed):
    assert not suite_ctl_union(random.Random(seed), 1).mismatches


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32))
def test_shared_searches_agree_with_the_oracles(seed):
    assert not suite_shared_temporal(random.Random(seed), 1).mismatches


def test_splits_over_dead_ends_are_rejected():
    # Read vacuously on the dead ends, AX would not be downward closed:
    # with a, b -> b2 and c -> c2, the cover {a,b} / {a,c} satisfies
    # (AX q & !s) | (AX r & !t) while no disjoint split does.
    with pytest.raises(ValueError, match="'a' has no successor"):
        KripkeStructure.of(
            ["a", "b", "b2", "c", "c2"], [("b", "b2"), ("c", "c2")],
            {"b": ["t"], "b2": ["r"], "c": ["s"], "c2": ["q"]},
        )


def test_unknown_team_member_is_named():
    k = ef_counterexample_structure()
    with pytest.raises(ValueError, match="team member 'z' is not a world of the structure"):
        mc_ctl(k, MultiTeam.of(["x1", "z"]), parse_ctl("EF p"))


def _successor_walk(k, worlds, limit=300):
    """Every successor tuple met on a walk of up to ``limit`` keys."""
    ev = _CtlEval(k, len(worlds))
    frontier, seen, found = [ev.encode(worlds)], set(), []
    while frontier and len(seen) < limit:
        key = frontier.pop()
        seen.add(key)
        found.append(ev.successors(key))
        frontier += [s for s in found[-1] if s not in seen]
    return ev.succ_steps, found


@pytest.mark.parametrize("seed", range(3))
def test_successor_order_does_not_follow_the_edge_order(seed):
    # A QBF gadget and a dense random structure, each built again from its
    # edges in a shuffled order, list the same successors in the same
    # order: the name order, whatever order the edge set iterates in.
    rng = random.Random(seed)
    gadget, team, _ = reduce_to_tmc_ctl(random_qbf(rng, max_vars=4, max_clauses=4))
    dense = random_kripke(rng, max_worlds=7)
    for k, worlds in ((gadget, team.worlds), (dense, dense.worlds[:3])):
        assert all(list(ss) == sorted(ss) for ss in k.succ.values())
        edges = sorted(k.edges)
        rng.shuffle(edges)
        other = KripkeStructure.of(k.worlds, edges, k.labels, k.initial)
        assert other.succ == k.succ and other.succ_ids == k.succ_ids
        assert _successor_walk(other, worlds) == _successor_walk(k, worlds)


def test_successor_order_does_not_follow_the_hash_seed():
    # The edge set iterates in an order that follows the string hash seed.
    code = (
        "import random\n"
        "from teamtl.qbf import reduce_to_tmc_ctl\n"
        "from teamtl.selftest import random_qbf\n"
        "from test_eval_team_ctl import _successor_walk\n"
        "k, team, _ = reduce_to_tmc_ctl(random_qbf(random.Random(3), 4, 4))\n"
        "print(_successor_walk(k, team.worlds))\n"
    )
    paths = os.pathsep.join([str(Path(teamtl.__file__).parents[1]), str(Path(__file__).parent)])
    runs = {
        subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=paths),
        ).stdout
        for seed in (0, 1, 2)
    }
    assert len(runs) == 1


@pytest.mark.parametrize(
    "text",
    [
        "E[(p \\|/ q) U E[(q \\|/ !p) U (p \\|/ p)]]",
        "A[(p \\|/ q) R (q \\|/ !p)]",
        "A[(p \\|/ p) R E[(q \\|/ q) U (p \\|/ p)]]",
        "E[A[(p \\|/ p) R (q \\|/ q)] U (p \\|/ q)]",
    ],
)
def test_nested_searches_over_non_flat_operands(text):
    # \\|/ keeps every operand off the masks, so each node is decided by
    # a search that memoises the teams it passes, and the outer search
    # reads those verdicts.
    phi = parse_ctl(text)
    rng = random.Random(text)
    for _ in range(60):
        k = random_kripke(rng)
        team = random_multiteam(rng, k)
        assert mc_ctl(k, team, phi) == mc_ctl_bruteforce(k, team, phi), (k, team)


def test_path_search_memoises_only_the_path_found():
    # From a the search for E[q U p] visits b and c and finds the path
    # a, c.  Team b never reaches p, so EX ~E[q U p] holds at a; it reads
    # the verdict on b that the first search left in the memo.
    k = KripkeStructure.of(
        ["a", "b", "c"], [("a", "b"), ("a", "c"), ("b", "b"), ("c", "c")],
        {"a": ["q"], "b": ["q"], "c": ["p"]},
    )
    eu = "E[(q \\|/ q) U (p \\|/ p)]"
    phi = parse_ctl(f"{eu} & EX ~{eu}")
    assert mc_ctl(k, MultiTeam.of(["a"]), phi)
    assert mc_ctl_bruteforce(k, MultiTeam.of(["a"]), phi)


def test_region_search_memoises_the_teams_it_decides(monkeypatch):
    # AG AF (p \\|/ p) on one member of a 250-cycle with p on one world:
    # each AF search from the next team stops at the team the previous
    # one memoised, so the nested searches step each team about twice.
    # With the start team memoised alone it takes n(n+1)/2 = 31375 steps.
    n = 250
    worlds = [f"w{i}" for i in range(n)]
    k = KripkeStructure.of(
        worlds, [(w, worlds[(i + 1) % n]) for i, w in enumerate(worlds)], {"w0": ["p"]}
    )
    successors = _CtlEval.successors
    calls = []

    def spy(self, team):
        calls.append(team)
        return successors(self, team)

    monkeypatch.setattr(_CtlEval, "successors", spy)
    phi = parse_ctl("AG AF (p \\|/ p)")
    assert mc_ctl(k, MultiTeam.of(["w1"]), phi, limits=CtlLimits(max_worlds=n))
    assert len(calls) <= 2 * n


def test_nested_searches_keep_no_successors():
    # The third draw of this recipe is a split whose right side, EX AX
    # A[AX p U p], steps about a thousand teams of the first 5 members on
    # a 10-world structure with 43 edges: half a million successor keys,
    # 20 MiB, if they were kept.  Only the teams the searches hold stay.
    r = random.Random(10)
    for _ in range(3):
        k = random_kripke(r, max_worlds=12)
        phi = Split(random_ctl_formula(r, r.randint(3, 6)), random_ctl_formula(r, r.randint(2, 5)))
        worlds = [r.choice(k.worlds) for _ in range(10)]
    assert phi.right == parse_ctl("EX AX A[AX p U p]")
    tracemalloc.start()
    try:
        assert not mc_ctl(k, MultiTeam.of(worlds[:5]), phi.right)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
