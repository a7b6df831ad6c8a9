import random

import pytest
from hypothesis import given, settings, strategies as st

from teamtl.errors import ResourceCapError
from teamtl.eval_classical import check_ctl_classical
from teamtl.eval_team_ctl import CtlLimits, _CtlEval, mc_ctl, mc_ctl_bruteforce
from teamtl.fixtures import af_multiplicity_structure, ef_counterexample_structure
from teamtl.formula import Prop
from teamtl.kripke import KripkeStructure, MultiTeam
from teamtl.parser import parse_ctl
from teamtl.selftest import random_ctl_formula, random_kripke, random_multiteam

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
        assert not mc_ctl(k, team, phi, limits=CtlLimits(until_from_one=True))


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


def test_successors_deduplicate_multisets():
    k = KripkeStructure.of(
        ["a", "x", "y"], [("a", "x"), ("a", "y"), ("x", "x"), ("y", "y")]
    )
    assert _CtlEval(k, CtlLimits()).successors(("a", "a")) == (
        ("x", "x"), ("x", "y"), ("y", "y"),
    )


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32))
def test_agrees_with_bruteforce(seed):
    rng = random.Random(seed)
    k = random_kripke(rng)
    team = random_multiteam(rng, k)
    phi = random_ctl_formula(rng, rng.randint(1, 4), allow_cneg=True)
    assert mc_ctl(k, team, phi) == mc_ctl_bruteforce(k, team, phi)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32))
def test_singleton_equals_classical(seed):
    rng = random.Random(seed)
    k = random_kripke(rng)
    w = rng.choice(k.worlds)
    phi = random_ctl_formula(rng, rng.randint(1, 5))
    assert mc_ctl(k, MultiTeam.of([w]), phi) == check_ctl_classical(k, w, phi)
