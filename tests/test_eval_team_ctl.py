import random

import pytest
from hypothesis import given, settings, strategies as st

from teamtl.errors import ResourceCapError
from teamtl.eval_classical import check_ctl_classical
from teamtl.eval_team_ctl import CtlLimits, _CtlEval, mc_ctl, mc_ctl_bruteforce
from teamtl.fixtures import af_multiplicity_structure, ef_counterexample_structure
from teamtl.formula import AR, AU, AX, ER, EU, EX, Prop, Split, children, rebuild
from teamtl.kripke import KripkeStructure, MultiTeam
from teamtl.parser import parse_ctl
from teamtl.selftest import (
    random_ctl_formula,
    random_flat_body,
    random_flat_ctl_formula,
    random_kripke,
    random_multiteam,
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
        # a has no successor, so the team a,b has no successor team and
        # AX q holds on it vacuously, while b alone fails it: only the
        # split {} / {a,b} works.
        k = KripkeStructure.of(
            ["a", "b", "c"], [("b", "c"), ("c", "c")], {"a": ["p"]}
        )
        team = MultiTeam.of(["a", "b"])
        phi = parse_ctl("p | AX q")
        assert mc_ctl_bruteforce(k, team, phi)
        assert mc_ctl(k, team, phi)

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


def test_successors_deduplicate_multisets():
    k = KripkeStructure.of(
        ["a", "x", "y"], [("a", "x"), ("a", "y"), ("x", "x"), ("y", "y")]
    )
    ev = _CtlEval(k, 2, CtlLimits())
    found = ev.successors(ev.encode(["a", "a"]))
    assert sorted(found) == sorted(
        ev.encode(team) for team in (["x", "x"], ["x", "y"], ["y", "y"])
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


# -- the flat fragment against the brute-force oracle -----------------------
#
# ``EG``/``AG`` over literals, ``|``, ``&``, ``EX`` and ``AX`` is decided by
# world masks, and ``E``/``A[φ U/R ψ]`` over such operands by searches; the
# oracle knows neither shortcut.


def _flat_instance(seed):
    rng = random.Random(seed)
    k = random_kripke(rng)
    worlds, labels = k.worlds, dict(k.labels)
    if rng.random() < 0.5:
        # A rotation of the worlds by a fixed distance, plus a few of the
        # random edges: members on a cycle cannot wait for each other, and
        # most worlds share one successor shift.
        n, d = len(worlds), rng.choice((1, -1, 2))
        edges = {(w, worlds[(i + d) % n]) for i, w in enumerate(worlds)}
        edges |= {e for e in k.edges if rng.random() < 0.1}
        k = KripkeStructure.of(worlds, edges, labels)
    if rng.random() < 0.1:
        # A world without successors ends every synchronous path through it.
        dead = rng.choice(worlds)
        k = KripkeStructure.of(worlds, [e for e in k.edges if e[0] != dead], labels)
    team = random_multiteam(rng, k)
    if len(team) < 3 and rng.random() < 0.5:
        # At most three members: the oracle unrolls |W|^|T| steps deep.
        team = MultiTeam.of(team.worlds + (rng.choice(worlds),))
    return k, team, random_flat_ctl_formula(rng, rng.randint(0, 2))


def _from_index_zero(phi):
    """The until-from-one reading of ``phi`` in the ordinary one: a path
    satisfies E/A[φ U ψ] or E/A[φ R ψ] from index 1 iff its tail from the
    next team satisfies it from index 0, so E₁[φ U ψ] ≡ EX E[φ U ψ] and
    A₁[φ U ψ] ≡ AX A[φ U ψ], applied to every U and R node."""
    node = rebuild(phi, map(_from_index_zero, children(phi)))
    if isinstance(node, (EU, ER)):
        return EX(node)
    if isinstance(node, (AU, AR)):
        return AX(node)
    return node


# Deciding E[φ U ψ] over flat operands pointwise, as if each member could
# reach ψ on its own schedule, is wrong on about one instance in 300; two
# thousand examples catch that mutant.
@settings(max_examples=2000, deadline=None)
@given(st.integers(0, 2**32))
def test_flat_fragment_agrees_with_bruteforce(seed):
    k, team, phi = _flat_instance(seed)
    assert mc_ctl(k, team, phi) == mc_ctl_bruteforce(k, team, phi)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32))
def test_flat_fragment_from_one_agrees_with_bruteforce(seed):
    k, team, phi = _flat_instance(seed)
    limits = CtlLimits(until_from_one=True)
    expected = mc_ctl_bruteforce(k, team, _from_index_zero(phi))
    assert mc_ctl(k, team, phi, limits=limits) == expected


# Worlds without successors make AX, AU and AR hold vacuously on every team
# holding them, so a flat side of a split must not decide which members the
# other side gets (``test_split_with_a_dead_end_member``); a split that did
# is wrong here on about one instance in 400.
@settings(max_examples=2000, deadline=None)
@given(st.integers(0, 2**32))
def test_splits_over_dead_ends_agree_with_bruteforce(seed):
    rng = random.Random(seed)
    k = random_kripke(rng)
    dead = rng.sample(k.worlds, rng.randint(1, max(1, len(k.worlds) - 1)))
    k = KripkeStructure.of(
        k.worlds, [e for e in k.edges if e[0] not in dead], dict(k.labels)
    )
    team = MultiTeam.of([rng.choice(k.worlds) for _ in range(rng.randint(0, 3))])
    flat = random_flat_body(rng, rng.randint(0, 2))
    other = random_ctl_formula(rng, rng.randint(1, 3))
    phi = Split(flat, other) if rng.random() < 0.5 else Split(other, flat)
    assert mc_ctl(k, team, phi) == mc_ctl_bruteforce(k, team, phi)
