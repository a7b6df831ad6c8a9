import pytest

from teamtl import kripke
from teamtl.errors import LassoForestViolation
from teamtl.kripke import (
    KripkeStructure,
    MultiTeam,
    enumerate_traces,
    is_successor_team,
)
from teamtl.qbf import assignment_structure
from teamtl.selftest import cycle_fan
from teamtl.trace import LassoTrace


def chain(*worlds, loop_last=True):
    edges = list(zip(worlds, worlds[1:]))
    if loop_last:
        edges.append((worlds[-1], worlds[-1]))
    return KripkeStructure.of(worlds, edges, initial=worlds[0])


def test_construction_reports_problems():
    with pytest.raises(ValueError) as problems:
        KripkeStructure.of(
            ["a", "b"], [("a", "b"), ("e", "a"), ("a", "f")], {"c": ["p"]}, initial="d"
        )
    message = str(problems.value)
    assert "world 'b' has no successor" in message  # b is not left-total
    assert "edge source 'e' is not a declared world" in message
    assert "edge target 'f' is not a declared world" in message
    assert "undeclared world 'c'" in message
    assert "initial world 'd'" in message
    assert chain("a", "b").succ == {"a": ("b",), "b": ("b",)}
    # The empty structure is legal: it carries the empty team.
    assert KripkeStructure.of([], []).worlds == ()


def test_world_numbering():
    k = KripkeStructure.of(["b", "c", "a"], [("b", "c"), ("b", "a"), ("c", "c"), ("a", "b")])
    assert k.index == {"b": 0, "c": 1, "a": 2}
    # Successors are listed by number in name order: a before c.
    assert k.succ_ids == ((2, 1), (1,), (0,))
    assert k.succ == {"b": ("a", "c"), "c": ("c",), "a": ("b",)}
    # A name declared twice is rejected, not numbered twice.
    with pytest.raises(ValueError, match="world 'a' is declared more than once"):
        KripkeStructure.of(["a", "b", "a"], [("a", "b"), ("b", "a")])


class TestSuccessorTeam:
    def test_simple_step(self):
        k = chain("a", "b")
        assert is_successor_team(k, MultiTeam.of(["a"]), MultiTeam.of(["b"]))
        assert not is_successor_team(k, MultiTeam.of(["a"]), MultiTeam.of(["a"]))

    def test_multiplicity_must_match(self):
        k = KripkeStructure.of(
            ["a", "x", "y"], [("a", "x"), ("a", "y"), ("x", "x"), ("y", "y")]
        )
        t1 = MultiTeam.of(["a", "a"])
        assert is_successor_team(k, t1, MultiTeam.of(["x", "y"]))
        assert is_successor_team(k, t1, MultiTeam.of(["x", "x"]))
        assert not is_successor_team(k, t1, MultiTeam.of(["x"]))
        assert not is_successor_team(k, t1, MultiTeam.of(["x", "x", "y"]))

    def test_per_position_feasibility_is_not_enough(self):
        """Every left member can reach some right world, every right world is
        reached, and the sizes match — yet no per-member assignment uses each
        right entry exactly once.  The matching test must reject this."""
        k = KripkeStructure.of(
            ["a", "b", "c", "x", "y"],
            [("a", "x"), ("b", "x"), ("c", "x"), ("c", "y"),
             ("x", "x"), ("y", "y")],
        )
        t1 = MultiTeam.of(["a", "b", "c"])
        t2 = MultiTeam.of(["x", "y", "y"])
        assert not is_successor_team(k, t1, t2)
        assert is_successor_team(k, t1, MultiTeam.of(["x", "x", "y"]))

    def test_indices_are_ignored(self):
        k = chain("a", "b")
        t2a = MultiTeam(((0, "b"), (1, "b")))
        t2b = MultiTeam(((7, "b"), (3, "b")))
        t1 = MultiTeam.of(["a", "a"])
        assert is_successor_team(k, t1, t2a) == is_successor_team(k, t1, t2b)

    def test_unknown_world_rejected(self):
        k = chain("a", "b")
        with pytest.raises(ValueError):
            is_successor_team(k, MultiTeam.of(["z"]), MultiTeam.of(["a"]))


class TestEnumerateTraces:
    def test_single_chain(self):
        k = chain("a", "b")
        k = KripkeStructure.of(k.worlds, k.edges, {"b": ["p"]}, initial="a")
        team = enumerate_traces(k)
        assert set(team.traces) == {
            LassoTrace.of([[]], [["p"]]),
        }

    def test_branching_stem_is_fine(self):
        k = KripkeStructure.of(
            ["r", "a", "b"],
            [("r", "a"), ("r", "b"), ("a", "a"), ("b", "b")],
            {"a": ["p"]},
            initial="r",
        )
        assert len(enumerate_traces(k)) == 2

    def test_branching_on_cycle_rejected(self):
        k = KripkeStructure.of(
            ["a", "b"], [("a", "a"), ("a", "b"), ("b", "b")], initial="a"
        )
        with pytest.raises(LassoForestViolation) as exc:
            enumerate_traces(k)
        assert exc.value.world == "a"

    def test_first_violation_in_name_order_is_named(self):
        # Both c and b branch on a cycle; b comes first by name.
        k = KripkeStructure.of(
            ["r", "c", "b", "x"],
            [("r", "c"), ("r", "b"), ("c", "c"), ("c", "x"), ("b", "b"), ("b", "x"),
             ("x", "x")],
            initial="r",
        )
        with pytest.raises(LassoForestViolation) as exc:
            enumerate_traces(k)
        assert exc.value.world == "b"

    def test_cycles_are_searched_only_from_branching_worlds(self, monkeypatch):
        # The benchmark's lasso fan: a root into cycles of 7, 8, 9 and 11.
        k = cycle_fan((7, 8, 9, 11), lambda w: ["p"] if w.endswith("_0") else [])
        searched = []
        on_cycle = kripke._on_cycle
        monkeypatch.setattr(
            kripke, "_on_cycle", lambda k, w: searched.append(w) or on_cycle(k, w)
        )
        assert len(enumerate_traces(k)) == 4
        assert searched == [k.index["r"]]
        assert all(len(k.succ_ids[w]) > 1 for w in searched)

    def test_unreachable_violations_are_ignored(self):
        k = KripkeStructure.of(
            ["a", "u"], [("a", "a"), ("u", "u"), ("u", "a")], initial="a"
        )
        assert len(enumerate_traces(k)) == 1

    def test_assignment_structure_yields_all_assignments(self):
        k = assignment_structure(["x", "y"])
        team = enumerate_traces(k)
        assert len(team) == 4

    def test_requires_initial_world(self):
        k = KripkeStructure.of(["a"], [("a", "a")])
        with pytest.raises(ValueError):
            enumerate_traces(k)
