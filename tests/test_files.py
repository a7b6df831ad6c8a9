import json

import pytest

from teamtl.files import (
    FileFormatError,
    dumps_kripke,
    dumps_team,
    loads_kripke,
    loads_team,
)
from teamtl.fixtures import ef_counterexample_structure, union_closure_team
from teamtl.kripke import KripkeStructure


def test_team_round_trip():
    team = union_closure_team()
    assert loads_team(dumps_team(team)) == team


def test_kripke_round_trip():
    k = ef_counterexample_structure()
    k2 = loads_kripke(dumps_kripke(k))
    assert set(k2.worlds) == set(k.worlds)
    assert k2.edges == k.edges
    assert all(k2.label(w) == k.label(w) for w in k.worlds)
    assert k2.initial == k.initial


def test_comments_are_stripped():
    text = '# a team\n{"traces": [{"prefix": [], "loop": [["p"]]}]}'
    assert len(loads_team(text)) == 1


def test_malformed_inputs():
    with pytest.raises(FileFormatError):
        loads_team("{not json")
    with pytest.raises(FileFormatError):
        loads_team('{"traces": [{"prefix": []}]}')
    with pytest.raises(FileFormatError):
        loads_team('{"traces": [{"prefix": [], "loop": []}]}')
    with pytest.raises(FileFormatError):
        loads_kripke('{"worlds": ["a"]}')


@pytest.mark.parametrize(
    "doc",
    [
        {"worlds": "a", "edges": [["a", "a"]]},
        {"worlds": ["a", 1], "edges": [["a", "a"]]},
        {"worlds": ["a"], "edges": {"a": "a"}},
        {"worlds": ["a"], "edges": ["aa"]},
        {"worlds": ["a"], "edges": [{"a": "a"}]},
        {"worlds": ["a"], "edges": [["a", 1]]},
        {"worlds": ["a"], "edges": [["a", ["a"]]]},
        {"worlds": ["a"], "edges": [["a"]]},
        {"worlds": ["a"], "edges": [["a", "a", "a"]]},
        {"worlds": ["a"], "edges": [["a", "a"]], "labels": ["p"]},
        {"worlds": ["a"], "edges": [["a", "a"]], "labels": {"a": "p"}},
        {"worlds": ["a"], "edges": [["a", "a"]], "labels": {"a": ["p", 1]}},
    ],
)
def test_malformed_structure_shapes(doc):
    with pytest.raises(FileFormatError):
        loads_kripke(json.dumps(doc))


def test_comments_and_hashes_in_structures():
    text = '# a one-world loop\n  # indented\n{"worlds": ["a"], "edges": [["a", "a"]]}'
    assert loads_kripke(text).worlds == ("a",)
    k = KripkeStructure.of(["a#b", "c"], [("a#b", "c"), ("c", "a#b")], {"a#b": ["p#"]}, "a#b")
    k2 = loads_kripke("# a comment line\n" + dumps_kripke(k))
    assert k2.worlds == k.worlds and k2.edges == k.edges and k2.labels == k.labels
    assert k2.initial == "a#b"
