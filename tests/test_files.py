import json

import pytest
from hypothesis import given, strategies as st

from teamtl.files import (
    FileFormatError,
    dumps_kripke,
    dumps_team,
    loads_kripke,
    loads_team,
)
from teamtl.fixtures import ef_counterexample_structure, union_closure_team
from teamtl.kripke import KripkeStructure
from teamtl.trace import LassoTrace, TeamEncoding


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


def _team_text(*traces) -> str:
    return json.dumps({"traces": [{"prefix": p, "loop": l} for p, l in traces]})


@pytest.mark.parametrize(
    "traces",
    [
        # A prefix tail that folds into the loop: a b (a b)^ω is (a b)^ω.
        [([["a"], ["b"]], [["a"], ["b"]])],
        # A loop that is not primitive.
        [([["q"]], [["p"], [], ["p"], []])],
        # Two encodings of one trace, and a third trace.
        [([["a"]], [["b"], ["a"]]), ([], [["a"], ["b"]]), ([["b"]], [[]])],
        # Label lists out of order, with a repeat.
        [([["q", "p"]], [["p", "q", "p"], []]), ([], [["r", "p"]])],
    ],
)
def test_loader_canonicalises_like_the_constructor(traces):
    loaded = loads_team(_team_text(*traces))
    built = TeamEncoding.of([LassoTrace.of(p, l) for p, l in traces])
    assert loaded == built
    assert loaded.order == built.order


_positions = st.lists(st.sampled_from(["p", "q", "r"]), max_size=3)


@given(st.lists(
    st.tuples(st.lists(_positions, max_size=3), st.lists(_positions, min_size=1, max_size=3)),
    max_size=4,
))
def test_team_text_round_trip(traces):
    team = TeamEncoding.of([LassoTrace.of(p, l) for p, l in traces])
    again = loads_team(dumps_team(team))
    assert again == team
    assert again.order == team.order


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
        {"traces": [{"prefix": ["p"], "loop": [[]]}]},
        {"traces": [{"prefix": [], "loop": [[], "p"]}]},
        {"traces": [{"prefix": [], "loop": [["p", 1]]}]},
        {"traces": [{"prefix": [[None]], "loop": [[]]}]},
        {"traces": [{"prefix": [], "loop": [["p", ["q"]]]}]},
        {"traces": [{"prefix": [], "loop": [[{"p": 1}]]}]},
        {"traces": [{"prefix": 3, "loop": [[]]}]},
        {"traces": {"prefix": [], "loop": [[]]}},
        {"traces": 5},
        {"traces": [["p"]]},
        {"traces": ["p"]},
        {"traces": [{"loop": [[]]}]},
        {"traces": [{"prefix": [], "loop": [[]]}, {"prefix": []}]},
        ["traces"],
    ],
)
def test_malformed_team_shapes(doc):
    with pytest.raises(FileFormatError):
        loads_team(json.dumps(doc))


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


@pytest.mark.parametrize("endpoint", [1, None, True, 1.5, ["b"], {"a": 1}])
@pytest.mark.parametrize("at", [0, 1])
def test_edge_endpoints_that_are_no_strings(endpoint, at):
    # The loader checks only that an edge is a list of two; building the
    # structure rejects an endpoint that is no declared world.
    edge = ["a", "a"]
    edge[at] = endpoint
    doc = {"worlds": ["a"], "edges": [["a", "a"], edge]}
    with pytest.raises(FileFormatError):
        loads_kripke(json.dumps(doc))


def test_comments_and_hashes_in_structures():
    text = '# a one-world loop\n  # indented\n{"worlds": ["a"], "edges": [["a", "a"]]}'
    assert loads_kripke(text).worlds == ("a",)
    k = KripkeStructure.of(["a#b", "c"], [("a#b", "c"), ("c", "a#b")], {"a#b": ["p#"]}, "a#b")
    k2 = loads_kripke("# a comment line\n" + dumps_kripke(k))
    assert k2.worlds == k.worlds and k2.edges == k.edges and k2.labels == k.labels
    assert k2.initial == "a#b"
