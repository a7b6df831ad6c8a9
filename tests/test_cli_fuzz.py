"""Fuzzing the CLI: every input ends in a verdict (exit 0 or 1), an input
error (2) or a budget error (3), never in an internal error (5), and a
verdict is the library's verdict on the same files and formula."""

import json
import random
import tempfile
from pathlib import Path

from cli_runner import invoke
from hypothesis import example, given, settings, strategies as st

from teamtl.cli import main
from teamtl.eval_team_ctl import CtlLimits, mc_ctl
from teamtl.eval_team_ltl import check_team
from teamtl.files import dumps_kripke, dumps_team, loads_kripke, loads_team
from teamtl.fixtures import union_closure_team
from teamtl.kripke import MultiTeam, enumerate_traces
from teamtl.parser import parse_ctl, parse_ltl, render
from teamtl.selftest import (
    random_ctl_formula,
    random_kripke,
    random_lasso_forest,
    random_ltl_formula,
    random_team,
)
from teamtl.tmc_splitfree import check_model_splitfree

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.sampled_from(["a", "p", "w0", ""]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["traces", "prefix", "loop", "worlds", "edges", "labels",
                         "initial", "a", "w0"]),
        inner, max_size=4,
    ),
    max_leaves=12,
)

TOKENS = [
    "p", "q", "!", "~", "&", "|", "\\|/", "X", "F", "G", "U", "R", "(", ")",
    "[", "]", "E", "A", "EX", "AX", "EF", "AG", "dep(", "inc(", ";", ",",
    "TOP", "BOT", "foo(", "_taut", "#", "\n", "@", "5", "é",
]


@st.composite
def formula_texts(draw, ctl: bool):
    # Most formulas and files are well formed, so that many inputs end in
    # a verdict.
    kind = draw(st.sampled_from(["random"] * 4 + ["splitfree"] * 4 + ["tokens", "deep", "text"]))
    if kind in ("random", "splitfree"):
        rng = random.Random(draw(st.integers(0, 2**32)))
        generate = random_ctl_formula if ctl else random_ltl_formula
        return render(generate(
            rng, rng.randint(0, 5), allow_split=kind == "random",
            allow_cneg=True, allow_boolor=True, allow_atoms=kind == "random",
        ))
    if kind == "tokens":
        return " ".join(draw(st.lists(st.sampled_from(TOKENS), max_size=12)))
    if kind == "deep":
        opener = draw(st.sampled_from(["X ", "EX ", "~", "(", "dep(", "F ", "AG "]))
        depth = draw(st.sampled_from([1, 40, 79, 80, 81, 300]))
        return opener * depth + "p" + ")" * depth * (opener in ("(", "dep("))
    return draw(st.text(max_size=20))


@st.composite
def team_files(draw):
    kind = draw(st.sampled_from(["random"] * 8 + ["json", "mutated", "text", "deep"]))
    if kind == "random":
        return dumps_team(random_team(random.Random(draw(st.integers(0, 2**32)))))
    if kind == "json":
        return json.dumps(draw(json_values))
    if kind == "mutated":
        doc = json.loads(dumps_team(random_team(random.Random(draw(st.integers(0, 2**32))))))
        entries = doc["traces"] or [{"prefix": [], "loop": [["p"]]}]
        entries[0][draw(st.sampled_from(["prefix", "loop"]))] = draw(json_values)
        doc["traces"] = entries
        return json.dumps(doc)
    if kind == "text":
        return draw(st.text(max_size=20))
    return "[" * 5000 + "]" * 5000


@st.composite
def structure_files(draw):
    """A structure file and the world names it was drawn with."""
    kind = draw(st.sampled_from(
        ["random"] * 4 + ["forest"] * 4 + ["json", "mutated", "text", "deep"]
    ))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if kind in ("random", "forest"):
        k = random_kripke(rng) if kind == "random" else random_lasso_forest(rng)
        return dumps_kripke(k), list(k.worlds)
    if kind == "json":
        return json.dumps(draw(json_values)), []
    if kind == "mutated":
        k = random_kripke(rng)
        doc = json.loads(dumps_kripke(k))
        doc[draw(st.sampled_from(["worlds", "edges", "labels", "initial"]))] = \
            draw(json_values)
        return json.dumps(doc), list(k.worlds)
    if kind == "text":
        return draw(st.text(max_size=20)), []
    return '{"worlds": ' + "[" * 5000 + "]" * 5000 + "}", []


def library_verdict(command, document, text, mode, team_arg, max_team):
    if command == "check-path":
        return check_team(loads_team(document), parse_ltl(text), max_team=max_team)
    k = loads_kripke(document)
    if mode == "ctl":
        team = MultiTeam.of(team_arg.split(","))
        limits = CtlLimits(max_team=len(team), max_worlds=len(k.worlds))
        return mc_ctl(k, team, parse_ctl(text), limits=limits)
    if mode == "ltl-splitfree":
        return check_model_splitfree(k, parse_ltl(text))
    return check_team(enumerate_traces(k), parse_ltl(text), max_team=max_team)


TEAM = dumps_team(union_closure_team())


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(["check-path", "check-model"]))
    mode = draw(st.sampled_from(["ltl-splitfree", "ltl-enumerate", "ctl"]))
    if command == "check-path":
        document, worlds = draw(team_files()), []
    else:
        document, worlds = draw(structure_files())
    text = draw(formula_texts(ctl=command == "check-model" and mode == "ctl"))
    team_arg = ",".join(draw(st.lists(
        st.sampled_from(worlds * 4 + ["z", ""]), min_size=1, max_size=3,
    )))
    max_team = draw(st.sampled_from([0, 1, 16]))
    return command, document, text, mode, team_arg, max_team


@settings(max_examples=500, deadline=None)
@given(invocations())
# Formula texts that are options, or their end, when they come before "--".
@example(("check-path", TEAM, "--help", "ctl", "", 16))
@example(("check-path", TEAM, "--", "ctl", "", 16))
@example(("check-path", TEAM, "-p", "ctl", "", 16))
@example(("check-path", TEAM, "--max-team", "ctl", "", 16))
def test_every_input_ends_in_a_verdict_or_a_clean_error(invocation):
    command, document, text, mode, team_arg, max_team = invocation
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(document)
        args = [command, "--max-team", str(max_team)]
        if command == "check-model":
            args += ["--mode", mode, "--team", team_arg]
        result = invoke(main, [*args, "--", str(path), text])
    assert result.exit_code in (0, 1, 2, 3), (result.exit_code, result.output)
    if result.exit_code in (0, 1):
        expected = library_verdict(command, document, text, mode, team_arg, max_team)
        assert result.exit_code == (0 if expected else 1)


def _check_model(tmp_path, doc, *args):
    path = tmp_path / "k.json"
    path.write_text(json.dumps(doc))
    return invoke(main, ["check-model", str(path), *args])


def test_labels_that_are_no_object_exit_2(tmp_path):
    doc = {"worlds": ["a"], "edges": [["a", "a"]], "labels": [1]}
    result = _check_model(tmp_path, doc, "p")
    assert result.exit_code == 2
    assert "labels must be an object" in result.stderr


def test_an_initial_world_that_is_no_string_exit_2(tmp_path):
    doc = {"worlds": ["a"], "edges": [["a", "a"]], "initial": ["a"]}
    result = _check_model(tmp_path, doc, "p")
    assert result.exit_code == 2
    assert "invalid structure file: unhashable type" in result.stderr
