"""Which modules a CLI call loads, and the lazy names of the package.

Each check runs in a fresh interpreter, so that nothing another test
imported hides a module that the call would load.  It starts with ``-S``,
without the site packages, so a module that the package needs from
outside the standard library fails to import, and one found on the path
anyway fails the standard-library assertion."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import teamtl

SRC = str(Path(teamtl.__file__).parents[1])
FIXTURES = Path(__file__).parents[1] / "fixtures"

# The package's names as they were when `teamtl/__init__` imported every
# module: 75 functions, classes and constants, and 13 submodules.
ALL = [
    "AR", "AU", "AX", "And", "BoolOr", "CNeg", "CtlLimits", "DEFAULT_MAX_TEAM", "ER",
    "EU", "EX", "FileFormatError", "Formula", "GenAtomApp", "GenAtomDef",
    "GenAtomPresent", "KripkeStructure", "LassoForestViolation", "LassoTrace",
    "MultiTeam", "NegProp", "Next", "ParseError", "Prop", "QbfInstance",
    "QbfParseError", "Release", "ResourceCapError", "Split", "SplitjunctionPresent",
    "TeamEncoding", "TeamTLError", "UnsupportedNodeError", "Until", "bot",
    "canonicalize", "check_ctl_classical", "check_ltl_classical",
    "check_ltl_classical_extended", "check_model_splitfree", "check_team",
    "dependence_atom", "dumps_kripke", "dumps_team", "enumerate_traces", "errors",
    "eval_classical", "eval_qbf", "eval_team_ctl", "eval_team_ltl",
    "expand_shorthand", "files", "fixtures", "flatten", "formula", "formula_length",
    "from_index_zero", "inclusion_atom", "is_downward_closed", "is_successor_team",
    "kripke", "lcm_loop", "load_kripke", "load_team", "loads_kripke", "loads_team",
    "mc_ctl", "mc_ctl_bruteforce", "naive_oracle", "normalize_qbf", "parse_ctl",
    "parse_ltl", "parse_qbf_text", "parser", "pl_team_satisfiable_bruteforce",
    "prfx", "propositions", "qbf", "reduce_plsim_to_tpc", "reduce_to_tmc_ctl",
    "reduce_to_tpc", "render", "run_selftest", "selftest", "tmc_splitfree",
    "top", "trace",
]

LOADED = (
    "import json, sys\n"
    "outside = {m.split('.')[0] for m in sys.modules} - {*sys.stdlib_module_names, '__main__'}\n"
    "assert outside == {'teamtl'}, outside\n"
    "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'teamtl')))\n"
)


def run(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_by(args: list[str]) -> set[str]:
    """The teamtl modules loaded by one CLI call with ``args``."""
    code = (
        "from teamtl.cli import main\n"
        f"try:\n    main({args!r})\nexcept SystemExit:\n    pass\n" + LOADED
    )
    return set(json.loads(run(code).splitlines()[-1]))


def modules(*names: str) -> set[str]:
    return {"teamtl", *(f"teamtl.{n}" for n in names)}


def test_the_cli_imports_no_evaluator():
    loaded = set(json.loads(run("import teamtl.cli\n" + LOADED)))
    assert loaded == modules("cli", "errors", "files", "formula", "parser", "trace")


def test_check_path_loads_the_team_ltl_evaluator_only():
    args = ["check-path", str(FIXTURES / "union_closure_team.json"), "F p"]
    assert loaded_by(args) == modules(
        "cli", "errors", "files", "formula", "parser", "trace", "eval_team_ltl"
    )
    # The witness tree comes from the same evaluator run.
    assert loaded_by([*args, "--explain"]) == loaded_by(args)


def test_the_team_ltl_evaluator_loads_no_parser():
    # `_TeamEval.explain` imports `render` only when it is called.
    code = (
        "from teamtl.eval_team_ltl import check_team\n"
        "from teamtl.formula import Prop\n"
        "from teamtl.trace import LassoTrace, TeamEncoding\n"
        "check_team(TeamEncoding.of([LassoTrace.of([], [['p']])]), Prop('p'))\n" + LOADED
    )
    assert "teamtl.parser" not in json.loads(run(code))


def test_gen_without_check_loads_no_evaluator(tmp_path):
    args = ["gen", "qbf-ctl", str(FIXTURES / "worked_qbf.qbf"), "--out-dir", str(tmp_path)]
    assert not {"teamtl.eval_team_ltl", "teamtl.eval_team_ctl"} & loaded_by(args)


def test_ctl_check_model_loads_the_ctl_evaluator_only():
    args = [
        "check-model", str(FIXTURES / "ef_counterexample.json"), "EF p",
        "--mode", "ctl", "--team", "x1",
    ]
    assert loaded_by(args) == modules(
        "cli", "errors", "files", "formula", "parser", "trace",
        "kripke", "eval_team_ctl",
    )


def test_splitfree_check_model_loads_no_classical_evaluator(tmp_path):
    k = tmp_path / "k.json"
    k.write_text(json.dumps(
        {"worlds": ["a", "b"], "edges": [["a", "b"], ["b", "a"]],
         "labels": {"a": ["p"]}, "initial": "a"}
    ))
    args = ["check-model", str(k), "G F p", "--mode", "ltl-splitfree"]
    assert loaded_by(args) == modules(
        "cli", "errors", "files", "formula", "parser", "trace", "kripke", "tmc_splitfree"
    )


def test_all_is_unchanged():
    assert teamtl.__all__ == ALL


def test_every_name_imports_from_a_fresh_package():
    code = "".join(f"from teamtl import {name}\n" for name in ALL)
    run(code + "import teamtl\nassert set(teamtl.__all__) <= set(dir(teamtl))\n")


@pytest.mark.parametrize("name", ["no_such_name", "cli_main", "__wrapped__"])
def test_an_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(teamtl, name)
