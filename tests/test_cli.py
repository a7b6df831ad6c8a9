import json
import time
from pathlib import Path

import cli_runner
import pytest

from teamtl.cli import main
from teamtl.files import dumps_kripke, dumps_team
from teamtl.fixtures import (
    WORKED_QBF_TEXT,
    af_multiplicity_structure,
    ef_counterexample_structure,
    union_closure_team,
    write_fixture_files,
)


@pytest.fixture
def runner():
    return cli_runner


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "team.json").write_text(dumps_team(union_closure_team()))
    (tmp_path / "ef.json").write_text(dumps_kripke(ef_counterexample_structure()))
    (tmp_path / "af.json").write_text(dumps_kripke(af_multiplicity_structure()))
    (tmp_path / "worked.qbf").write_text(WORKED_QBF_TEXT)
    return tmp_path


class TestCheckPath:
    def test_unsat_exit_1(self, runner, workspace):
        result = runner.invoke(main, ["check-path", str(workspace / "team.json"), "F p"])
        assert result.exit_code == 1
        assert "UNSAT" in result.output

    def test_sat_exit_0(self, runner, workspace):
        result = runner.invoke(main, ["check-path", str(workspace / "team.json"), "F TOP"])
        assert result.exit_code == 0
        assert "SAT" in result.output

    def test_parse_error_exit_2(self, runner, workspace):
        result = runner.invoke(main, ["check-path", str(workspace / "team.json"), "F ("])
        assert result.exit_code == 2

    def test_malformed_team_exit_2(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        result = runner.invoke(main, ["check-path", str(bad), "p"])
        assert result.exit_code == 2

    def test_oracle_cross_check(self, runner, workspace):
        result = runner.invoke(
            main, ["check-path", str(workspace / "team.json"), "F p", "--oracle"]
        )
        assert result.exit_code == 1
        assert "oracle: UNSAT" in result.output

    def test_explain_prints_witness_tree(self, runner, workspace):
        result = runner.invoke(
            main,
            ["check-path", str(workspace / "team.json"), "p | X p", "--explain"],
        )
        assert result.exit_code == 0
        assert "split:" in result.output

    @pytest.mark.parametrize(
        "formula, tree",
        [
            ("p & X q", ["p & X q  [2 traces]  SAT", "  p  [2 traces]  SAT",
                         "  X q  [2 traces]  SAT", "    q  [2 traces]  SAT"]),
            ("p | X p", ["p | X p  [2 traces]  SAT", "  split: 2 | 0 traces",
                         "  p  [2 traces]  SAT", "  X p  [0 traces]  SAT",
                         "    p  [0 traces]  SAT"]),
            ("q \\|/ p", ["q \\|/ p  [2 traces]  SAT", "  q  [2 traces]  UNSAT",
                          "  p  [2 traces]  SAT"]),
            ("p \\|/ q", ["p \\|/ q  [2 traces]  SAT", "  p  [2 traces]  SAT"]),
            ("~q", ["~q  [2 traces]  SAT", "  q  [2 traces]  UNSAT"]),
            ("p U q", ["p U q  [2 traces]  SAT", "  witness offset: 1",
                       "  q  [2 traces]  SAT"]),
            ("p R !r", ["p R !r  [2 traces]  SAT", "  release offset: 0",
                        "  p  [2 traces]  SAT"]),
            # The suffix teams repeat after three: R holds as G !r.
            ("G !r", ["G !r  [2 traces]  SAT", "  never released in 3 suffix teams",
                      "  !r  [2 traces]  SAT"]),
            ("dep(q)", ["dep(q)  [2 traces]  SAT"]),
            ("!r", ["!r  [2 traces]  SAT"]),
            ("F (p & q)", ["F (p & q)  [2 traces]  UNSAT"]),
        ],
    )
    def test_explain_opens_every_connective(self, runner, tmp_path, formula, tree):
        # Member one is p then q forever, member two alternates p and p, q.
        team_file = tmp_path / "t.json"
        team_file.write_text(json.dumps({"traces": [
            {"prefix": [["p"]], "loop": [["q"]]},
            {"prefix": [], "loop": [["p"], ["p", "q"]]},
        ]}))
        result = runner.invoke(main, ["check-path", str(team_file), formula, "--explain"])
        verdict = tree[0].split()[-1]
        assert result.exit_code == (0 if verdict == "SAT" else 1)
        assert result.output.splitlines() == [*tree, verdict]

    def test_explain_prints_a_cover_only_split(self, runner, tmp_path):
        # The one trace goes on both sides: no partition satisfies the split.
        team_file = tmp_path / "t.json"
        team_file.write_text(json.dumps({"traces": [{"prefix": [], "loop": [["p"]]}]}))
        result = runner.invoke(main, ["check-path", str(team_file), "(~BOT) | (~BOT)", "--explain"])
        assert result.exit_code == 0
        assert result.output.splitlines() == [
            "(~BOT) | ~BOT  [1 traces]  SAT", "  split: 1 | 1 traces",
            "  ~BOT  [1 traces]  SAT", "    BOT  [1 traces]  UNSAT",
            "  ~BOT  [1 traces]  SAT", "    BOT  [1 traces]  UNSAT", "SAT",
        ]

    def test_explain_reads_the_split_the_check_found(self, runner, tmp_path):
        # The check answers at once; trying every partition of the 22
        # traces would take 2^22 checks.  --explain reads the split parts
        # that the check itself found.
        doc = {"traces": [
            {"prefix": [[f"{side}{i:02}"]], "loop": [[loop]]}
            for side, loop in (("a", "q"), ("z", "p")) for i in range(11)
        ]}
        team_file = tmp_path / "t.json"
        team_file.write_text(json.dumps(doc))
        args = ["check-path", str(team_file), "F p | F q"]
        assert runner.invoke(main, args).exit_code == 0
        start = time.perf_counter()
        result = runner.invoke(main, [*args, "--explain"])
        assert time.perf_counter() - start < 5
        assert result.exit_code == 0
        assert "  split: 11 | 11 traces" in result.output.splitlines()

    def test_explain_opens_only_what_the_check_read(self, runner, tmp_path):
        # The left side of \\|/ holds, so the check never tries the cover
        # split on the right, which would enumerate 22 traces, past the cap.
        doc = {"traces": [{"prefix": [[f"a{i:02}"]], "loop": [["p"]]} for i in range(22)]}
        team_file = tmp_path / "t.json"
        team_file.write_text(json.dumps(doc))
        args = ["check-path", str(team_file), "(~BOT) \\|/ ((~p) | (~q))", "--explain"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        assert result.output.splitlines() == [
            "(~BOT) \\|/ ((~p) | ~q)  [22 traces]  SAT", "  ~BOT  [22 traces]  SAT",
            "    BOT  [22 traces]  UNSAT", "SAT",
        ]

    def test_too_deep_formula_exit_2(self, runner, workspace):
        for depth in (500, 3000):
            result = runner.invoke(
                main, ["check-path", str(workspace / "team.json"), "X " * depth + "p"]
            )
            assert result.exit_code == 2
            assert "nested more than" in result.stderr

    def test_internal_error_exit_5(self, runner, workspace, monkeypatch):
        # An unexpected exception is no UNSAT: exit 5 and one line.
        def overflow(*args, **kwargs):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr("teamtl.eval_team_ltl.check_team", overflow)
        result = runner.invoke(main, ["check-path", str(workspace / "team.json"), "p"])
        assert result.exit_code == 5
        assert result.stderr.startswith("error: internal error: RecursionError")
        assert len(result.stderr.splitlines()) == 1

    def test_cover_only_split_is_sat(self, runner, tmp_path):
        # Only a cover puts the one trace on both sides; the split cannot
        # be forced to disjoint parts, which would answer UNSAT.
        team_file = tmp_path / "t.json"
        team_file.write_text(json.dumps({"traces": [{"prefix": [], "loop": [["p"]]}]}))
        args = ["check-path", str(team_file), "(~BOT) | (~BOT)"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        assert runner.invoke(main, [*args, "--strategy", "disjoint"]).exit_code == 2

    def test_resource_cap_exit_3(self, runner, tmp_path):
        doc = {
            "traces": [
                {"prefix": [[f"p{i}"]], "loop": [[]]} for i in range(3)
            ]
        }
        team_file = tmp_path / "t.json"
        team_file.write_text(json.dumps(doc))
        result = runner.invoke(
            main,
            ["check-path", str(team_file), "(~p0) | (~p1)", "--max-team", "2"],
        )
        assert result.exit_code == 3

    def test_environment_sets_no_flag(self, runner, tmp_path):
        doc = {"traces": [{"prefix": [[f"p{i}"]], "loop": [[]]} for i in range(2)]}
        team_file = tmp_path / "t.json"
        team_file.write_text(json.dumps(doc))
        args = ["check-path", str(team_file), "(~p0) | (~p1)"]
        plain = runner.invoke(main, args)
        assert plain.exit_code == 0
        env = {"TEAMTL_CHECK_PATH_MAX_TEAM": "0", "TEAMTL_CHECK_PATH_EXPLAIN": "1"}
        with_env = runner.invoke(main, args, env=env)
        assert (with_env.exit_code, with_env.output) == (plain.exit_code, plain.output)


# The home module of each patched function: the CLI imports it there
# when the subcommand runs.
HOMES = {
    "check_team": "teamtl.eval_team_ltl",
    "check_model_splitfree": "teamtl.tmc_splitfree",
    "mc_ctl": "teamtl.eval_team_ctl",
}


@pytest.mark.parametrize("patched,args", [
    ("mc_ctl", ["check-model", "ef.json", "EF p", "--mode", "ctl", "--team", "x1"]),
    ("check_model_splitfree", ["check-model", "ef.json", "F p"]),
    ("check_team", ["gen", "qbf-tpc", "worked.qbf", "--check"]),
    ("mc_ctl", ["gen", "qbf-ctl", "worked.qbf", "--check"]),
])
def test_internal_error_exit_5(runner, workspace, monkeypatch, patched, args):
    # check-path's exit 5 is tested in TestCheckPath.
    def overflow(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(f"{HOMES[patched]}.{patched}", overflow)
    args = [str(workspace / a) if "." in a else a for a in args]
    if args[0] == "gen":
        args += ["--out-dir", str(workspace / "out")]
    r = runner.invoke(main, args)
    assert r.exit_code == 5
    assert r.stderr.startswith("error: internal error: RecursionError")
    assert len(r.stderr.splitlines()) == 1


@pytest.mark.parametrize("command,extra", [
    ("check-path", []),
    ("check-model", ["--mode", "ltl-enumerate"]),
])
def test_negative_max_team_exit_2(runner, workspace, command, extra):
    target = "team.json" if command == "check-path" else "ef.json"
    r = runner.invoke(main, [command, str(workspace / target), "p",
                             "--max-team", "-1", *extra])
    assert r.exit_code == 2
    assert "--max-team" in r.stderr


@pytest.mark.parametrize("args,usage", [
    (["check-path", "team.json", "F p", "--expl"], "teamtl check-path"),
    (["check-path", "team.json", "F p", "extra"], "teamtl check-path"),
    (["--bogus", "selftest"], "teamtl"),
])
def test_unknown_argument_shows_the_usage_of_its_parser(runner, workspace, args, usage):
    # An argument that a subcommand does not take is reported against
    # that subcommand's usage, one before the subcommand against the top.
    args = [str(workspace / a) if a.endswith(".json") else a for a in args]
    r = runner.invoke(main, args)
    assert r.exit_code == 2
    assert r.stderr.startswith(f"usage: {usage} [--help]")
    assert f"{usage}: error: unrecognized arguments: " in r.stderr


@pytest.mark.parametrize("args", [
    ["check-path", "team.json", "--", "--"],
    ["check-path", "--", "team.json", "--"],
    ["check-path", "team.json", "--", "-p"],
    ["check-model", "ef.json", "--", "--"],
    ["gen", "plsim", "--", "--"],
])
def test_text_after_double_dash_is_a_formula(runner, workspace, args):
    # After "--", text that looks like an option, "--" included, is read
    # as the formula, and a parse error is an input error.
    args = [str(workspace / a) if a.endswith(".json") else a for a in args]
    if args[0] == "gen":
        args[1:1] = ["--out-dir", str(workspace / "out")]
    r = runner.invoke(main, args)
    assert r.exit_code == 2
    assert r.stderr.startswith("error: unexpected character '-'")


@pytest.mark.parametrize("value", ["0", "-5"])
def test_nonpositive_max_subsets_exit_2(runner, tmp_path, value):
    k = tmp_path / "k.json"
    k.write_text(json.dumps({
        "worlds": ["a"], "edges": [["a", "a"]], "labels": {}, "initial": "a",
    }))
    r = runner.invoke(main, ["check-model", str(k), "p", "--max-subsets", value])
    assert r.exit_code == 2
    assert "--max-subsets" in r.stderr


class TestCheckModel:
    def test_ctl_fixture_verdicts(self, runner, workspace):
        ef = str(workspace / "ef.json")
        r = runner.invoke(main, ["check-model", ef, "EF p", "--mode", "ctl",
                                 "--team", "x1,y1"])
        assert r.exit_code == 1
        r = runner.invoke(main, ["check-model", ef, "EF p", "--mode", "ctl",
                                 "--team", "x1"])
        assert r.exit_code == 0
        af = str(workspace / "af.json")
        r = runner.invoke(main, ["check-model", af, "AF p", "--mode", "ctl",
                                 "--team", "w,w"])
        assert r.exit_code == 1

    def test_ctl_requires_team(self, runner, workspace):
        r = runner.invoke(main, ["check-model", str(workspace / "ef.json"),
                                 "EF p", "--mode", "ctl"])
        assert r.exit_code == 2

    def test_splitfree_mode(self, runner, tmp_path):
        k = tmp_path / "k.json"
        k.write_text(json.dumps({
            "worlds": ["a"], "edges": [["a", "a"]],
            "labels": {"a": ["p"]}, "initial": "a",
        }))
        assert runner.invoke(main, ["check-model", str(k), "G p"]).exit_code == 0
        r = runner.invoke(main, ["check-model", str(k), "p | p"])
        assert r.exit_code == 2  # splitjunction rejected in splitfree mode

    def test_until_from_one(self, runner, tmp_path):
        # Only w has p, and w is never reached again.
        k = tmp_path / "k.json"
        k.write_text(json.dumps({
            "worlds": ["w", "v"], "edges": [["w", "v"], ["v", "v"]],
            "labels": {"w": ["p"]},
        }))
        args = ["check-model", str(k), "EF p", "--mode", "ctl", "--team", "w"]
        assert runner.invoke(main, args).exit_code == 0
        assert runner.invoke(main, args + ["--until-from-one"]).exit_code == 1

    def test_edge_to_undeclared_world_exit_2(self, runner, tmp_path):
        k = tmp_path / "k.json"
        k.write_text(json.dumps({
            "worlds": ["a"], "edges": [["a", "a"], ["a", "b"]],
            "labels": {}, "initial": "a",
        }))
        r = runner.invoke(main, ["check-model", str(k), "AX p", "--mode", "ctl",
                                 "--team", "a"])
        assert r.exit_code == 2
        assert "'b' is not a declared world" in r.stderr

    @pytest.mark.parametrize("mode,formula", [
        ("ctl", "AX AX p"), ("ctl", "AX AX BOT"),
        ("ltl-splitfree", "X X p"), ("ltl-splitfree", "X X !p"),
    ])
    def test_dead_end_world_exit_2(self, runner, tmp_path, mode, formula):
        # b has no successor: read as a structure, both a formula and its
        # dual would hold vacuously two steps on.
        k = tmp_path / "k.json"
        k.write_text(json.dumps({
            "worlds": ["a", "b"], "edges": [["a", "b"]],
            "labels": {"b": ["p"]}, "initial": "a",
        }))
        args = ["check-model", str(k), formula, "--mode", mode]
        if mode == "ctl":
            args += ["--team", "a"]
        r = runner.invoke(main, args)
        assert r.exit_code == 2
        assert "'b' has no successor" in r.stderr

    @pytest.mark.parametrize("mode", ["ctl", "ltl-splitfree"])
    def test_world_declared_twice_exit_2(self, runner, tmp_path, mode):
        k = tmp_path / "k.json"
        k.write_text(json.dumps({
            "worlds": ["a", "b", "a"], "edges": [["a", "b"], ["b", "a"]],
            "labels": {}, "initial": "a",
        }))
        formula = "EX p" if mode == "ctl" else "X p"
        args = ["check-model", str(k), formula, "--mode", mode]
        if mode == "ctl":
            args += ["--team", "a"]
        r = runner.invoke(main, args)
        assert r.exit_code == 2
        assert "world 'a' is declared more than once" in r.stderr

    def test_enumerate_mode_rejects_branching_cycles(self, runner, tmp_path):
        k = tmp_path / "k.json"
        k.write_text(json.dumps({
            "worlds": ["a", "b"],
            "edges": [["a", "a"], ["a", "b"], ["b", "b"]],
            "labels": {}, "initial": "a",
        }))
        r = runner.invoke(main, ["check-model", str(k), "F p",
                                 "--mode", "ltl-enumerate"])
        assert r.exit_code == 2
        assert "not finitely enumerable" in r.output


class TestGen:
    def test_qbf_tpc_check(self, runner, workspace, tmp_path):
        out = tmp_path / "out1"
        r = runner.invoke(main, ["gen", "qbf-tpc", str(workspace / "worked.qbf"),
                                 "--out-dir", str(out), "--check"])
        assert r.exit_code == 0
        assert "REDUCTION OK (valid)" in r.output
        assert (out / "team.json").exists() and (out / "formula.txt").exists()

    def test_qbf_ctl_check(self, runner, workspace, tmp_path):
        out = tmp_path / "out2"
        r = runner.invoke(main, ["gen", "qbf-ctl", str(workspace / "worked.qbf"),
                                 "--out-dir", str(out), "--check"])
        assert r.exit_code == 0
        assert "REDUCTION OK (valid)" in r.output
        assert (out / "kripke.json").exists()

    def test_qbf_ctl_check_lifts_the_team_cap(self, runner, tmp_path):
        # n variables give a team of n + 1 members, above the default cap 6.
        f = tmp_path / "six.qbf"
        f.write_text(
            "exists x1\nforall x2\nexists x3\nforall x4\nexists x5\nforall x6\n"
            "x1 x2 x3\n-x2 x4 x5\nx3 -x6 x5\n"
        )
        r = runner.invoke(main, ["gen", "qbf-ctl", str(f),
                                 "--out-dir", str(tmp_path / "o"), "--check"])
        assert r.exit_code == 0, r.output
        assert "REDUCTION OK (valid)" in r.output

    def test_invalid_qbf_reports_invalid(self, runner, tmp_path):
        f = tmp_path / "false.qbf"
        f.write_text("forall x\nx x x\n")
        r = runner.invoke(main, ["gen", "qbf-tpc", str(f),
                                 "--out-dir", str(tmp_path / "o"), "--check"])
        assert r.exit_code == 0
        assert "REDUCTION OK (invalid)" in r.output

    def test_width_2_padding_noted(self, runner, tmp_path):
        f = tmp_path / "w2.qbf"
        f.write_text("exists x\nx -x\n")
        r = runner.invoke(main, ["gen", "qbf-tpc", str(f),
                                 "--out-dir", str(tmp_path / "o")])
        assert r.exit_code == 0
        assert "padded" in r.output

    def test_malformed_qbf_exit_2(self, runner, tmp_path):
        f = tmp_path / "bad.qbf"
        f.write_text("exists x\nx x x\nforall y\n")
        r = runner.invoke(main, ["gen", "qbf-tpc", str(f),
                                 "--out-dir", str(tmp_path / "o")])
        assert r.exit_code == 2

    @pytest.mark.parametrize("kind", ["qbf-tpc", "qbf-ctl"])
    def test_pinned_qbf_reads_back(self, runner, tmp_path, kind):
        # The instance files that gen writes decide the QBF's verdict.
        source = Path(__file__).parents[1] / "fixtures" / "worked_qbf.qbf"
        r = runner.invoke(main, ["gen", kind, str(source), "--out-dir", str(tmp_path), "--check"])
        assert r.exit_code == 0
        assert "REDUCTION OK (valid)" in r.output
        formula = f"@{tmp_path / 'formula.txt'}"
        if kind == "qbf-tpc":
            args = ["check-path", str(tmp_path / "team.json"), formula, "--max-team", "64"]
        else:
            team = (tmp_path / "team.txt").read_text().strip()
            args = ["check-model", str(tmp_path / "kripke.json"), formula,
                    "--mode", "ctl", "--team", team]
        assert runner.invoke(main, args).exit_code == 0

    @pytest.mark.parametrize("kind,name", [
        ("qbf-tpc", "X"), ("qbf-ctl", "EX"), ("qbf-tpc", "a.b"), ("qbf-tpc", "1x"),
        ("qbf-ctl", "é"),
    ])
    def test_variable_that_names_no_proposition_exit_2(self, runner, tmp_path, kind, name):
        # A reduction writes each variable into its formula, which the
        # checkers would not read back: X and EX are operators, and a.b,
        # 1x and é no identifiers.
        f = tmp_path / "bad.qbf"
        f.write_text(f"exists {name}\nforall y\nexists z\n{name} y z\n-{name} -y z\n",
                     encoding="utf-8")
        r = runner.invoke(main, ["gen", kind, str(f), "--out-dir", str(tmp_path / "o"), "--check"])
        assert r.exit_code == 2
        assert "is no proposition name" in r.stderr

    def test_out_dir_below_a_file_exit_2(self, runner, tmp_path):
        (tmp_path / "file").write_text("")
        r = runner.invoke(main, ["gen", "plsim", "~p",
                                 "--out-dir", str(tmp_path / "file" / "o")])
        assert r.exit_code == 2
        assert r.stderr.startswith("error: ")

    def test_plsim(self, runner, tmp_path):
        r = runner.invoke(main, ["gen", "plsim", "~p",
                                 "--out-dir", str(tmp_path / "o"), "--check"])
        assert r.exit_code == 0
        assert "REDUCTION OK (satisfiable)" in r.output

    @pytest.mark.parametrize("source", [
        # Five variables: no table is built.
        "(a | b) & ~(c | d) & (e \\|/ a)",
        # Four: the outer splits would pair 2^16 by 2^16 subteams.
        "(a | !a) | (b | !b) | (c | !c) | (d | !d)",
    ])
    def test_plsim_oracle_cap_exit_3(self, runner, tmp_path, source):
        start = time.process_time()
        r = runner.invoke(main, ["gen", "plsim", source,
                                 "--out-dir", str(tmp_path / "o"), "--check"])
        assert r.exit_code == 3
        assert r.stderr.startswith("error: propositional oracle")
        assert time.process_time() - start < 5


class TestSelftest:
    def test_clean_run(self, runner, tmp_path):
        fdir = tmp_path / "fixtures"
        write_fixture_files(fdir)
        r = runner.invoke(main, ["selftest", "--count", "5",
                                 "--fixtures-dir", str(fdir)])
        assert r.exit_code == 0
        assert "0 mismatches" in r.output
        for name in ("flat mc_ctl vs mc_ctl_bruteforce",
                     "check_team vs mc_ctl on propositional formulas",
                     "check_team vs naive_oracle on downward-closed formulas"):
            assert name in r.output

    def test_corrupted_fixture_exit_4(self, runner, tmp_path):
        fdir = tmp_path / "fixtures"
        write_fixture_files(fdir)
        (fdir / "worked_qbf.qbf").write_text("exists x\nx x x\n")
        r = runner.invoke(main, ["selftest", "--count", "2",
                                 "--fixtures-dir", str(fdir)])
        assert r.exit_code == 4
