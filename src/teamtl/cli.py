"""Command-line interface.

Exit codes: 0 = SAT, 1 = UNSAT, 2 = input error, 3 = resource cap
exceeded, 4 = self-test failure, 5 = internal error.  All verdicts come
straight from the library; the CLI only parses inputs and formats output.
An unexpected exception ends in code 5 with a one-line message, never in
a traceback or in code 1, which means UNSAT.

Each subcommand imports the evaluators, reductions and self-test it runs
in its own body, so a call loads and compiles only those modules.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from pathlib import Path

import click

from . import files
from .errors import (
    LassoForestViolation,
    ResourceCapError,
    TeamTLError,
)
from .formula import DEFAULT_MAX_SUBSETS, DEFAULT_MAX_TEAM
from .parser import ParseError, parse_ctl, parse_ltl, render

EXIT_SAT = 0
EXIT_UNSAT = 1
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_SELFTEST = 4
EXIT_INTERNAL = 5


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _internal(exc: Exception):
    detail = " ".join(str(exc).splitlines())
    _fail(EXIT_INTERNAL, f"internal error: {type(exc).__name__}: {detail}")


@contextmanager
def _exit_codes():
    """Map an exception raised inside the block onto its exit code."""
    try:
        yield
    except ResourceCapError as exc:
        _fail(EXIT_CAP, str(exc))
    except LassoForestViolation as exc:
        _fail(EXIT_INPUT, f"trace team is not finitely enumerable: {exc}")
    except (ParseError, TeamTLError, OSError, ValueError) as exc:
        _fail(EXIT_INPUT, str(exc))
    except Exception as exc:
        _internal(exc)


def _verdict(sat: bool):
    click.echo("SAT" if sat else "UNSAT")
    sys.exit(EXIT_SAT if sat else EXIT_UNSAT)


def _read_formula(text: str) -> str:
    """Formula arguments may be inline text or an ``@file`` reference."""
    if text.startswith("@"):
        return Path(text[1:]).read_text()
    return text


@click.group()
def main():
    """Synchronous team semantics for LTL and CTL: path checking, model
    checking, reduction generators, and a differential self-test."""


@main.command("check-path")
@click.argument("team_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("formula")
@click.option("--max-team", type=click.IntRange(min=0), default=DEFAULT_MAX_TEAM,
              show_default=True,
              help="Cap on the traces a splitjunction enumerates parts "
                   "over: those free to go on either side of a disjoint "
                   "split (one with a downward-closed side), or all of a "
                   "cover's (neither side downward closed).")
@click.option("--explain", is_flag=True, help="Print the witness tree the check found.")
@click.option("--oracle", is_flag=True,
              help="Cross-check against the naive oracle (small inputs only).")
def check_path(team_file, formula, max_team, explain, oracle):
    """Check whether the team in TEAM_FILE satisfies the LTL FORMULA."""
    from .eval_team_ltl import check_team, explain_team, naive_oracle

    with _exit_codes():
        team = files.load_team(team_file)
        phi = parse_ltl(_read_formula(formula))
        if explain:
            sat, lines = explain_team(team, phi, max_team=max_team)
            click.echo("\n".join(lines))
        else:
            sat = check_team(team, phi, max_team=max_team)
        if oracle:
            slow = naive_oracle(team, phi)
            click.echo(f"oracle: {'SAT' if slow else 'UNSAT'}")
            if slow != sat:
                _fail(EXIT_SELFTEST, "oracle disagrees with the checker")
    _verdict(sat)


@main.command("check-model")
@click.argument("kripke_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("formula")
@click.option("--mode", type=click.Choice(["ltl-splitfree", "ltl-enumerate", "ctl"]),
              default="ltl-splitfree", show_default=True)
@click.option("--team", "team_arg", default=None,
              help="Multiset team for ctl mode: world names with repetition, "
                   "e.g. r,a,a.")
@click.option("--max-team", type=click.IntRange(min=0), default=DEFAULT_MAX_TEAM,
              show_default=True,
              help="Cap on the traces a splitjunction enumerates parts "
                   "over, as in check-path.  It applies to --mode "
                   "ltl-enumerate only; ctl mode checks teams of any size.")
@click.option("--max-subsets", type=click.IntRange(min=1),
              default=DEFAULT_MAX_SUBSETS, show_default=True,
              help="In splitfree mode, cap on the successor sets the check "
                   "actually steps.")
@click.option("--until-from-one", "from_one", is_flag=True,
              help="In ctl mode, make until ignore the current team.")
def check_model(kripke_file, formula, mode, team_arg, max_team, max_subsets,
                from_one):
    """Check the trace team (LTL modes) or a multiset team (ctl mode) of
    the structure in KRIPKE_FILE against FORMULA."""
    with _exit_codes():
        k = files.load_kripke(kripke_file)
        if mode == "ctl":
            from .eval_team_ctl import CtlLimits, from_index_zero, mc_ctl
            from .kripke import MultiTeam

            if team_arg is None:
                _fail(EXIT_INPUT, "ctl mode requires --team")
            phi = parse_ctl(_read_formula(formula))
            team = MultiTeam.of(team_arg.split(","))
            if from_one:
                phi = from_index_zero(phi)
            limits = CtlLimits(max_team=len(team), max_worlds=len(k.worlds))
            sat = mc_ctl(k, team, phi, limits=limits)
        elif mode == "ltl-splitfree":
            from .tmc_splitfree import check_model_splitfree

            phi = parse_ltl(_read_formula(formula))
            sat = check_model_splitfree(k, phi, max_subsets=max_subsets)
        else:
            from .eval_team_ltl import check_team
            from .kripke import enumerate_traces

            phi = parse_ltl(_read_formula(formula))
            team = enumerate_traces(k)
            sat = check_team(team, phi, max_team=max_team)
    _verdict(sat)


@main.command("gen")
@click.argument("kind", type=click.Choice(["qbf-tpc", "qbf-ctl", "plsim"]))
@click.argument("source")
@click.option("--out-dir", type=click.Path(file_okay=False), default=".",
              show_default=True, help="Directory for the instance files.")
@click.option("--check", "do_check", is_flag=True,
              help="Evaluate the generated instance and compare with the "
                   "brute-force reference.")
def gen(kind, source, out_dir, do_check):
    """Generate a checking instance: qbf-tpc / qbf-ctl take a QBF file,
    plsim takes a propositional formula with ~ (inline or @file)."""
    from . import qbf
    from .eval_team_ltl import check_team

    out = Path(out_dir)
    with _exit_codes():
        out.mkdir(parents=True, exist_ok=True)
        if kind == "plsim":
            phi = parse_ltl(_read_formula(source))
            team, goal = qbf.reduce_plsim_to_tpc(phi)
            (out / "team.json").write_text(files.dumps_team(team))
            (out / "formula.txt").write_text(render(goal) + "\n")
            click.echo(f"wrote {out / 'team.json'} and {out / 'formula.txt'}")
            if do_check:
                expected = qbf.pl_team_satisfiable_bruteforce(phi)
                got = check_team(team, goal)
                if got != expected:
                    _fail(EXIT_SELFTEST, "reduction verdict mismatch")
                click.echo(
                    f"REDUCTION OK ({'satisfiable' if expected else 'unsatisfiable'})"
                )
            return
        raw = qbf.parse_qbf_text(Path(source).read_text())
        for j, clause in enumerate(raw.clauses, 1):
            if 0 < len(clause) < 3:
                click.echo(
                    f"note: clause {j} padded from width {len(clause)} to 3",
                    err=True,
                )
        instance = qbf.normalize_qbf(raw)
        if kind == "qbf-tpc":
            team, goal = qbf.reduce_to_tpc(instance)
            (out / "team.json").write_text(files.dumps_team(team))
            (out / "formula.txt").write_text(render(goal) + "\n")
            click.echo(f"wrote {out / 'team.json'} and {out / 'formula.txt'}")
            got = check_team(team, goal) if do_check else None
        else:
            from .eval_team_ctl import CtlLimits, mc_ctl

            k, team, goal = qbf.reduce_to_tmc_ctl(instance)
            (out / "kripke.json").write_text(files.dumps_kripke(k))
            (out / "team.txt").write_text(",".join(team.worlds) + "\n")
            (out / "formula.txt").write_text(render(goal) + "\n")
            click.echo(
                f"wrote {out / 'kripke.json'}, {out / 'team.txt'} "
                f"and {out / 'formula.txt'}"
            )
            got = (
                mc_ctl(k, team, goal, limits=CtlLimits(
                    max_team=len(team), max_worlds=4096
                ))
                if do_check else None
            )
        if do_check:
            expected = qbf.eval_qbf(instance)
            if got != expected:
                _fail(EXIT_SELFTEST, "reduction verdict mismatch")
            click.echo(f"REDUCTION OK ({'valid' if expected else 'invalid'})")


@main.command("selftest")
@click.option("--seed", default=0, show_default=True)
@click.option("--count", default=50, show_default=True,
              help="Approximate instances per differential suite.")
@click.option("--fixtures-dir", type=click.Path(file_okay=False),
              default="fixtures", show_default=True,
              help="Directory holding the pinned fixture files.")
def selftest_cmd(seed, count, fixtures_dir):
    """Run the differential self-test and verify the pinned fixtures."""
    from . import fixtures, selftest

    report = selftest.run_selftest(seed=seed, count=count)
    for suite in report.suites:
        status = "ok" if not suite.mismatches else "FAIL"
        click.echo(f"  {suite.name}: {suite.instances} instances [{status}]")
    problems = list(report.mismatches)
    if Path(fixtures_dir).is_dir():
        problems += fixtures.check_fixture_files(fixtures_dir)
    else:
        click.echo(f"note: fixture directory {fixtures_dir!r} not found", err=True)
    if problems:
        for p in problems:
            click.echo(f"MISMATCH: {p}", err=True)
        click.echo(f"FAIL: {len(problems)} mismatches (seed {seed})", err=True)
        sys.exit(EXIT_SELFTEST)
    click.echo(f"OK: {report.instances} instances, 0 mismatches")


if __name__ == "__main__":
    main()
