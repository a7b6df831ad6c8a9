"""Command-line interface, on the standard library's `argparse`.

Exit codes: 0 = SAT, 1 = UNSAT, 2 = input error, 3 = resource cap
exceeded, 4 = self-test failure, 5 = internal error.  All verdicts come
straight from the library; the CLI only parses inputs and formats output.
An unexpected exception ends in code 5 with a one-line message, never in
a traceback or in code 1, which means UNSAT.

`main(argv)` returns the exit code.  A usage error (an unknown, abbreviated
or malformed option, a missing input file) exits with argparse's 2.

Each subcommand imports the evaluators, reductions and self-test it runs
in its own body, so a call loads and compiles only those modules.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import files
from .errors import LassoForestViolation, ResourceCapError, TeamTLError
from .formula import DEFAULT_MAX_SUBSETS, DEFAULT_MAX_TEAM
from .parser import ParseError, parse_ctl, parse_ltl, render

EXIT_SAT, EXIT_UNSAT, EXIT_INPUT, EXIT_CAP, EXIT_SELFTEST, EXIT_INTERNAL = range(6)


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _verdict(sat: bool) -> int:
    print("SAT" if sat else "UNSAT")
    return EXIT_SAT if sat else EXIT_UNSAT


def _read_formula(text: str) -> str:
    """Formula arguments may be inline text or an ``@file`` reference."""
    return Path(text[1:]).read_text() if text.startswith("@") else text


def check_path(args: argparse.Namespace) -> int:
    """Check whether the team in TEAM_FILE satisfies the LTL FORMULA."""
    from .eval_team_ltl import check_team, explain_team, naive_oracle

    team = files.load_team(args.team_file)
    phi = parse_ltl(_read_formula(args.formula))
    if args.explain:
        sat, lines = explain_team(team, phi, max_team=args.max_team)
        print("\n".join(lines))
    else:
        sat = check_team(team, phi, max_team=args.max_team)
    if args.oracle:
        slow = naive_oracle(team, phi)
        print(f"oracle: {'SAT' if slow else 'UNSAT'}")
        if slow != sat:
            return _fail(EXIT_SELFTEST, "oracle disagrees with the checker")
    return _verdict(sat)


def check_model(args: argparse.Namespace) -> int:
    """Check the trace team (LTL modes) or a multiset team (ctl mode) of
    the structure in KRIPKE_FILE against FORMULA."""
    k = files.load_kripke(args.kripke_file)
    if args.mode == "ctl" and args.team_arg is None:
        return _fail(EXIT_INPUT, "ctl mode requires --team")
    text = _read_formula(args.formula)
    if args.mode == "ctl":
        from .eval_team_ctl import CtlLimits, from_index_zero, mc_ctl
        from .kripke import MultiTeam

        phi = parse_ctl(text)
        team = MultiTeam.of(args.team_arg.split(","))
        if args.from_one:
            phi = from_index_zero(phi)
        limits = CtlLimits(max_team=len(team), max_worlds=len(k.worlds))
        sat = mc_ctl(k, team, phi, limits=limits)
    elif args.mode == "ltl-splitfree":
        from .tmc_splitfree import check_model_splitfree

        sat = check_model_splitfree(k, parse_ltl(text), max_subsets=args.max_subsets)
    else:
        from .eval_team_ltl import check_team
        from .kripke import enumerate_traces

        phi = parse_ltl(text)
        sat = check_team(enumerate_traces(k), phi, max_team=args.max_team)
    return _verdict(sat)


def gen(args: argparse.Namespace) -> int:
    """Generate a checking instance: qbf-tpc / qbf-ctl take a QBF file,
    plsim takes a propositional formula with ~ (inline or @file)."""
    from . import qbf

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if args.kind == "plsim":
        phi = parse_ltl(_read_formula(args.source))
        team, goal = qbf.reduce_plsim_to_tpc(phi)
    else:
        raw = qbf.parse_qbf_text(Path(args.source).read_text())
        for j, clause in enumerate(raw.clauses, 1):
            if 0 < len(clause) < 3:
                print(f"note: clause {j} padded from width {len(clause)} to 3", file=sys.stderr)
        instance = qbf.normalize_qbf(raw)
    if args.kind == "qbf-ctl":
        k, team, goal = qbf.reduce_to_tmc_ctl(instance)
        written = {"kripke.json": files.dumps_kripke(k), "team.txt": ",".join(team.worlds) + "\n"}
    else:
        if args.kind == "qbf-tpc":
            team, goal = qbf.reduce_to_tpc(instance)
        written = {"team.json": files.dumps_team(team)}
    written["formula.txt"] = render(goal) + "\n"
    for name, text in written.items():
        (out / name).write_text(text)
    *paths, last = (str(out / name) for name in written)
    print(f"wrote {', '.join(paths)} and {last}")
    if not args.do_check:
        return 0
    if args.kind == "plsim":
        expected, words = qbf.pl_team_satisfiable_bruteforce(phi), ("unsatisfiable", "satisfiable")
    else:
        expected, words = qbf.eval_qbf(instance), ("invalid", "valid")
    if args.kind == "qbf-ctl":
        from .eval_team_ctl import CtlLimits, mc_ctl

        got = mc_ctl(k, team, goal, limits=CtlLimits(max_team=len(team), max_worlds=4096))
    else:
        from .eval_team_ltl import check_team

        got = check_team(team, goal)
    if got != expected:
        return _fail(EXIT_SELFTEST, "reduction verdict mismatch")
    print(f"REDUCTION OK ({words[expected]})")
    return 0


def selftest_cmd(args: argparse.Namespace) -> int:
    """Run the differential self-test and verify the pinned fixtures."""
    from . import fixtures, selftest

    report = selftest.run_selftest(seed=args.seed, count=args.count)
    for suite in report.suites:
        status = "ok" if not suite.mismatches else "FAIL"
        print(f"  {suite.name}: {suite.instances} instances [{status}]")
    problems = list(report.mismatches)
    if Path(args.fixtures_dir).is_dir():
        problems += fixtures.check_fixture_files(args.fixtures_dir)
    else:
        print(f"note: fixture directory {args.fixtures_dir!r} not found", file=sys.stderr)
    if problems:
        for p in problems:
            print(f"MISMATCH: {p}", file=sys.stderr)
        print(f"FAIL: {len(problems)} mismatches (seed {args.seed})", file=sys.stderr)
        return EXIT_SELFTEST
    print(f"OK: {report.instances} instances, 0 mismatches")
    return 0


def _at_least(low: int):
    """An option type: an integer no less than ``low``."""
    def integer(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"{text} is not in the range x>={low}")
        return int(text)
    return integer


def _file(text: str) -> str:
    """An argument type: the path of an existing file."""
    if Path(text).is_dir() or not Path(text).exists():
        raise argparse.ArgumentTypeError(f"path {text!r} names no file")
    return text


def _directory(text: str) -> str:
    """An option type: the path of a directory, which need not exist yet."""
    if Path(text).is_file():
        raise argparse.ArgumentTypeError(f"path {text!r} is a file")
    return text


class _Command(argparse.ArgumentParser):
    """A subcommand's parser: it rejects the arguments it does not take
    itself, so the error shows its own usage, not the top-level one."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        # Some argparse releases drop a "--" that follows the first one and
        # leave its positional the empty list: it is the text "--".
        for name, value in vars(namespace).items():
            if value == []:
                setattr(namespace, name, "--")
        return namespace, extras


def _parser() -> argparse.ArgumentParser:
    # Each parser takes the options declared here and no others: no -h, no abbreviations.
    bare = {"add_help": False, "allow_abbrev": False}
    parser = argparse.ArgumentParser(prog="teamtl", **bare, description=(
        "Synchronous team semantics for LTL and CTL: path checking, model checking, "
        "reduction generators, and a differential self-test."))
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    commands = parser.add_subparsers(metavar="COMMAND", required=True, parser_class=_Command)

    def command(name, run):
        doc = " ".join(run.__doc__.split())
        sub = commands.add_parser(name, help=doc, description=doc, **bare)
        sub.add_argument("--help", action="help", help="Show this message and exit.")
        sub.set_defaults(run=run)
        return sub.add_argument

    max_team = "Cap on the traces a splitjunction enumerates parts over"
    arg = command("check-path", check_path)
    arg("team_file", metavar="TEAM_FILE", type=_file)
    arg("formula", metavar="FORMULA")
    arg("--max-team", type=_at_least(0), default=DEFAULT_MAX_TEAM,
        help=f"{max_team}: those free to go on either side of a disjoint split (one "
             "with a downward-closed side), or all of a cover's (neither side "
             "downward closed).  (default: %(default)s)")
    arg("--explain", action="store_true", help="Print the witness tree the check found.")
    arg("--oracle", action="store_true",
        help="Cross-check against the naive oracle (small inputs only).")

    arg = command("check-model", check_model)
    arg("kripke_file", metavar="KRIPKE_FILE", type=_file)
    arg("formula", metavar="FORMULA")
    arg("--mode", choices=["ltl-splitfree", "ltl-enumerate", "ctl"],
        default="ltl-splitfree", help="(default: %(default)s)")
    arg("--team", dest="team_arg", default=None,
        help="Multiset team for ctl mode: world names with repetition, e.g. r,a,a.")
    arg("--max-team", type=_at_least(0), default=DEFAULT_MAX_TEAM,
        help=f"{max_team}, as in check-path.  It applies to --mode ltl-enumerate "
             "only; ctl mode checks teams of any size.  (default: %(default)s)")
    arg("--max-subsets", type=_at_least(1), default=DEFAULT_MAX_SUBSETS,
        help="In splitfree mode, cap on the steps the check takes along the "
             "successor-set sequence; a set stepped again counts again.  "
             "(default: %(default)s)")
    arg("--until-from-one", dest="from_one", action="store_true",
        help="In ctl mode, make until ignore the current team.")

    arg = command("gen", gen)
    arg("kind", choices=["qbf-tpc", "qbf-ctl", "plsim"])
    arg("source")
    arg("--out-dir", type=_directory, default=".",
        help="Directory for the instance files.  (default: %(default)s)")
    arg("--check", dest="do_check", action="store_true", help="Evaluate the generated "
        "instance and compare with the brute-force reference.")

    arg = command("selftest", selftest_cmd)
    arg("--seed", type=int, default=0, help="(default: %(default)s)")
    arg("--count", type=int, default=50,
        help="Approximate instances per differential suite.  (default: %(default)s)")
    arg("--fixtures-dir", type=_directory, default="fixtures",
        help="Directory holding the pinned fixture files.  (default: %(default)s)")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the subcommand ``argv`` names; return its exit code, or an exception's."""
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except ResourceCapError as exc:
        return _fail(EXIT_CAP, str(exc))
    except LassoForestViolation as exc:
        return _fail(EXIT_INPUT, f"trace team is not finitely enumerable: {exc}")
    except (ParseError, TeamTLError, OSError, ValueError) as exc:
        return _fail(EXIT_INPUT, str(exc))
    except Exception as exc:
        detail = " ".join(str(exc).splitlines())
        return _fail(EXIT_INTERNAL, f"internal error: {type(exc).__name__}: {detail}")


if __name__ == "__main__":
    sys.exit(main())
