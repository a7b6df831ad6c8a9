"""Pinned example instances used by the self-test and the regression
suite: the union-closure counterexample team, the EF/AF multiset
structures, the worked QBF instance, and an assignment structure.

`write_fixture_files` materializes them under a directory so they double
as documentation of the file formats.
"""

from __future__ import annotations

from pathlib import Path

from . import files
from .formula import Formula, Prop
from .kripke import KripkeStructure, MultiTeam
from .parser import parse_ctl, parse_ltl
from .qbf import QbfInstance
from .trace import LassoTrace, TeamEncoding


def union_closure_team() -> TeamEncoding:
    """Two traces that each satisfy F p individually but never both at the
    same position: their union fails F p (union closure fails)."""
    return TeamEncoding.of(
        [
            LassoTrace.of([["p"]], [[]]),
            LassoTrace.of([[], ["p"]], [[]]),
        ]
    )


def ef_counterexample_structure() -> KripkeStructure:
    """Two disjoint chains reaching p at different depths: both singleton
    teams satisfy EF p, the pair team does not (no synchronous witness)."""
    return KripkeStructure.of(
        worlds=["x1", "x2", "x3", "x4", "y1", "y2", "y3", "y4"],
        edges=[
            ("x1", "x2"), ("x2", "x3"), ("x3", "x4"), ("x4", "x4"),
            ("y1", "y2"), ("y2", "y3"), ("y3", "y4"), ("y4", "y4"),
        ],
        labels={"x3": ["p"], "y2": ["p"]},
    )


def af_multiplicity_structure() -> KripkeStructure:
    """One root branching into two chains that reach p at different depths:
    ⟦w⟧ satisfies AF p, ⟦w,w⟧ does not (multiplicity sensitivity)."""
    return KripkeStructure.of(
        worlds=["w", "a1", "a2", "a3", "b1", "b2", "b3"],
        edges=[
            ("w", "a1"), ("a1", "a2"), ("a2", "a3"), ("a3", "a3"),
            ("w", "b1"), ("b1", "b2"), ("b2", "b3"), ("b3", "b3"),
        ],
        labels={"a2": ["p"], "b1": ["p"]},
    )


def worked_qbf() -> QbfInstance:
    """∃x1 ∀x2 ∃x3 (x1∨¬x2∨¬x3)(¬x1∨x2∨x3)(¬x1∨¬x2∨¬x3) — valid."""
    return QbfInstance(
        quantifiers=("e", "a", "e"),
        variables=("x1", "x2", "x3"),
        clauses=(
            (("x1", True), ("x2", False), ("x3", False)),
            (("x1", False), ("x2", True), ("x3", True)),
            (("x1", False), ("x2", False), ("x3", False)),
        ),
    )


WORKED_QBF_TEXT = """\
# ∃x1 ∀x2 ∃x3, valid
exists x1
forall x2
exists x3
x1 -x2 -x3
-x1 x2 x3
-x1 -x2 -x3
"""


def pinned_checks() -> list[tuple[str, bool]]:
    """(description, passed) pairs for every pinned verdict."""
    from .eval_team_ctl import CtlLimits, mc_ctl
    from .eval_team_ltl import check_team
    from .qbf import eval_qbf, reduce_to_tmc_ctl, reduce_to_tpc

    results = []
    team = union_closure_team()
    results.append(
        ("union-closure counterexample team falsifies F p",
         not check_team(team, parse_ltl("F p")))
    )
    ef = ef_counterexample_structure()
    ef_formula = parse_ctl("EF p")
    results.append(
        ("pair team over both chains falsifies EF p",
         not mc_ctl(ef, MultiTeam.of(["x1", "y1"]), ef_formula))
    )
    results.append(
        ("first singleton satisfies EF p",
         mc_ctl(ef, MultiTeam.of(["x1"]), ef_formula))
    )
    results.append(
        ("second singleton satisfies EF p",
         mc_ctl(ef, MultiTeam.of(["y1"]), ef_formula))
    )
    af = af_multiplicity_structure()
    af_formula = parse_ctl("AF p")
    results.append(
        ("singleton root team satisfies AF p",
         mc_ctl(af, MultiTeam.of(["w"]), af_formula))
    )
    results.append(
        ("doubled root team falsifies AF p",
         not mc_ctl(af, MultiTeam.of(["w", "w"]), af_formula))
    )
    # The one cover puts both copies of w on each side; it is found only
    # where covers close upwards over every copy of a member, not one.
    results.append(
        ("doubled root team satisfies (~(AF p)) | (~(AF p))",
         mc_ctl(af, MultiTeam.of(["w", "w"]), parse_ctl("(~(AF p)) | (~(AF p))")))
    )
    q = worked_qbf()
    results.append(("worked QBF is valid", eval_qbf(q)))
    tpc_team, tpc_formula = reduce_to_tpc(q)
    results.append(
        ("worked QBF valid via the path-checking reduction",
         check_team(tpc_team, tpc_formula))
    )
    k, ctl_team, ctl_formula = reduce_to_tmc_ctl(q)
    results.append(
        ("worked QBF valid via the CTL reduction",
         mc_ctl(k, ctl_team, ctl_formula, limits=CtlLimits(max_worlds=128)))
    )
    return results


FIXTURE_BASENAMES = {
    "union_closure_team.json": lambda: files.dumps_team(union_closure_team()),
    "ef_counterexample.json": lambda: files.dumps_kripke(ef_counterexample_structure()),
    "af_multiplicity.json": lambda: files.dumps_kripke(af_multiplicity_structure()),
    "worked_qbf.qbf": lambda: WORKED_QBF_TEXT,
}


def write_fixture_files(directory: str | Path) -> list[Path]:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, producer in FIXTURE_BASENAMES.items():
        path = directory / name
        path.write_text(producer())
        written.append(path)
    return written


def check_fixture_files(directory: str | Path) -> list[str]:
    """Mismatches between on-disk fixture files and their definitions."""
    directory = Path(directory)
    problems = []
    for name, producer in FIXTURE_BASENAMES.items():
        path = directory / name
        if not path.exists():
            problems.append(f"missing fixture file {path}")
        elif path.read_text() != producer():
            problems.append(f"fixture file {path} differs from its definition")
    return problems
