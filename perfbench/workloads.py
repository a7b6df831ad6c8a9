"""The benchmark's seeded workloads.

Each workload turns a seed into a pool of instances held as text (the
library's own file formats plus rendered formulas), decides one instance
from its text, and computes the instance's expected verdict with an
independent reference.  A workload cycles through instance families:

- ``ltl_mix`` cycles through three LTL families:

  - ``tpc_qbf``: QBF -> team path checking.  Split enumeration on the
    downward-closed, disjoint path dominates; the temporal horizon is tiny.
  - ``tpc_plsim``: propositional team logic with ``~`` -> team path
    checking.  ``~`` and ``\\|/`` force the covers path of the same
    evaluator, so a covers-only change shows here and not on ``tpc_qbf``.
  - ``tmc_horizon``: a root fanning into private cycles of lengths 7, 8, 9
    and 11 (lcm 5544) under splitfree formulas, decided by both LTL modes
    of ``check-model``: a long temporal horizon and no splits.

- ``ctl_multiset`` alternates two multiset TeamCTL families: ``ctl_flat``
  (dense random structures under flat-fragment formulas) and ``ctl_qbf``
  (QBF -> TeamCTL reductions).  It bypasses ``eval_team_ltl`` and
  ``trace`` entirely.

Run as a script, this module is the set-up step measured by ``setup_s``:
it builds the pool for one workload and seed and writes it as JSON.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
from pathlib import Path

from teamtl import (
    AR,
    AX,
    And,
    CtlLimits,
    ER,
    EX,
    KripkeStructure,
    MultiTeam,
    NegProp,
    Prop,
    Release,
    Split,
    Until,
    bot,
    check_ctl_classical,
    check_model_splitfree,
    check_team,
    dumps_kripke,
    dumps_team,
    enumerate_traces,
    eval_qbf,
    expand_shorthand,
    flatten,
    formula_length,
    lcm_loop,
    loads_kripke,
    loads_team,
    mc_ctl,
    normalize_qbf,
    parse_ctl,
    parse_ltl,
    parse_qbf_text,
    pl_team_satisfiable_bruteforce,
    prfx,
    propositions,
    reduce_plsim_to_tpc,
    reduce_to_tmc_ctl,
    reduce_to_tpc,
    render,
)
from teamtl.formula import iter_nodes
from teamtl.selftest import (
    random_kripke,
    random_ltl_formula,
    random_pl_formula,
    random_qbf,
)

from spans import NullTracer

# Workload -> the families its instances cycle through.
WORKLOADS = {
    "ltl_mix": ("tpc_qbf", "tpc_plsim", "tmc_horizon"),
    "ctl_multiset": ("ctl_flat", "ctl_qbf"),
}

# Instances per pool: about what the seed code decides in one 40 s run at
# the reference speed.  A faster run goes round the pool again; a larger
# pool would lengthen every build, and a run makes five.
POOL = {"ltl_mix": 600, "ctl_multiset": 1500}

QBF_TPC_VARS = 4
QBF_TPC_CLAUSES = (3, 5)
PLSIM_PROPS = ("p", "q", "r")
PLSIM_BUDGET = (3, 6)
CTL_WORLDS = 7
CTL_TEAM = 4
CTL_BUDGET = (2, 4)
CTL_QBF_VARS = (8, 9)
HORIZON_CYCLES = (7, 8, 9, 11)
HORIZON_BUDGET = (1, 3)


# ---------------------------------------------------------------------------
# Generators owned by the benchmark


def qbf_text(q) -> str:
    """A QBF in the text format read by ``parse_qbf_text``."""
    lines = [
        f"{'exists' if quantifier == 'e' else 'forall'} {var}"
        for quantifier, var in zip(q.quantifiers, q.variables)
    ]
    lines += [
        " ".join(var if positive else f"-{var}" for var, positive in clause)
        for clause in q.clauses
    ]
    return "\n".join(lines) + "\n"


def stratum(i: int, sizes: tuple[int, int]) -> int:
    """Sizes cycle with the instance number instead of being drawn, so
    every stretch of a run sees each size equally often."""
    low, high = sizes
    return low + i % (high - low + 1)


def cell(i: int, sizes: tuple[int, int]) -> tuple[int, bool]:
    """Size and wanted verdict of a family's ``i``-th instance.  Both cycle
    with the instance number, so every stretch of a run sees each size
    with each verdict equally often.  On families whose SAT and UNSAT
    latencies differ several-fold, a drawn verdict mix would move the
    median from seed to seed."""
    low, high = sizes
    span = high - low + 1
    return low + i % span, (i // span) % 2 == 0


def draw_qbf(rng: random.Random, variables: int, max_clauses: int, clauses=None):
    """``random_qbf`` draws its variable count from 1 to ``max_vars`` and
    its clause count from 1 to ``max_clauses``; keep the first draw with
    the wanted variable count (and clause count, if given)."""
    while True:
        q = random_qbf(rng, max_vars=variables, max_clauses=max_clauses)
        if len(q.variables) == variables and clauses in (None, len(q.clauses)):
            return q


def draw_kripke(rng: random.Random, worlds: int) -> KripkeStructure:
    while True:
        k = random_kripke(rng, max_worlds=worlds)
        if len(k.worlds) == worlds:
            return k


def _literal(rng: random.Random, props) -> Prop | NegProp:
    name = rng.choice(props)
    return Prop(name) if rng.random() < 0.5 else NegProp(name)


def _flat_body(rng: random.Random, budget: int, props):
    if budget <= 0:
        return _literal(rng, props)
    kind = rng.choice(("|", "|", "|", "&", "EX", "AX"))
    if kind in ("EX", "AX"):
        child = _flat_body(rng, budget - 1, props)
        return EX(child) if kind == "EX" else AX(child)
    left_budget = rng.randint(0, budget - 1)
    left = _flat_body(rng, left_budget, props)
    right = _flat_body(rng, budget - 1 - left_budget, props)
    return Split(left, right) if kind == "|" else And(left, right)


def flat_ctl_formula(rng: random.Random, budget: int, props=("p", "q")):
    """``EG``/``AG`` ψ1 ``|`` ``EG``/``AG`` ψ2 over bodies of literals,
    ``|``, ``&``, ``EX`` and ``AX``.  The split hands sub-multisets to the
    region searches under it, which enumerate successor multisets; the
    ``|``-heavy bodies keep the invariants true long enough for the
    searches to go deep.  A single ``EG``/``AG`` fails at once on about
    half of the teams, which splits the family's latencies in two."""
    left, right = (
        expand_shorthand(rng.choice(("EG", "AG")), [_flat_body(rng, budget, props)])
        for _ in range(2)
    )
    return Split(left, right)


def is_flat_ctl(phi) -> bool:
    """Literals, ``&``, ``|``, ``EX``, ``AX``, ``EG`` and ``AG`` only.  On
    this fragment team satisfaction is pointwise, so checking every member
    classically is a valid reference."""
    if isinstance(phi, (Prop, NegProp)):
        return True
    if isinstance(phi, (And, Split)):
        return is_flat_ctl(phi.left) and is_flat_ctl(phi.right)
    if isinstance(phi, (EX, AX)):
        return is_flat_ctl(phi.child)
    if isinstance(phi, (ER, AR)):
        return phi.left == bot() and is_flat_ctl(phi.right)
    return False


def lasso_fan(rng: random.Random, props=("p", "q")) -> KripkeStructure:
    """A root with one edge into each of several private cycles."""
    worlds = ["r"]
    edges = []
    for c, length in enumerate(HORIZON_CYCLES):
        cycle = [f"c{c}_{j}" for j in range(length)]
        worlds += cycle
        edges.append(("r", cycle[0]))
        edges += zip(cycle, cycle[1:] + cycle[:1])
    labels = {w: [p for p in props if rng.random() < 0.5] for w in worlds}
    return KripkeStructure.of(worlds, edges, labels, initial="r")


# ---------------------------------------------------------------------------
# Set-up: seed -> instances as text


def _build_tpc_qbf(rng, j, i, tr):
    clauses, wanted = cell(j, QBF_TPC_CLAUSES)
    while True:
        with tr.span("selftest.random_qbf", i):
            q = draw_qbf(rng, QBF_TPC_VARS, clauses, clauses)
        with tr.span("qbf.eval_qbf", i):
            if eval_qbf(normalize_qbf(q)) is wanted:
                break
    with tr.span("qbf.reduce_to_tpc", i):
        team, goal = reduce_to_tpc(q)
    if tr.enabled:
        tr.count("qbf.traces", len(team), i)
        tr.count("qbf.formula_len", formula_length(goal), i)
    with tr.span("parser.render", i):
        formula = render(goal)
    with tr.span("files.dumps_team", i):
        team_text = dumps_team(team)
    return {"team": team_text, "formula": formula, "source": qbf_text(q)}


def _build_tpc_plsim(rng, j, i, tr):
    with tr.span("selftest.random_pl_formula", i):
        while True:
            phi = random_pl_formula(rng, stratum(j, PLSIM_BUDGET), PLSIM_PROPS)
            if propositions(phi) == frozenset(PLSIM_PROPS):
                break
    with tr.span("qbf.reduce_plsim_to_tpc", i):
        team, goal = reduce_plsim_to_tpc(phi)
    if tr.enabled:
        tr.count("qbf.traces", len(team), i)
        tr.count("qbf.formula_len", formula_length(goal), i)
    with tr.span("parser.render", i):
        formula = render(goal)
        source = render(phi)
    with tr.span("files.dumps_team", i):
        team_text = dumps_team(team)
    return {"team": team_text, "formula": formula, "source": source}


def _build_ctl_flat(rng, j, i, tr):
    budget, wanted = cell(j, CTL_BUDGET)
    while True:
        with tr.span("selftest.random_kripke", i):
            k = draw_kripke(rng, CTL_WORLDS)
            team = [rng.choice(k.worlds) for _ in range(CTL_TEAM)]
        with tr.span("perfbench.flat_ctl_formula", i):
            phi = flat_ctl_formula(rng, budget)
        with tr.span("eval_classical.check_ctl_classical", i):
            if _holds_at_members(k, team, phi) is wanted:
                break
    return _ctl_text(k, team, phi, tr, i)


def _build_ctl_qbf(rng, j, i, tr):
    with tr.span("selftest.random_qbf", i):
        variables = stratum(j, CTL_QBF_VARS)
        q = draw_qbf(rng, variables, variables + 2)
    with tr.span("qbf.reduce_to_tmc_ctl", i):
        k, multiteam, phi = reduce_to_tmc_ctl(q)
    if tr.enabled:
        tr.count("qbf.worlds", len(k.worlds), i)
        tr.count("qbf.formula_len", formula_length(phi), i)
    return dict(_ctl_text(k, multiteam.worlds, phi, tr, i), source=qbf_text(q))


def _ctl_text(k, team, phi, tr, i):
    with tr.span("parser.render", i):
        formula = render(phi)
    with tr.span("files.dumps_kripke", i):
        kripke_text = dumps_kripke(k)
    return {"kripke": kripke_text, "team": ",".join(team), "formula": formula}


def _build_tmc_horizon(rng, j, i, tr):
    with tr.span("perfbench.lasso_fan", i):
        k = lasso_fan(rng)
    # One U or R, at the root: each formula then walks the whole horizon
    # once, which keeps the family about the horizon rather than about
    # formulas decided at the first position.  A U or R nested in an
    # operand is re-walked from every position of the outer one, about
    # 5545² suffix teams on the seed code: minutes, not a verdict.
    with tr.span("selftest.random_ltl_formula", i):
        while True:
            phi = random_ltl_formula(
                rng, stratum(j, HORIZON_BUDGET),
                allow_split=False, allow_cneg=True, allow_boolor=True,
            )
            if isinstance(phi, (Until, Release)) and not any(
                isinstance(node, (Until, Release))
                for operand in (phi.left, phi.right)
                for node in iter_nodes(operand)
            ):
                break
    with tr.span("parser.render", i):
        formula = render(phi)
    with tr.span("files.dumps_kripke", i):
        kripke_text = dumps_kripke(k)
    return {"kripke": kripke_text, "formula": formula}


_BUILD = {
    "tpc_qbf": _build_tpc_qbf,
    "tpc_plsim": _build_tpc_plsim,
    "tmc_horizon": _build_tmc_horizon,
    "ctl_flat": _build_ctl_flat,
    "ctl_qbf": _build_ctl_qbf,
}


def build(workload: str, seed: int, count: int, tracer=None) -> list[dict]:
    """The first ``count`` instances of the workload's pool for ``seed``.
    Families take turns, so every stretch of a run sees each of them."""
    tr = tracer or NullTracer()
    rng = random.Random(f"{workload}:{seed}")
    families = WORKLOADS[workload]
    pool = []
    for i in range(count):
        family = families[i % len(families)]
        inst = _BUILD[family](rng, i // len(families), i, tr)
        pool.append(dict(inst, family=family))
    return pool


# ---------------------------------------------------------------------------
# Verdicts: text -> tuple of verdicts, one per decision procedure run


def _decide_tpc(inst, tr, i):
    with tr.span("files.loads_team", i):
        team = loads_team(inst["team"])
    with tr.span("parser.parse_ltl", i):
        phi = parse_ltl(inst["formula"])
    with tr.span("eval_team_ltl.check_team", i):
        return (check_team(team, phi, max_team=len(team)),)


def _ctl_team(inst):
    return MultiTeam.of(inst["team"].split(","))


def _decide_ctl(inst, tr, i):
    with tr.span("files.loads_kripke", i):
        k = loads_kripke(inst["kripke"])
    with tr.span("parser.parse_ctl", i):
        phi = parse_ctl(inst["formula"])
    team = _ctl_team(inst)
    limits = CtlLimits(max_team=len(team), max_worlds=len(k.worlds))
    with tr.span("eval_team_ctl.mc_ctl", i):
        return (mc_ctl(k, team, phi, limits=limits),)


def _decide_horizon(inst, tr, i):
    with tr.span("files.loads_kripke", i):
        k = loads_kripke(inst["kripke"])
    with tr.span("parser.parse_ltl", i):
        phi = parse_ltl(inst["formula"])
    with tr.span("tmc_splitfree.check_model_splitfree", i):
        splitfree = check_model_splitfree(k, phi)
    with tr.span("kripke.enumerate_traces", i):
        team = enumerate_traces(k)
    with tr.span("eval_team_ltl.check_team", i):
        enumerated = check_team(team, phi, max_team=len(team))
    return (splitfree, enumerated)


_DECIDE = {
    "tpc_qbf": _decide_tpc,
    "tpc_plsim": _decide_tpc,
    "tmc_horizon": _decide_horizon,
    "ctl_flat": _decide_ctl,
    "ctl_qbf": _decide_ctl,
}


def decide(inst: dict, tr, i: int) -> tuple[bool, ...]:
    """Verdicts of the instance, one per decision procedure it runs."""
    return _DECIDE[inst["family"]](inst, tr, i)


# ---------------------------------------------------------------------------
# References: the expected verdict, from a procedure that shares no
# evaluator with the one checked


def _reference_qbf(inst, verdicts):
    return eval_qbf(normalize_qbf(parse_qbf_text(inst["source"])))


def _reference_plsim(inst, verdicts):
    return pl_team_satisfiable_bruteforce(parse_ltl(inst["source"]))


def _holds_at_members(k, team, phi) -> bool:
    return all(check_ctl_classical(k, w, phi) for w in set(team))


def _reference_flat(inst, verdicts):
    k = loads_kripke(inst["kripke"])
    phi = parse_ctl(inst["formula"])
    if not is_flat_ctl(phi):
        raise ValueError(f"formula outside the flat fragment: {inst['formula']}")
    return _holds_at_members(k, _ctl_team(inst).worlds, phi)


def _reference_horizon(inst, verdicts):
    # The two LTL modes of check-model decide the same question by
    # different constructions (flattening against trace enumeration).
    if verdicts is None:
        k = loads_kripke(inst["kripke"])
        team = enumerate_traces(k)
        return check_team(team, parse_ltl(inst["formula"]), max_team=len(team))
    return verdicts[1]


_REFERENCE = {
    "tpc_qbf": _reference_qbf,
    "tpc_plsim": _reference_plsim,
    "tmc_horizon": _reference_horizon,
    "ctl_flat": _reference_flat,
    "ctl_qbf": _reference_qbf,
}


def is_wrong(inst: dict, verdicts: tuple[bool, ...]) -> bool:
    expected = _REFERENCE[inst["family"]](inst, verdicts)
    return any(v != expected for v in verdicts)


def reference(inst: dict) -> bool:
    """The expected verdict of an instance that the loop did not decide."""
    return _REFERENCE[inst["family"]](inst, None)


# ---------------------------------------------------------------------------
# Per-layer counts for the traced run, computed outside the verdict spans


def probe(inst: dict, tr, i: int) -> None:
    family = inst["family"]
    if family in ("ctl_flat", "ctl_qbf"):
        text = inst["kripke"]
        k = loads_kripke(text)
        phi = parse_ctl(inst["formula"])
        roots = {
            tuple(sorted(choice))
            for choice in itertools.product(*(k.succ[w] for w in _ctl_team(inst).worlds))
        }
        tr.count("kripke.root_successors", len(roots), i)
    elif family == "tmc_horizon":
        text = inst["kripke"]
        k = loads_kripke(text)
        phi = parse_ltl(inst["formula"])
        with tr.span("tmc_splitfree.flatten", i):
            flat = flatten(k, props=k.prop_universe | propositions(phi))
        tr.count("tmc_splitfree.stem", flat.stem, i)
        tr.count("tmc_splitfree.period", flat.period, i)
        team = enumerate_traces(k)
        tr.count("kripke.traces", len(team), i)
    else:
        text = inst["team"]
        team = loads_team(text)
        phi = parse_ltl(inst["formula"])
    if family in ("tpc_qbf", "tmc_horizon"):
        tr.count("trace.team_size", len(team), i)
        tr.count("trace.horizon", prfx(team) + lcm_loop(team), i)
    tr.count("files.bytes", len(text.encode()), i)
    tr.count("formula.length", formula_length(phi), i)


# ---------------------------------------------------------------------------
# CLI: a fixed sample of instances and the command line for each

# Family -> the instances of it the CLI sample draws from, as a predicate
# on the family's instance number ``j``: the smallest size, and for the
# families built with a wanted verdict the cheaper one (UNSAT fails fast
# on flat CTL, SAT stops at the first split on QBF->TPC).  So the CLI
# figure is mostly start-up, import, loading and parsing.
_CLI_CELL = {
    "tpc_qbf": lambda j: cell(j, QBF_TPC_CLAUSES) == (QBF_TPC_CLAUSES[0], True),
    "tpc_plsim": lambda j: stratum(j, PLSIM_BUDGET) == PLSIM_BUDGET[0],
    "tmc_horizon": lambda j: stratum(j, HORIZON_BUDGET) == HORIZON_BUDGET[0],
    "ctl_flat": lambda j: cell(j, CTL_BUDGET) == (CTL_BUDGET[0], False),
    "ctl_qbf": lambda j: stratum(j, CTL_QBF_VARS) == CTL_QBF_VARS[0],
}


def cli_sample(workload: str, seed: int, pool_size: int, per_family: int) -> dict[str, list[int]]:
    """Family -> ``per_family`` pool indices for the CLI calls, drawn from
    the seed alone: every build of the code runs the same calls."""
    rng = random.Random(f"cli:{workload}:{seed}")
    families = WORKLOADS[workload]
    sample = {}
    for f, family in enumerate(families):
        indices = [
            i for i in range(f, pool_size, len(families))
            if _CLI_CELL[family](i // len(families))
        ]
        sample[family] = rng.sample(indices, per_family)
    return sample


def cli_args(inst: dict, directory: Path) -> list[str]:
    """Write the instance's files into ``directory`` and return the
    ``teamtl.cli`` arguments that decide it."""
    formula = directory / "formula.txt"
    formula.write_text(inst["formula"] + "\n")
    if inst["family"] in ("tpc_qbf", "tpc_plsim"):
        team = directory / "team.json"
        team.write_text(inst["team"])
        size = len(loads_team(inst["team"]))
        return ["check-path", str(team), f"@{formula}", "--max-team", str(size)]
    kripke = directory / "kripke.json"
    kripke.write_text(inst["kripke"])
    args = ["check-model", str(kripke), f"@{formula}"]
    if inst["family"] in ("ctl_flat", "ctl_qbf"):
        args += ["--mode", "ctl", "--team", inst["team"]]
    return args


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    pool = build(args.workload, args.seed, POOL[args.workload])
    args.out.write_text(json.dumps(pool))
    return 0


if __name__ == "__main__":
    sys.exit(main())
