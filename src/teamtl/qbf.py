"""Quantified Boolean formulas: parsing, normalization, brute-force
evaluation, and the three reduction constructions used as end-to-end
differential oracles.

- ``reduce_to_tpc`` turns a QBF into a team-path-checking instance: gadget
  traces encode quantifier choices and clause literals, synchronized by the
  reserved ``$``/``#`` markers.
- ``reduce_to_tmc_ctl`` turns a QBF into a TeamCTL model-checking instance
  over variable and clause gadget structures.
- ``reduce_plsim_to_tpc`` embeds propositional team logic with
  contradictory negation into team path checking via the assignment
  structure whose traces are exactly the propositional assignments.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import ResourceCapError, TeamTLError
from .formula import (
    AU,
    AX,
    And,
    BoolOr,
    CNeg,
    EU,
    EX,
    Formula,
    NegProp,
    Next,
    Prop,
    Split,
    Until,
    bot,
    check_depth,
    expand_shorthand,
    iter_nodes,
    map_literals,
    top,
)
from .kripke import KripkeStructure, MultiTeam, enumerate_traces
from .parser import is_proposition_name
from .trace import LassoTrace, TeamEncoding

# Reserved proposition names for the reduction alphabets ($ and # markers).
DOLLAR = "_d"
HASH = "_h"


def quant_prop(var: str) -> str:
    return f"_q_{var}"


def clause_prop(j: int) -> str:
    return f"_c_{j}"


Literal = tuple[str, bool]  # (variable, is_positive)


@dataclass(frozen=True)
class PrenexCnf:
    """Raw prenex CNF input: quantifiers aligned with variables, clauses of
    arbitrary positive width."""

    quantifiers: tuple[str, ...]  # each 'e' or 'a'
    variables: tuple[str, ...]
    clauses: tuple[tuple[Literal, ...], ...]


@dataclass(frozen=True)
class QbfInstance:
    """Normalized instance: strictly alternating prefix starting with ∃ and
    exactly three literals per clause."""

    quantifiers: tuple[str, ...]
    variables: tuple[str, ...]
    clauses: tuple[tuple[Literal, Literal, Literal], ...]

    def __post_init__(self):
        if len(self.quantifiers) != len(self.variables):
            raise ValueError("one quantifier per variable required")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("variables must be pairwise distinct")
        for i, q in enumerate(self.quantifiers):
            expected = "e" if i % 2 == 0 else "a"
            if q != expected:
                raise ValueError("quantifier prefix must strictly alternate from ∃")
        declared = set(self.variables)
        for clause in self.clauses:
            if len(clause) != 3:
                raise ValueError("clauses must have exactly 3 literals")
            for var, _ in clause:
                if var not in declared:
                    raise ValueError(f"literal over unquantified variable {var!r}")


class QbfParseError(TeamTLError):
    pass


def _variable(name: str, lineno: int) -> str:
    if not is_proposition_name(name):
        raise QbfParseError(
            f"line {lineno}: variable {name!r} is no proposition name, "
            "an ASCII identifier that is no keyword of the formula syntax"
        )
    return name


def parse_qbf_text(text: str) -> PrenexCnf:
    """Text format: quantifier lines `exists x` / `forall y` first, then one
    clause per line as space-separated literals with `-` for negation.
    The reductions write each variable into a formula as a proposition,
    so a name that the formula parsers would not read back as one is an
    error."""
    quantifiers: list[str] = []
    variables: list[str] = []
    clauses: list[tuple[Literal, ...]] = []
    in_matrix = False
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] in ("exists", "forall"):
            if in_matrix:
                raise QbfParseError(
                    f"line {lineno}: quantifier after clause lines (input not prenex)"
                )
            if len(tokens) != 2:
                raise QbfParseError(f"line {lineno}: expected one variable name")
            quantifiers.append("e" if tokens[0] == "exists" else "a")
            variables.append(_variable(tokens[1], lineno))
            continue
        in_matrix = True
        clause = []
        for tok in tokens:
            negative = tok.startswith("-")
            var = tok[1:] if negative else tok
            if not var:
                raise QbfParseError(f"line {lineno}: empty literal")
            clause.append((_variable(var, lineno), not negative))
        clauses.append(tuple(clause))
    if len(set(variables)) != len(variables):
        raise QbfParseError("duplicate quantified variable")
    return PrenexCnf(tuple(quantifiers), tuple(variables), tuple(clauses))


def normalize_qbf(raw: PrenexCnf) -> QbfInstance:
    """Pad clauses to width 3 by literal duplication and insert fresh dummy
    variables wherever the prefix breaks strict ∃/∀ alternation; both steps
    preserve validity (dummies never occur in the matrix)."""
    quantifiers: list[str] = []
    variables: list[str] = []
    used = set(raw.variables)
    dummy_counter = itertools.count(1)

    def fresh() -> str:
        while True:
            name = f"_dummy{next(dummy_counter)}"
            if name not in used:
                used.add(name)
                return name

    for q, var in zip(raw.quantifiers, raw.variables):
        expected = "e" if len(quantifiers) % 2 == 0 else "a"
        if q != expected:
            quantifiers.append(expected)
            variables.append(fresh())
        quantifiers.append(q)
        variables.append(var)
    clauses = []
    for clause in raw.clauses:
        if not clause:
            raise QbfParseError("empty clause cannot be padded")
        padded = list(clause)
        while len(padded) < 3:
            padded.append(padded[0])
        if len(padded) > 3:
            raise QbfParseError("clauses wider than 3 literals are not supported")
        clauses.append(tuple(padded))
    return QbfInstance(tuple(quantifiers), tuple(variables), tuple(clauses))


def eval_qbf(q: QbfInstance) -> bool:
    """Brute-force game evaluation."""
    if len(q.variables) > 20:
        raise ResourceCapError("brute-force evaluation supports at most 20 variables")
    assignment: dict[str, bool] = {}

    def matrix() -> bool:
        return all(
            any(assignment[var] == positive for var, positive in clause)
            for clause in q.clauses
        )

    def play(i: int) -> bool:
        if i == len(q.variables):
            return matrix()
        var = q.variables[i]
        results = []
        for value in (True, False):
            assignment[var] = value
            results.append(play(i + 1))
        del assignment[var]
        if q.quantifiers[i] == "e":
            return any(results)
        return all(results)

    return play(0)


# ---------------------------------------------------------------------------
# Reduction: QBF -> team path checking (LTL)


def _splitjunction_chain(parts: list[Formula]) -> Formula:
    result = parts[-1]
    for part in reversed(parts[:-1]):
        result = Split(part, result)
    return result


def _and_chain(parts: list[Formula]) -> Formula:
    result = parts[-1]
    for part in reversed(parts[:-1]):
        result = And(part, result)
    return result


def _f(phi: Formula) -> Formula:
    return expand_shorthand("F", [phi])


def _loop_trace(*positions: set[str]) -> LassoTrace:
    return LassoTrace((), tuple(frozenset(pos) for pos in positions))


def reduce_to_tpc(q: QbfInstance) -> tuple[TeamEncoding, Formula]:
    """Gadget traces and formula whose team satisfaction equals QBF validity.

    All traces are pure loops over the markers ``$``/``#``, the variable
    propositions, the quantifier-tracking propositions, and one clause
    proposition per clause.
    """
    n = len(q.variables)
    # Formula: innermost part checks that chosen variable traces and clause
    # traces can be split off at synchronized positions.
    parts = [_f(Prop(var)) for var in q.variables]
    parts += [_f(Prop(clause_prop(j))) for j in range(1, len(q.clauses) + 1)]
    if not parts:
        return TeamEncoding.of([]), top()
    phi = _splitjunction_chain(parts)
    for i in range(n - 1, -1, -1):
        var = q.variables[i]
        qp = Prop(quant_prop(var))
        if q.quantifiers[i] == "e":
            phi = Split(_f(qp), phi)
        else:
            body = _splitjunction_chain(
                [
                    Prop(DOLLAR),
                    Until(NegProp(quant_prop(var)), qp),
                    _f(And(Prop(HASH), Next(phi))),
                ]
            )
            phi = Until(body, Prop(HASH))

    traces: list[LassoTrace] = []
    for j, clause in enumerate(q.clauses, 1):
        for k, (var, positive) in enumerate(clause, 1):
            if positive:
                loop = [set(), {var, DOLLAR}, {DOLLAR, HASH}]
            else:
                loop = [set(), {DOLLAR}, {var, DOLLAR, HASH}]
            for idx in {0, 1, 2} - {k - 1}:
                loop[idx] = loop[idx] | {clause_prop(j)}
            traces.append(_loop_trace(*loop))
    for i, var in enumerate(q.variables):
        qp = quant_prop(var)
        traces.append(_loop_trace(set(), {var, qp, DOLLAR}, {DOLLAR, HASH}))
        traces.append(_loop_trace(set(), {DOLLAR}, {var, qp, DOLLAR, HASH}))
        if q.quantifiers[i] == "a":
            traces.append(
                _loop_trace(
                    set(), {qp, DOLLAR}, {DOLLAR}, set(), {DOLLAR}, {qp, DOLLAR, HASH}
                )
            )
    return TeamEncoding.of(traces), phi


# ---------------------------------------------------------------------------
# Reduction: QBF -> TeamCTL model checking


def reduce_to_tmc_ctl(q: QbfInstance) -> tuple[KripkeStructure, MultiTeam, Formula]:
    """Variable gadgets pick assignments by branching at quantifier depth;
    the clause gadget fans out to one literal chain per clause literal; the
    formula's EX/AX prefix mirrors the quantifier prefix and the final
    conjunction of EF goals enforces consistency."""
    n = len(q.variables)
    all_vars = set(q.variables)
    worlds: list[str] = []
    edges: list[tuple[str, str]] = []
    labels: dict[str, set[str]] = {}

    def add_world(name: str, label: set[str] | None = None) -> str:
        worlds.append(name)
        labels[name] = label or set()
        return name

    for i, var in enumerate(q.variables, 1):
        chain = [add_world(f"w_{var}_{j}") for j in range(1, i + 1)]
        for a, b in zip(chain, chain[1:]):
            edges.append((a, b))
        for branch in (1, 2):
            prev = chain[-1]
            for j in range(i + 1, n + 5):
                name = add_world(f"w_{var}_{j}_{branch}")
                edges.append((prev, name))
                prev = name
            edges.append((prev, prev))
        # Assignment labels: branch 1 = true (goal visible one step after
        # the formula's X-prefix), branch 2 = false (one step later).
        labels[f"w_{var}_{n + 3}_1"] = set(all_vars)
        labels[f"w_{var}_{n + 4}_1"] = all_vars - {var}
        labels[f"w_{var}_{n + 3}_2"] = all_vars - {var}
        labels[f"w_{var}_{n + 4}_2"] = set(all_vars)

    clause_chain = [add_world(f"wc_{i}") for i in range(1, n + 2)]
    for a, b in zip(clause_chain, clause_chain[1:]):
        edges.append((a, b))
    for j, clause in enumerate(q.clauses, 1):
        pick = add_world(f"wc_pick_{j}")
        edges.append((clause_chain[-1], pick))
        for i, (var, positive) in enumerate(clause, 1):
            if positive:
                level1 = set(all_vars)
                level2 = all_vars - {var}
            else:
                level1 = all_vars - {var}
                level2 = set(all_vars)
            first = add_world(f"wlit_{j}_{i}_1", level1)
            second = add_world(f"wlit_{j}_{i}_2", level2)
            edges.append((pick, first))
            edges.append((first, second))
            edges.append((second, second))
    if not q.clauses:
        # Keep the relation left-total even without clauses.
        edges.append((clause_chain[-1], clause_chain[-1]))

    structure = KripkeStructure.of(worlds, edges, labels, initial=None)
    team = MultiTeam.of([f"w_{var}_1" for var in q.variables] + ["wc_1"])

    goal = _and_chain([EU(top(), Prop(var)) for var in q.variables]) if n else top()
    # After the n quantifier steps: AX ranges over the clause fan-out, EX
    # picks one literal chain per clause, then every variable goal must be
    # reachable at a synchronized-enough depth.
    phi: Formula = AX(EX(goal))
    for i in range(n - 1, -1, -1):
        phi = EX(phi) if q.quantifiers[i] == "e" else AX(phi)
    return structure, team, phi


# ---------------------------------------------------------------------------
# Reduction: propositional team logic with ~ -> team path checking


def assignment_prop(var: str, value: bool) -> str:
    return var if value else f"_n_{var}"


def assignment_structure(variables: list[str]) -> KripkeStructure:
    """The branching-chain structure whose traces are exactly the
    propositional assignments: layer i offers a `var true` and a `var
    false` world, fully connected layer to layer, self-loops at the end."""
    worlds: list[str] = ["r"]
    edges: list[tuple[str, str]] = []
    labels: dict[str, set[str]] = {"r": set()}
    previous = ["r"]
    for i, var in enumerate(variables):
        layer = []
        for value in (True, False):
            name = f"{'t' if value else 'f'}_{var}"
            worlds.append(name)
            labels[name] = {assignment_prop(var, value)}
            layer.append(name)
        for a in previous:
            for b in layer:
                edges.append((a, b))
        previous = layer
    for w in previous:
        edges.append((w, w))
    if previous == ["r"]:
        edges.append(("r", "r"))
    return KripkeStructure.of(worlds, edges, labels, initial="r")


_PL_NODES = (Prop, NegProp, And, Split, BoolOr, CNeg)


def _pl_literal_goal(literal: Formula) -> Formula:
    value = isinstance(literal, Prop)
    return _f(Prop(assignment_prop(literal.name, value)))


def _rewrite_pl(phi: Formula) -> Formula:
    """Replace each propositional literal by an F-goal on the assignment
    traces."""
    for node in iter_nodes(phi):
        if not isinstance(node, _PL_NODES):
            raise ValueError(
                f"propositional team formulas cannot contain {type(node).__name__}"
            )
    return map_literals(phi, _pl_literal_goal)


def pl_variables(phi: Formula) -> list[str]:
    return sorted(
        node.name for node in iter_nodes(phi) if isinstance(node, (Prop, NegProp))
    )


def reduce_plsim_to_tpc(phi: Formula) -> tuple[TeamEncoding, Formula]:
    """Team-satisfiability of a propositional ~-formula as a path-checking
    instance: the full assignment team must satisfy "some nonempty subteam
    satisfies the rewritten formula".  Raises `ResourceCapError` when
    ``phi`` is nested deeper than `formula.MAX_DEPTH`."""
    variables = sorted(set(pl_variables(check_depth(phi))))
    if len(variables) > 10:
        raise ResourceCapError("at most 10 propositional variables supported")
    team = enumerate_traces(assignment_structure(variables))
    goal = Split(top(), And(CNeg(bot()), _rewrite_pl(phi)))
    return team, goal


# ---------------------------------------------------------------------------
# Brute-force propositional team satisfiability (oracle for the reduction)


# The oracle tabulates each node over all 2^(2^n) subteams of the 2^n
# assignments of n variables, and a split pairs every satisfying subteam
# of one side with every one of the other: 4 variables give 65536
# subteams, and a split of 3 variables at most 2^8 · 2^8 pairs.
PL_ORACLE_MAX_VARS = 4
PL_ORACLE_MAX_PAIRS = 2**20


def pl_team_satisfiable_bruteforce(phi: Formula) -> bool:
    """Is there a nonempty team of assignments satisfying the formula under
    propositional team semantics (splits as unrestricted covers)?  Raises
    `ResourceCapError` for more than `PL_ORACLE_MAX_VARS` variables, or
    where a split would pair more than `PL_ORACLE_MAX_PAIRS` subteams."""
    variables = sorted(set(pl_variables(phi)))
    if len(variables) > PL_ORACLE_MAX_VARS:
        raise ResourceCapError(
            f"propositional oracle supports at most {PL_ORACLE_MAX_VARS} variables, "
            f"not {len(variables)}"
        )
    assignments = [
        frozenset(v for v, bit in zip(variables, bits) if bit)
        for bits in itertools.product((False, True), repeat=len(variables))
    ]
    n = len(assignments)
    full_masks = range(1 << n)
    tables: dict[int, list[bool]] = {}

    def table(node: Formula) -> list[bool]:
        cached = tables.get(id(node))
        if cached is not None:
            return cached
        if isinstance(node, (Prop, NegProp)):
            if isinstance(node, Prop):
                sat_members = [node.name in a for a in assignments]
            else:
                sat_members = [node.name not in a for a in assignments]
            result = [
                all(sat_members[i] for i in range(n) if mask >> i & 1)
                for mask in full_masks
            ]
        elif isinstance(node, And):
            lt, rt = table(node.left), table(node.right)
            result = [a and b for a, b in zip(lt, rt)]
        elif isinstance(node, BoolOr):
            lt, rt = table(node.left), table(node.right)
            result = [a or b for a, b in zip(lt, rt)]
        elif isinstance(node, CNeg):
            result = [not a for a in table(node.child)]
        elif isinstance(node, Split):
            lt, rt = table(node.left), table(node.right)
            sat_left = [m for m in full_masks if lt[m]]
            sat_right = [m for m in full_masks if rt[m]]
            if len(sat_left) * len(sat_right) > PL_ORACLE_MAX_PAIRS:
                raise ResourceCapError(
                    f"propositional oracle split pairs {len(sat_left)} by "
                    f"{len(sat_right)} subteams, over {PL_ORACLE_MAX_PAIRS}"
                )
            unions = set()
            for m1 in sat_left:
                for m2 in sat_right:
                    unions.add(m1 | m2)
            result = [mask in unions for mask in full_masks]
        else:
            raise ValueError(
                f"propositional team formulas cannot contain {type(node).__name__}"
            )
        tables[id(node)] = result
        return result

    verdicts = table(phi)
    return any(verdicts[mask] for mask in full_masks if mask)
