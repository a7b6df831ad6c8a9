"""Synchronous team semantics for LTL and CTL.

Teams of ultimately periodic traces with splitjunction, contradictory
negation, Boolean disjunction, and generalised atoms; splitjunction-free
model checking over Kripke structures via flattening; multiset-team CTL
model checking; QBF-reduction instance generators; and brute-force
oracles for differential testing.
"""

from .errors import (
    GenAtomPresent,
    LassoForestViolation,
    ResourceCapError,
    SplitjunctionPresent,
    TeamTLError,
    UnsupportedNodeError,
)
from .eval_classical import (
    check_ctl_classical,
    check_ltl_classical,
    check_ltl_classical_extended,
)
from .eval_team_ctl import CtlLimits, from_index_zero, mc_ctl, mc_ctl_bruteforce
from .eval_team_ltl import DEFAULT_MAX_TEAM, check_team, naive_oracle
from .files import (
    FileFormatError,
    dumps_kripke,
    dumps_team,
    load_kripke,
    load_team,
    loads_kripke,
    loads_team,
)
from .formula import (
    AR,
    AU,
    AX,
    And,
    BoolOr,
    CNeg,
    ER,
    EU,
    EX,
    Formula,
    GenAtomApp,
    GenAtomDef,
    NegProp,
    Next,
    Prop,
    Release,
    Split,
    Until,
    bot,
    dependence_atom,
    expand_shorthand,
    formula_length,
    inclusion_atom,
    is_downward_closed,
    propositions,
    top,
)
from .kripke import (
    KripkeStructure,
    MultiTeam,
    enumerate_traces,
    is_successor_team,
)
from .parser import ParseError, parse_ctl, parse_ltl, render
from .qbf import (
    QbfInstance,
    QbfParseError,
    eval_qbf,
    normalize_qbf,
    parse_qbf_text,
    pl_team_satisfiable_bruteforce,
    reduce_plsim_to_tpc,
    reduce_to_tmc_ctl,
    reduce_to_tpc,
)
from .selftest import run_selftest
from .tmc_splitfree import check_model_splitfree, flatten
from .trace import LassoTrace, TeamEncoding, canonicalize, lcm_loop, prfx, suffix_team

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
