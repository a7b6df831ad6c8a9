"""Synchronous team semantics for LTL and CTL.

Teams of ultimately periodic traces with splitjunction, contradictory
negation, Boolean disjunction, and generalised atoms; splitjunction-free
model checking over Kripke structures on their successor-set sequence,
with the paper's flattening construction; multiset-team CTL
model checking; QBF-reduction instance generators; and brute-force
oracles for differential testing.

Importing the package loads none of its modules: each name below is
imported from its home module on first use (PEP 562), so a CLI call
loads only the modules its subcommand runs.
"""

import importlib

__version__ = "0.1.0"

# Home module -> the names it exports.
_EXPORTS = {
    "errors": (
        "GenAtomPresent",
        "LassoForestViolation",
        "ResourceCapError",
        "SplitjunctionPresent",
        "TeamTLError",
        "UnsupportedNodeError",
    ),
    "eval_classical": (
        "check_ctl_classical",
        "check_ltl_classical",
        "check_ltl_classical_extended",
    ),
    "eval_team_ctl": ("CtlLimits", "from_index_zero", "mc_ctl", "mc_ctl_bruteforce"),
    "eval_team_ltl": ("check_team", "naive_oracle"),
    "files": (
        "FileFormatError",
        "dumps_kripke",
        "dumps_team",
        "load_kripke",
        "load_team",
        "loads_kripke",
        "loads_team",
    ),
    "formula": (
        "AR",
        "AU",
        "AX",
        "And",
        "BoolOr",
        "CNeg",
        "DEFAULT_MAX_TEAM",
        "ER",
        "EU",
        "EX",
        "Formula",
        "GenAtomApp",
        "GenAtomDef",
        "NegProp",
        "Next",
        "Prop",
        "Release",
        "Split",
        "Until",
        "bot",
        "dependence_atom",
        "expand_shorthand",
        "formula_length",
        "inclusion_atom",
        "is_downward_closed",
        "propositions",
        "top",
    ),
    "kripke": ("KripkeStructure", "MultiTeam", "enumerate_traces", "is_successor_team"),
    "parser": ("ParseError", "parse_ctl", "parse_ltl", "render"),
    "qbf": (
        "QbfInstance",
        "QbfParseError",
        "eval_qbf",
        "normalize_qbf",
        "parse_qbf_text",
        "pl_team_satisfiable_bruteforce",
        "reduce_plsim_to_tpc",
        "reduce_to_tmc_ctl",
        "reduce_to_tpc",
    ),
    "selftest": ("run_selftest",),
    "tmc_splitfree": ("check_model_splitfree", "flatten"),
    "trace": ("LassoTrace", "TeamEncoding", "canonicalize", "lcm_loop", "prfx"),
}
# The submodules exported by name; `cli` is not one of them.
_SUBMODULES = (*_EXPORTS, "fixtures")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_HOME, *_SUBMODULES])


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
