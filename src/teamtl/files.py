"""Readers and writers for the instance file formats.

All formats are JSON documents; `#` line comments are stripped before
parsing so fixture files can carry commentary.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from .errors import TeamTLError
from .kripke import KripkeStructure, validate
from .trace import LassoTrace, TeamEncoding

_COMMENT_RE = re.compile(r'^\s*#.*$', re.MULTILINE)


class FileFormatError(TeamTLError):
    pass


def _strip_comments(text: str) -> str:
    return _COMMENT_RE.sub("", text)


def loads_team(text: str) -> TeamEncoding:
    try:
        doc = json.loads(_strip_comments(text))
        traces = [
            LassoTrace.of(entry["prefix"], entry["loop"])
            for entry in doc["traces"]
        ]
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"malformed team file: {exc}") from exc
    return TeamEncoding.of(traces)


def dumps_team(team: TeamEncoding) -> str:
    doc = {
        "traces": [
            {
                "prefix": [sorted(pos) for pos in t.prefix],
                "loop": [sorted(pos) for pos in t.loop],
            }
            for t in team
        ]
    }
    return json.dumps(doc, indent=2) + "\n"


def loads_kripke(text: str) -> KripkeStructure:
    """Read a structure and reject it when ``validate`` finds a problem,
    such as an edge to an undeclared world or a world without successor."""
    try:
        doc = json.loads(_strip_comments(text))
        structure = KripkeStructure.of(
            worlds=doc["worlds"],
            edges=[tuple(edge) for edge in doc["edges"]],
            labels=doc.get("labels", {}),
            initial=doc.get("initial"),
        )
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"malformed structure file: {exc}") from exc
    problems = validate(structure)
    if problems:
        raise FileFormatError(f"invalid structure file: {'; '.join(problems)}")
    return structure


def dumps_kripke(k: KripkeStructure) -> str:
    doc = {
        "worlds": list(k.worlds),
        "edges": [list(edge) for edge in sorted(k.edges)],
        "labels": {w: sorted(ps) for w, ps in sorted(k.labels.items()) if ps},
        "initial": k.initial,
    }
    return json.dumps(doc, indent=2) + "\n"


def load_team(path: str | Path) -> TeamEncoding:
    return loads_team(Path(path).read_text())


def load_kripke(path: str | Path) -> KripkeStructure:
    return loads_kripke(Path(path).read_text())
