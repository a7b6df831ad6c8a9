"""Readers and writers for the instance file formats.

All formats are JSON documents; `#` line comments are stripped before
parsing so fixture files can carry commentary.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from .errors import TeamTLError
from .kripke import KripkeStructure
from .trace import LassoTrace, TeamEncoding

_COMMENT_RE = re.compile(r'^\s*#.*$', re.MULTILINE)


class FileFormatError(TeamTLError):
    pass


# What a malformed document can raise while it is read; RecursionError
# comes from JSON nested too deep.
_MALFORMED = (json.JSONDecodeError, KeyError, TypeError, ValueError, RecursionError)


def _strip_comments(text: str) -> str:
    return _COMMENT_RE.sub("", text)


def _strings(value, what: str) -> list[str]:
    """``value`` itself if it is a JSON array of strings."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise TypeError(f"{what} must be a list of strings")
    return value


def loads_team(text: str) -> TeamEncoding:
    try:
        doc = json.loads(_strip_comments(text))
        traces = [
            LassoTrace.of(
                [_strings(pos, "a trace position") for pos in entry["prefix"]],
                [_strings(pos, "a trace position") for pos in entry["loop"]],
            )
            for entry in doc["traces"]
        ]
    except _MALFORMED as exc:
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
    """Read a structure with at least one world.  Every problem that
    building it finds, such as an edge to an undeclared world or a world
    without successor, is a `FileFormatError`."""
    try:
        doc = json.loads(_strip_comments(text))
        # Indexing a document that is no JSON object raises TypeError.
        worlds = _strings(doc["worlds"], "worlds")
        edges = [tuple(_strings(edge, "an edge")) for edge in doc["edges"]]
        labels = doc.get("labels") or {}
        if not isinstance(labels, dict):
            raise TypeError("labels must be an object")
        structure = KripkeStructure.of(
            worlds,
            edges,
            {w: _strings(ps, "a label") for w, ps in labels.items()},
            doc.get("initial"),
        )
    except _MALFORMED as exc:
        raise FileFormatError(f"invalid structure file: {exc}") from exc
    if not structure.worlds:
        raise FileFormatError("invalid structure file: structure has no worlds")
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
