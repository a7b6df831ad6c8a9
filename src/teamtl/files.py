"""Readers and writers for the instance file formats.

All formats are JSON documents; `#` line comments are stripped before
parsing so fixture files can carry commentary.  The writers put each
top-level key on a line of its own, and each trace of a team file, and
write every line with `json.dumps` without ``indent``: the C encoder,
where ``indent`` would take the pure-Python one.

A team file is read in one pass: each position is checked as it is
turned into a label set, each distinct spelling once per file, and each
trace is built once, as `trace.TeamEncoding` keeps a trace that is
already canonical.  Formulas are read by `parser`, which bounds their
depth.
"""

from __future__ import annotations

import json
import re
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from .errors import TeamTLError
from .trace import LassoTrace, TeamEncoding

if TYPE_CHECKING:
    from .kripke import KripkeStructure

_COMMENT_RE = re.compile(r'^\s*#.*$', re.MULTILINE)


class FileFormatError(TeamTLError):
    pass


# What a malformed document can raise while it is read; RecursionError
# comes from JSON nested too deep.
_MALFORMED = (json.JSONDecodeError, KeyError, TypeError, ValueError, RecursionError)


def _strip_comments(text: str) -> str:
    return _COMMENT_RE.sub("", text) if "#" in text else text


def _lists_of_strings(values: Iterable, message: str, length: int | None = None) -> None:
    """Raise `TypeError` with ``message`` unless every item of ``values``
    is a JSON array of strings, each of ``length`` items if that is given.
    JSON values have exact types, so one set of types per level checks
    them all."""
    if not (
        set(map(type, values)) <= {list}
        and (length is None or set(map(len, values)) <= {length})
        and set(map(type, chain.from_iterable(values))) <= {str}
    ):
        raise TypeError(message)


_POSITION = "a trace position must be a list of strings"


def _positions(values, labels: dict[tuple, frozenset[str]]) -> tuple[frozenset[str], ...]:
    """The label sets of a prefix or a loop, each position a JSON array of
    strings.  ``labels`` maps each spelling met so far, all of whose items
    are strings, to its frozenset, so each distinct spelling is checked
    and built once per file."""
    out = []
    for pos in values:
        if type(pos) is not list:
            raise TypeError(_POSITION)
        key = tuple(pos)
        try:
            label = labels.get(key)
        except TypeError:  # an item that is an array or an object
            raise TypeError(_POSITION) from None
        if label is None:
            if not set(map(type, key)) <= {str}:
                raise TypeError(_POSITION)
            label = labels[key] = frozenset(key)
        out.append(label)
    return tuple(out)


def loads_team(text: str) -> TeamEncoding:
    try:
        doc = json.loads(_strip_comments(text))
        labels: dict[tuple, frozenset[str]] = {}
        traces = []
        for entry in doc["traces"]:
            prefix, loop = entry["prefix"], entry["loop"]
            traces.append(LassoTrace(_positions(prefix, labels), _positions(loop, labels)))
    except _MALFORMED as exc:
        raise FileFormatError(f"malformed team file: {exc}") from exc
    return TeamEncoding.of(traces)


def _lines(doc: dict[str, str]) -> str:
    """A JSON object of the keys of ``doc``, one line each, whose values
    are already JSON text."""
    body = ",\n".join(f"  {json.dumps(key)}: {value}" for key, value in doc.items())
    return "{\n" + body + "\n}\n"


def dumps_team(team: TeamEncoding) -> str:
    traces = ",\n".join(
        "    " + json.dumps({
            "prefix": [sorted(pos) for pos in t.prefix],
            "loop": [sorted(pos) for pos in t.loop],
        })
        for t in team
    )
    return _lines({"traces": f"[\n{traces}\n  ]" if traces else "[]"})


def loads_kripke(text: str) -> KripkeStructure:
    """Read a structure with at least one world.  Every problem that
    building it finds, such as an edge to an undeclared world or a world
    without successor, is a `FileFormatError`."""
    from .kripke import KripkeStructure

    try:
        doc = json.loads(_strip_comments(text))
        # Indexing a document that is no JSON object raises TypeError.
        worlds, edges = doc["worlds"], doc["edges"]
        _lists_of_strings((worlds,), "worlds must be a list of strings")
        _lists_of_strings(edges, "an edge must be a list of two strings", 2)
        labels = doc.get("labels") or {}
        if not isinstance(labels, dict):
            raise TypeError("labels must be an object")
        _lists_of_strings(labels.values(), "a label must be a list of strings")
        structure = KripkeStructure(
            tuple(worlds),
            frozenset(map(tuple, edges)),
            {w: frozenset(ps) for w, ps in labels.items()},
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
    return _lines({key: json.dumps(value) for key, value in doc.items()})


def load_team(path: str | Path) -> TeamEncoding:
    return loads_team(Path(path).read_text())


def load_kripke(path: str | Path) -> KripkeStructure:
    return loads_kripke(Path(path).read_text())
