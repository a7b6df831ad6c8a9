"""Concrete text syntax for LTL and CTL formulas.

The syntax of each operator is declared once, in the tables below:
`_INFIX` holds the infix operators with their precedence, and
`_SYNTAX` each logic's words: its prefix operators (``X``; ``EX``,
``AX``), the shorthands of `formula.SHORTHANDS` it admits (``F``,
``G``; ``EF``, ``AF``, ``EG``, ``AG``), and its path operators, a
quantifier ``E`` or ``A`` with ``U`` or ``R`` inside brackets.  The
parser reads these tables and `render` reads them backwards.

Precedence, loosest to tightest: the prefix `~` (contradictory negation,
greedy: it swallows the longest expression starting at its position);
binary `U`/`R` (right-associative, LTL only); `|` (splitjunction); `\\|/`
(Boolean disjunction); `&`; the prefix operators; `!` directly before a
proposition.  In CTL a bare ``X``, ``F``, ``G``, ``U`` or ``R`` is an
error.  Atoms: `dep(p1,..;q1,..)`, `inc(p1,..;q1,..)`, `TOP`, `BOT`,
and registered generalised atoms.  `#` starts a comment; whitespace is
insignificant.

The text is split into tokens by one regular expression, and a token is
its text: offsets are counted only for the span of an error.  The
parser bounds the depth of each node as it builds it, so a formula
deeper than `formula.MAX_DEPTH` is a `ParseError` with the span where
the bound is passed, and each proposition's literal is built once per
parse and shared.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping

from .errors import TeamTLError
from .formula import (
    MAX_DEPTH,
    AR,
    AU,
    And,
    BoolOr,
    CNeg,
    ER,
    EU,
    AX,
    EX,
    SHORTHANDS,
    Formula,
    GenAtomApp,
    GenAtomDef,
    NegProp,
    Next,
    Prop,
    Release,
    Split,
    Until,
    dependence_atom,
    inclusion_atom,
)


@dataclass(frozen=True)
class SourceSpan:
    start: int
    end: int


class ParseError(TeamTLError):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{message} (at offset {span.start}..{span.end})")
        self.message = message
        self.span = span


# The tokens: Boolean disjunction, the symbols and the identifiers.
# Splitting on this pattern leaves the text between tokens, which may
# hold only whitespace and comments.
_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_TOKEN_RE = re.compile(rf"(\\\|/|[()\[\],;&|!~]|{_NAME})")
_COMMENT_RE = re.compile(r"#[^\n]*")

# ---------------------------------------------------------------------------
# The syntax tables

_TOP, _BOT = SHORTHANDS["F"][1], SHORTHANDS["G"][1]
_CONSTANTS = {"TOP": _TOP, "BOT": _BOT}
# Infix operators by class: their text and precedence, loosest first.
# U and R, at precedence `_RIGHT`, group to the right, the others to the
# left; prefix operators bind tighter than all of them.
_INFIX = {
    Until: ("U", 1), Release: ("R", 1), Split: ("|", 2), BoolOr: ("\\|/", 3), And: ("&", 4),
}
_RIGHT = 1
_PREFIX = 5


class _Syntax:
    """One logic's words.  ``prefix`` maps a prefix operator to its
    class, ``shorthands`` names the `formula.SHORTHANDS` the logic admits,
    ``paths`` maps a quantifier and the ``U`` or ``R`` in its brackets to
    a class, ``infix`` maps the text of each of its infix operators
    (given by class) to the class and its precedence, and ``bare`` holds
    the words it rejects without a path quantifier.  ``keywords`` are all
    its reserved words, which name no proposition."""

    def __init__(self, prefix, shorthands, infix, paths=None, bare=()):
        self.prefix = prefix
        self.shorthands = frozenset(shorthands)
        self.infix = {_INFIX[kind][0]: (kind, _INFIX[kind][1]) for kind in infix}
        self.paths = paths or {}
        self.quantifiers = {quantifier for quantifier, _ in self.paths}
        self.bare = frozenset(bare)
        self.keywords = {
            *prefix, *shorthands, *(text for text in self.infix if text.isalpha()),
            *self.quantifiers, *(op for _, op in self.paths), *bare,
            *_CONSTANTS, "dep", "inc",
        }


_SYNTAX = {
    "ltl": _Syntax({"X": Next}, ("F", "G"), (Until, Release, Split, BoolOr, And)),
    "ctl": _Syntax(
        {"EX": EX, "AX": AX},
        ("EF", "AF", "EG", "AG"),
        (Split, BoolOr, And),
        paths={("E", "U"): EU, ("E", "R"): ER, ("A", "U"): AU, ("A", "R"): AR},
        bare=("X", "F", "G", "U", "R"),
    ),
}

_RESERVED = frozenset().union(*(syntax.keywords for syntax in _SYNTAX.values()))


def is_proposition_name(name: str) -> bool:
    """Whether both parsers read ``name`` as a proposition: an identifier
    token that is no reserved word of either logic."""
    return re.fullmatch(_NAME, name) is not None and name not in _RESERVED


def _blank(comment: re.Match) -> str:
    return " " * len(comment.group())


def _split(text: str) -> list[str]:
    """``text`` split into the text between tokens and the tokens,
    alternately, starting and ending with the former.  Comments are
    blanked first, which keeps every offset; a character that is neither
    whitespace nor part of a token is an error at the first one."""
    if "#" in text:
        text = _COMMENT_RE.sub(_blank, text)
    parts = _TOKEN_RE.split(text)
    between = "".join(parts[::2])
    if between and not between.isspace():
        offset = 0
        for gap, token in zip(parts[::2], parts[1::2] + [""]):
            if not gap.isspace():
                pos = offset + len(gap) - len(gap.lstrip())
                if pos < offset + len(gap):
                    raise ParseError(f"unexpected character {text[pos]!r}", SourceSpan(pos, pos + 1))
            offset += len(gap) + len(token)
    return parts


# The depth of TOP and BOT: each is a connective over two literals.
_CONSTANT_DEPTH = 2


class _Parser:
    """One parse.  The tokens are their texts, with "" for the end of the
    input; ``tok`` is the current one, number ``pos``.  Offsets are
    needed only for errors, so `span` counts them from ``parts``."""

    def __init__(self, text: str, mode: str, atoms: Mapping[str, GenAtomDef]):
        self.parts = _split(text)
        self.tokens = self.parts[1::2]
        self.tokens.append("")
        self.pos = 0
        self.tok = self.tokens[0]
        self.syntax = _SYNTAX[mode]
        self.atoms = atoms
        # Each proposition's literals, built once per parse.
        self.literals: dict[tuple[type, str], Formula] = {}

    # -- token helpers ----------------------------------------------------

    def span(self, pos: int | None = None) -> SourceSpan:
        """The span of token ``pos``, by default the current one."""
        pos = self.pos if pos is None else pos
        start = sum(map(len, self.parts[: 2 * pos + 1]))
        return SourceSpan(start, start + len(self.tokens[pos]))

    def error(self, message: str, pos: int | None = None) -> ParseError:
        return ParseError(message, self.span(pos))

    def advance(self) -> None:
        self.pos += 1
        self.tok = self.tokens[self.pos]

    def expect(self, text: str) -> None:
        if self.tok != text:
            raise self.error(f"expected {text!r}, found {self.tok or 'end of input'!r}")
        self.advance()

    def literal(self, kind: type, name: str) -> Formula:
        phi = self.literals.get((kind, name))
        if phi is None:
            phi = self.literals[kind, name] = kind(name)
        return phi

    # -- grammar ----------------------------------------------------------
    #
    # Each rule returns the formula it built and the number of levels of its
    # tree, so that no walk over the finished tree is needed to bound it.
    # ``level`` counts the calls of `unary_expr` under way, through which
    # every nested sub-expression passes: a bracket, an atom's arguments,
    # and the operand of a prefix operator or `~`.

    def node(self, phi: Formula, below: int) -> tuple[Formula, int]:
        """``phi`` with its depth, one more than ``below``, the deepest of
        its subformulas'; a tree deeper than `MAX_DEPTH` is an error."""
        if below >= MAX_DEPTH:
            raise self.error(f"formula nested more than {MAX_DEPTH} deep")
        return phi, below + 1

    def parse(self) -> Formula:
        phi, _ = self.expr(0)
        tok = self.tok
        if tok:
            if tok in self.syntax.bare:
                raise self.error(f"bare {tok} without path quantifier")
            raise self.error(f"unexpected {tok!r}")
        return phi

    def expr(self, level: int) -> tuple[Formula, int]:
        negations = 0
        while self.tok == "~":
            self.advance()
            negations += 1
        phi, depth = self.infix_expr(level)
        for _ in range(negations):
            phi, depth = self.node(CNeg(phi), depth)
        return phi, depth

    def infix_expr(self, level: int) -> tuple[Formula, int]:
        # Operator precedence without a frame per level: an operator waits
        # until one arrives that binds no tighter (for U and R, looser), or
        # the expression ends, and then takes the two operands before it.
        operands, waiting = [self.unary_expr(level)], []
        infix = self.syntax.infix
        while True:
            op = infix.get(self.tok)
            prec = op[1] if op else 0
            while waiting and (waiting[-1][1] > prec or waiting[-1][1] == prec != _RIGHT):
                kind, _ = waiting.pop()
                right, right_depth = operands.pop()
                left, left_depth = operands.pop()
                operands.append(self.node(kind(left, right), max(left_depth, right_depth)))
            if op is None:
                return operands[0]
            self.advance()
            waiting.append(op)
            operands.append(self.unary_expr(level))

    def unary_expr(self, level: int) -> tuple[Formula, int]:
        level += 1
        if level > MAX_DEPTH:
            raise self.error(f"formula nested more than {MAX_DEPTH} deep")
        tok, syntax = self.tok, self.syntax
        if tok not in syntax.keywords and tok.isidentifier() and tok not in self.atoms:
            self.advance()
            return self.literal(Prop, tok), 1
        if tok == "~":
            self.advance()
            phi, depth = self.expr(level)
            return self.node(CNeg(phi), depth)
        if tok == "!":
            self.advance()
            name = self.tok
            if not name.isidentifier() or name in syntax.keywords:
                raise self.error(
                    "negation `!` applies only to propositions "
                    "(formulas are in negation normal form)"
                )
            self.advance()
            return self.literal(NegProp, name), 1
        if tok in syntax.prefix:
            self.advance()
            phi, depth = self.unary_expr(level)
            return self.node(syntax.prefix[tok](phi), depth)
        if tok in syntax.shorthands:
            # F, G and their CTL forms put TOP or BOT beside the operand.
            self.advance()
            kind, constant = SHORTHANDS[tok]
            phi, depth = self.unary_expr(level)
            return self.node(kind(constant, phi), max(_CONSTANT_DEPTH, depth))
        if tok in syntax.quantifiers:
            return self.bracketed_path(tok, level)
        if tok in syntax.bare:
            raise self.error(f"bare {tok} without path quantifier")
        return self.primary(level)

    def bracketed_path(self, quantifier: str, level: int) -> tuple[Formula, int]:
        self.advance()
        self.expect("[")
        left, left_depth = self.expr(level)
        kind = self.syntax.paths.get((quantifier, self.tok))
        if kind is None:
            raise self.error("expected U or R inside path brackets")
        self.advance()
        right, right_depth = self.expr(level)
        self.expect("]")
        return self.node(kind(left, right), max(left_depth, right_depth))

    def primary(self, level: int) -> tuple[Formula, int]:
        tok = self.tok
        if tok == "(":
            self.advance()
            phi = self.expr(level)
            self.expect(")")
            return phi
        if tok.isidentifier():
            if tok in _CONSTANTS:
                self.advance()
                return _CONSTANTS[tok], _CONSTANT_DEPTH
            if tok in ("dep", "inc") or tok in self.atoms:
                return self.atom(tok, level)
            raise self.error(f"unexpected keyword {tok!r}")
        raise self.error(f"expected a formula, found {tok or 'end of input'!r}")

    def atom(self, name: str, level: int) -> tuple[Formula, int]:
        start = self.pos
        self.advance()
        self.expect("(")
        first, second = self.param_list(level), None
        if self.tok == ";":
            self.advance()
            second = self.param_list(level)
        self.expect(")")
        if name == "dep":
            if second is None:
                # Constancy shorthand dep(p) = dep(;p).
                first, second = [], first
            if not second:
                raise self.error("dep needs at least one determined parameter", start)
            atom = dependence_atom(len(first), len(second))
        elif name == "inc":
            if second is None or len(first) != len(second):
                raise self.error("inc needs two parameter lists of equal length", start)
            atom = inclusion_atom(len(first))
        else:
            atom = self.atoms[name]
            given = len(first) + len(second or ())
            if given != atom.arity:
                raise self.error(
                    f"atom {atom.name} expects {atom.arity} parameters, got {given}", start
                )
        params = first + (second or [])
        return self.node(
            GenAtomApp(atom, tuple(phi for phi, _ in params)),
            max((depth for _, depth in params), default=0),
        )

    def param_list(self, level: int) -> list[tuple[Formula, int]]:
        params = [self.expr(level)]
        while self.tok == ",":
            self.advance()
            params.append(self.expr(level))
        return params


def _parse(text: str, mode: str, atoms: Mapping[str, GenAtomDef] | None) -> Formula:
    return _Parser(text, mode, atoms or {}).parse()


def parse_ltl(text: str, atoms: Mapping[str, GenAtomDef] | None = None) -> Formula:
    return _parse(text, "ltl", atoms)


def parse_ctl(text: str, atoms: Mapping[str, GenAtomDef] | None = None) -> Formula:
    return _parse(text, "ctl", atoms)


# ---------------------------------------------------------------------------
# Rendering


# The syntax tables backwards, by node class.
_PREFIX_WORDS = {kind: word for syn in _SYNTAX.values() for word, kind in syn.prefix.items()}
_PATH_WORDS = {kind: words for syn in _SYNTAX.values() for words, kind in syn.paths.items()}
_FOLDS = {kind: (name, constant) for name, (kind, constant) in SHORTHANDS.items()}


def render(phi: Formula) -> str:
    """Concrete syntax such that parsing it yields the same tree.

    Expansions of TOP/BOT and the derived temporal operators are folded
    back to their shorthand spelling.  Because `~` greedily consumes the
    rest of its scope, a contradictory negation is written bare only when
    its rendering extends to the end of the enclosing scope (`tail`);
    otherwise the whole `~`-expression is parenthesized.
    """
    return _render(phi, 0, tail=True)


def _render(phi: Formula, parent_prec: int, tail: bool) -> str:
    # The constants are found by equality, not by hashing: a hash would
    # walk the whole subtree at every node.
    if phi == _TOP:
        return "TOP"
    if phi == _BOT:
        return "BOT"
    kind = type(phi)
    if kind is Prop:
        return phi.name
    if kind is NegProp:
        return f"!{phi.name}"
    if kind is CNeg:
        inner = _render(phi.child, 0, tail=True)
        # In CTL the path-operator keywords already stop the greedy `~`.
        return f"~{inner}" if tail else f"(~{inner})"
    if kind is GenAtomApp:
        sep = phi.atom.sep
        parts = [_render(p, 0, tail=True) for p in phi.params]
        if sep is None:
            inner = ", ".join(parts)
        else:
            inner = ", ".join(parts[:sep]) + "; " + ", ".join(parts[sep:])
            if sep == 0:
                inner = inner[2:]  # constancy: no leading "; "
        return f"{phi.atom.name}({inner})"
    fold = _FOLDS.get(kind)
    if fold is not None and phi.left == fold[1]:
        return f"{fold[0]} {_render(phi.right, _PREFIX, tail)}"
    if kind in _PREFIX_WORDS:
        return f"{_PREFIX_WORDS[kind]} {_render(phi.child, _PREFIX, tail)}"
    if kind in _PATH_WORDS:
        quantifier, op = _PATH_WORDS[kind]
        left = _render(phi.left, 0, tail=True)
        right = _render(phi.right, 0, tail=True)
        return f"{quantifier}[{left} {op} {right}]"
    if kind not in _INFIX:
        raise ValueError(f"cannot render {kind.__name__}")
    op, prec = _INFIX[kind]
    parenthesize = prec < parent_prec
    right_tail = tail or parenthesize
    # The operand on the side an operator does not group to must bind tighter.
    if prec == _RIGHT:
        left = _render(phi.left, prec + 1, tail=False)
        right = _render(phi.right, prec, right_tail)
    else:
        left = _render(phi.left, prec, tail=False)
        right = _render(phi.right, prec + 1, right_tail)
    text = f"{left} {op} {right}"
    return f"({text})" if parenthesize else text
