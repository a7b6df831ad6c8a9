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
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, NamedTuple

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
    bot,
    dependence_atom,
    inclusion_atom,
    top,
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


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<boolor>\\\|/)
  | (?P<sym>[()\[\],;&|!~])
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)

# ---------------------------------------------------------------------------
# The syntax tables

_TOP = top()
_BOT = bot()
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


class _Token(NamedTuple):
    kind: str  # symbol text, "ident", "boolor", or "eof"
    text: str
    start: int
    end: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.start, self.end)


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    for m in _TOKEN_RE.finditer(text):
        start, end = m.span()
        if start != pos:
            break
        pos = end
        group = m.lastgroup
        if group != "ws":
            word = m.group()
            tokens.append(_Token(word if group == "sym" else group, word, start, end))
    if pos != len(text):
        raise ParseError(f"unexpected character {text[pos]!r}", SourceSpan(pos, pos + 1))
    tokens.append(_Token("eof", "", pos, pos))
    return tokens


# The depth of TOP and BOT: each is a connective over two literals.
_CONSTANT_DEPTH = 2


class _Parser:
    def __init__(self, text: str, mode: str, atoms: Mapping[str, GenAtomDef]):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nesting = 0
        self.syntax = _SYNTAX[mode]
        self.atoms = atoms

    # -- token helpers ----------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.span)
        return self.advance()

    # -- grammar ----------------------------------------------------------
    #
    # Each rule returns the formula it built and the number of levels of its
    # tree, so that no walk over the finished tree is needed to bound it.

    def node(self, phi: Formula, *depths: int) -> tuple[Formula, int]:
        """``phi`` with its depth, one more than the deepest of ``depths``
        (its subformulas'); a tree deeper than `MAX_DEPTH` is an error."""
        depth = 1 + max(depths, default=0)
        if depth > MAX_DEPTH:
            raise ParseError(f"formula nested more than {MAX_DEPTH} deep", self.peek().span)
        return phi, depth

    def parse(self) -> Formula:
        phi, _ = self.expr()
        tok = self.peek()
        if tok.kind != "eof":
            if tok.kind == "ident" and tok.text in self.syntax.bare:
                raise ParseError(f"bare {tok.text} without path quantifier", tok.span)
            raise ParseError(f"unexpected {tok.text!r}", tok.span)
        return phi

    def expr(self) -> tuple[Formula, int]:
        negations = 0
        while self.peek().kind == "~":
            self.advance()
            negations += 1
        phi, depth = self.infix_expr()
        for _ in range(negations):
            phi, depth = self.node(CNeg(phi), depth)
        return phi, depth

    def infix_expr(self) -> tuple[Formula, int]:
        # Operator precedence without a frame per level: an operator waits
        # until one arrives that binds no tighter (for U and R, looser), or
        # the expression ends, and then takes the two operands before it.
        operands, waiting = [self.unary_expr()], []
        infix = self.syntax.infix
        while True:
            op = infix.get(self.peek().text)
            prec = op[1] if op else 0
            while waiting and (waiting[-1][1] > prec or waiting[-1][1] == prec != _RIGHT):
                kind, _ = waiting.pop()
                right, right_depth = operands.pop()
                left, left_depth = operands.pop()
                operands.append(self.node(kind(left, right), left_depth, right_depth))
            if op is None:
                return operands[0]
            self.advance()
            waiting.append(op)
            operands.append(self.unary_expr())

    def unary_expr(self) -> tuple[Formula, int]:
        # Every nested sub-expression passes through here: a bracket, an
        # atom's arguments, and the operand of a prefix operator or `~`.
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise ParseError(
                f"formula nested more than {MAX_DEPTH} deep", self.peek().span
            )
        try:
            tok = self.peek()
            if tok.kind == "~":
                self.advance()
                phi, depth = self.expr()
                return self.node(CNeg(phi), depth)
            if tok.kind == "!":
                self.advance()
                prop = self.peek()
                if prop.kind != "ident" or prop.text in self.syntax.keywords:
                    raise ParseError(
                        "negation `!` applies only to propositions "
                        "(formulas are in negation normal form)",
                        prop.span,
                    )
                self.advance()
                return NegProp(prop.text), 1
            if tok.kind == "ident":
                syntax, word = self.syntax, tok.text
                if word in syntax.prefix:
                    self.advance()
                    phi, depth = self.unary_expr()
                    return self.node(syntax.prefix[word](phi), depth)
                if word in syntax.shorthands:
                    # F, G and their CTL forms put TOP or BOT beside the operand.
                    self.advance()
                    kind, constant = SHORTHANDS[word]
                    phi, depth = self.unary_expr()
                    return self.node(kind(constant, phi), _CONSTANT_DEPTH, depth)
                if word in syntax.quantifiers:
                    return self.bracketed_path(word)
                if word in syntax.bare:
                    raise ParseError(f"bare {word} without path quantifier", tok.span)
            return self.primary()
        finally:
            self.nesting -= 1

    def bracketed_path(self, quantifier: str) -> tuple[Formula, int]:
        self.advance()
        self.expect("[")
        left, left_depth = self.expr()
        op = self.peek()
        kind = self.syntax.paths.get((quantifier, op.text))
        if kind is None:
            raise ParseError("expected U or R inside path brackets", op.span)
        self.advance()
        right, right_depth = self.expr()
        self.expect("]")
        return self.node(kind(left, right), left_depth, right_depth)

    def primary(self) -> tuple[Formula, int]:
        tok = self.peek()
        if tok.kind == "(":
            self.advance()
            phi = self.expr()
            self.expect(")")
            return phi
        if tok.kind == "ident":
            if tok.text in _CONSTANTS:
                self.advance()
                return _CONSTANTS[tok.text], _CONSTANT_DEPTH
            if tok.text in ("dep", "inc") or tok.text in self.atoms:
                return self.atom(tok.text)
            if tok.text in self.syntax.keywords:
                raise ParseError(f"unexpected keyword {tok.text!r}", tok.span)
            self.advance()
            return Prop(tok.text), 1
        raise ParseError(
            f"expected a formula, found {tok.text or 'end of input'!r}", tok.span
        )

    def atom(self, name: str) -> tuple[Formula, int]:
        start = self.advance()
        self.expect("(")
        first, second = self.param_list(), None
        if self.peek().kind == ";":
            self.advance()
            second = self.param_list()
        self.expect(")")
        if name == "dep":
            if second is None:
                # Constancy shorthand dep(p) = dep(;p).
                first, second = [], first
            if not second:
                raise ParseError("dep needs at least one determined parameter", start.span)
            atom = dependence_atom(len(first), len(second))
        elif name == "inc":
            if second is None or len(first) != len(second):
                raise ParseError(
                    "inc needs two parameter lists of equal length", start.span
                )
            atom = inclusion_atom(len(first))
        else:
            atom = self.atoms[name]
            given = len(first) + len(second or ())
            if given != atom.arity:
                raise ParseError(
                    f"atom {atom.name} expects {atom.arity} parameters, got {given}",
                    start.span,
                )
        params = first + (second or [])
        return self.node(
            GenAtomApp(atom, tuple(phi for phi, _ in params)), *(depth for _, depth in params)
        )

    def param_list(self) -> list[tuple[Formula, int]]:
        params = [self.expr()]
        while self.peek().kind == ",":
            self.advance()
            params.append(self.expr())
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
