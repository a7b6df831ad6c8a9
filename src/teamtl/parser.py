"""Concrete text syntax for LTL and CTL formulas.

Precedence, loosest to tightest: the prefix `~` (contradictory negation,
greedy: it swallows the longest expression starting at its position);
binary `U`/`R` (right-associative, LTL only); `|` (splitjunction); `\\|/`
(Boolean disjunction); `&`; the prefix operators `X`/`F`/`G` (LTL) and
`EX`/`AX`/`EF`/... (CTL); `!` directly before a proposition.  Atoms:
`dep(p1,..;q1,..)`, `inc(p1,..;q1,..)`, `TOP`, `BOT`, and registered
generalised atoms.  `#` starts a comment; whitespace is insignificant.
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

_LTL_KEYWORDS = {"U", "R", "X", "F", "G", "TOP", "BOT", "dep", "inc"}
_CTL_KEYWORDS = {
    "E", "A", "EX", "AX", "EF", "AF", "EG", "AG", "U", "R", "X", "F", "G",
    "TOP", "BOT", "dep", "inc",
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
        self.mode = mode
        self.atoms = atoms
        self.keywords = _LTL_KEYWORDS if mode == "ltl" else _CTL_KEYWORDS

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

    def at_keyword(self, *names: str) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.text in names

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

    def shorthand(self, name: str, child: tuple[Formula, int]) -> tuple[Formula, int]:
        # F, G and their CTL forms put TOP or BOT beside the operand.
        return self.node(expand_shorthand(name, [child[0]]), _CONSTANT_DEPTH, child[1])

    def parse(self) -> Formula:
        phi, _ = self.expr()
        tok = self.peek()
        if tok.kind != "eof":
            if self.mode == "ctl" and tok.kind == "ident" and tok.text in ("U", "R", "X", "F", "G"):
                raise ParseError(
                    f"bare {tok.text} without path quantifier", tok.span
                )
            raise ParseError(f"unexpected {tok.text!r}", tok.span)
        return phi

    def expr(self) -> tuple[Formula, int]:
        negations = 0
        while self.peek().kind == "~":
            self.advance()
            negations += 1
        phi, depth = self.until_expr() if self.mode == "ltl" else self.split_expr()
        for _ in range(negations):
            phi, depth = self.node(CNeg(phi), depth)
        return phi, depth

    def until_expr(self) -> tuple[Formula, int]:
        # Right-associative, folded from the right without recursion.
        operands, ops = [self.split_expr()], []
        while self.at_keyword("U", "R"):
            ops.append(self.advance().text)
            operands.append(self.split_expr())
        phi, depth = operands.pop()
        while ops:
            left, left_depth = operands.pop()
            op = Until if ops.pop() == "U" else Release
            phi, depth = self.node(op(left, phi), left_depth, depth)
        return phi, depth

    # The three infix levels are written out: a shared helper would add a
    # frame to each, and the stack holds these per bracket level.

    def split_expr(self) -> tuple[Formula, int]:
        left, depth = self.boolor_expr()
        while self.peek().kind == "|":
            self.advance()
            right, right_depth = self.boolor_expr()
            left, depth = self.node(Split(left, right), depth, right_depth)
        return left, depth

    def boolor_expr(self) -> tuple[Formula, int]:
        left, depth = self.and_expr()
        while self.peek().kind == "boolor":
            self.advance()
            right, right_depth = self.and_expr()
            left, depth = self.node(BoolOr(left, right), depth, right_depth)
        return left, depth

    def and_expr(self) -> tuple[Formula, int]:
        left, depth = self.unary_expr()
        while self.peek().kind == "&":
            self.advance()
            right, right_depth = self.unary_expr()
            left, depth = self.node(And(left, right), depth, right_depth)
        return left, depth

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
                if prop.kind != "ident" or prop.text in self.keywords:
                    raise ParseError(
                        "negation `!` applies only to propositions "
                        "(formulas are in negation normal form)",
                        prop.span,
                    )
                self.advance()
                return NegProp(prop.text), 1
            if self.mode == "ltl" and tok.kind == "ident":
                if tok.text == "X":
                    self.advance()
                    phi, depth = self.unary_expr()
                    return self.node(Next(phi), depth)
                if tok.text in ("F", "G"):
                    self.advance()
                    return self.shorthand(tok.text, self.unary_expr())
            if self.mode == "ctl" and tok.kind == "ident":
                if tok.text in ("EX", "AX"):
                    self.advance()
                    phi, depth = self.unary_expr()
                    return self.node(EX(phi) if tok.text == "EX" else AX(phi), depth)
                if tok.text in ("EF", "AF", "EG", "AG"):
                    self.advance()
                    return self.shorthand(tok.text, self.unary_expr())
                if tok.text in ("E", "A"):
                    return self.bracketed_path(tok.text)
                if tok.text in ("X", "F", "G", "U", "R"):
                    raise ParseError(
                        f"bare {tok.text} without path quantifier", tok.span
                    )
            return self.primary()
        finally:
            self.nesting -= 1

    def bracketed_path(self, quantifier: str) -> tuple[Formula, int]:
        self.advance()
        self.expect("[")
        left, left_depth = self.expr()
        op = self.peek()
        if not self.at_keyword("U", "R"):
            raise ParseError("expected U or R inside path brackets", op.span)
        self.advance()
        right, right_depth = self.expr()
        self.expect("]")
        if quantifier == "E":
            kind = EU if op.text == "U" else ER
        else:
            kind = AU if op.text == "U" else AR
        return self.node(kind(left, right), left_depth, right_depth)

    def primary(self) -> tuple[Formula, int]:
        tok = self.peek()
        if tok.kind == "(":
            self.advance()
            phi = self.expr()
            self.expect(")")
            return phi
        if tok.kind == "ident":
            if tok.text == "TOP":
                self.advance()
                return top(), _CONSTANT_DEPTH
            if tok.text == "BOT":
                self.advance()
                return bot(), _CONSTANT_DEPTH
            if tok.text in ("dep", "inc"):
                return self.builtin_atom(tok.text)
            if tok.text in self.atoms:
                return self.registered_atom(self.atoms[tok.text])
            if tok.text in self.keywords:
                raise ParseError(f"unexpected keyword {tok.text!r}", tok.span)
            self.advance()
            return Prop(tok.text), 1
        raise ParseError(
            f"expected a formula, found {tok.text or 'end of input'!r}", tok.span
        )

    def builtin_atom(self, name: str) -> tuple[Formula, int]:
        start = self.advance()
        self.expect("(")
        first, second = self.param_lists()
        self.expect(")")
        if name == "dep":
            if second is None:
                # Constancy shorthand dep(p) = dep(;p).
                first, second = [], first
            if not second:
                raise ParseError("dep needs at least one determined parameter", start.span)
            atom = dependence_atom(len(first), len(second))
        else:
            if second is None or len(first) != len(second):
                raise ParseError(
                    "inc needs two parameter lists of equal length", start.span
                )
            atom = inclusion_atom(len(first))
        return self.atom(atom, first + second)

    def param_lists(self) -> tuple[list[tuple[Formula, int]], list[tuple[Formula, int]] | None]:
        first = [self.expr()]
        while self.peek().kind == ",":
            self.advance()
            first.append(self.expr())
        if self.peek().kind != ";":
            return first, None
        self.advance()
        second = [self.expr()]
        while self.peek().kind == ",":
            self.advance()
            second.append(self.expr())
        return first, second

    def registered_atom(self, atom: GenAtomDef) -> tuple[Formula, int]:
        start = self.advance()
        self.expect("(")
        first, second = self.param_lists()
        params = first + (second or [])
        self.expect(")")
        if len(params) != atom.arity:
            raise ParseError(
                f"atom {atom.name} expects {atom.arity} parameters, got {len(params)}",
                start.span,
            )
        return self.atom(atom, params)

    def atom(self, atom: GenAtomDef, params: list[tuple[Formula, int]]) -> tuple[Formula, int]:
        return self.node(
            GenAtomApp(atom, tuple(phi for phi, _ in params)), *(depth for _, depth in params)
        )


def _parse(text: str, mode: str, atoms: Mapping[str, GenAtomDef] | None) -> Formula:
    return _Parser(text, mode, atoms or {}).parse()


def parse_ltl(text: str, atoms: Mapping[str, GenAtomDef] | None = None) -> Formula:
    return _parse(text, "ltl", atoms)


def parse_ctl(text: str, atoms: Mapping[str, GenAtomDef] | None = None) -> Formula:
    return _parse(text, "ctl", atoms)


# ---------------------------------------------------------------------------
# Rendering


_TOP = top()
_BOT = bot()


def _binary(phi: Formula):
    """(operator text, precedence) for infix nodes, else None."""
    if isinstance(phi, (Until, Release)):
        return ("U" if isinstance(phi, Until) else "R", 1)
    if isinstance(phi, Split):
        return ("|", 2)
    if isinstance(phi, BoolOr):
        return ("\\|/", 3)
    if isinstance(phi, And):
        return ("&", 4)
    return None


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
    if phi == _TOP:
        return "TOP"
    if phi == _BOT:
        return "BOT"
    if isinstance(phi, Prop):
        return phi.name
    if isinstance(phi, NegProp):
        return f"!{phi.name}"
    if isinstance(phi, CNeg):
        inner = _render(phi.child, 0, tail=True)
        # In CTL the path-operator keywords already stop the greedy `~`.
        if tail:
            return f"~{inner}"
        return f"(~{inner})"
    shorthand = _shorthand_name(phi)
    if shorthand is not None:
        name, child = shorthand
        return f"{name} {_render(child, 5, tail)}"
    if isinstance(phi, Next):
        return f"X {_render(phi.child, 5, tail)}"
    if isinstance(phi, EX):
        return f"EX {_render(phi.child, 5, tail)}"
    if isinstance(phi, AX):
        return f"AX {_render(phi.child, 5, tail)}"
    if isinstance(phi, (EU, AU, ER, AR)):
        quantifier = "E" if isinstance(phi, (EU, ER)) else "A"
        op = "U" if isinstance(phi, (EU, AU)) else "R"
        left = _render(phi.left, 0, tail=True)
        right = _render(phi.right, 0, tail=True)
        return f"{quantifier}[{left} {op} {right}]"
    if isinstance(phi, GenAtomApp):
        sep = phi.atom.sep
        parts = [_render(p, 0, tail=True) for p in phi.params]
        if sep is None:
            inner = ", ".join(parts)
        else:
            inner = ", ".join(parts[:sep]) + "; " + ", ".join(parts[sep:])
            if sep == 0:
                inner = inner[2:]  # constancy: no leading "; "
        return f"{phi.atom.name}({inner})"
    binary = _binary(phi)
    if binary is not None:
        op, prec = binary
        parenthesize = prec < parent_prec
        child_tail = tail and not parenthesize
        if op in ("U", "R"):
            # Right-associative: the left operand must bind tighter.
            left = _render(phi.left, prec + 1, tail=False)
            right = _render(phi.right, prec, child_tail or parenthesize)
        else:
            left = _render(phi.left, prec, tail=False)
            right = _render(phi.right, prec + 1, child_tail or parenthesize)
        text = f"{left} {op} {right}"
        return f"({text})" if parenthesize else text
    raise ValueError(f"cannot render {type(phi).__name__}")


def _shorthand_name(phi: Formula):
    if isinstance(phi, Until) and phi.left == _TOP:
        return ("F", phi.right)
    if isinstance(phi, Release) and phi.left == _BOT:
        return ("G", phi.right)
    if isinstance(phi, EU) and phi.left == _TOP:
        return ("EF", phi.right)
    if isinstance(phi, AU) and phi.left == _TOP:
        return ("AF", phi.right)
    if isinstance(phi, ER) and phi.left == _BOT:
        return ("EG", phi.right)
    if isinstance(phi, AR) and phi.left == _BOT:
        return ("AG", phi.right)
    return None
