"""Concrete surface language: lexer, parser, surface AST.

The surface language is bidirectional: lambdas (which only arise from
function-definition lets) are checkable, everything else is inferable.
Resource literals `{...}` are parsed by the active OPM, so one grammar
serves every index algebra.  File extension: `.ord`; comments run from
`--` to end of line.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from itertools import takewhile
from typing import Callable, NamedTuple, Optional, Union

from .core import ArrowType, CoreType, ProdType, Shape, TraceType, UNIT_T, store_fv
from .opm import Opm, OpmError
from .record import Record, replace


class Span(NamedTuple):
    line: int
    col: int
    end_line: int
    end_col: int

    def cover(self, other: "Span") -> "Span":
        line, col, end_line, end_col = self
        o_line, o_col, o_end_line, o_end_col = other
        if o_line < line or o_line == line and o_col < col:
            line, col = o_line, o_col
        if o_end_line > end_line or o_end_line == end_line and o_end_col > end_col:
            end_line, end_col = o_end_line, o_end_col
        return _new(Span, (line, col, end_line, end_col))


# Spans and tokens are built by `tuple.__new__`, without the named tuples'
# Python-level `__new__`.
_new = tuple.__new__


# Compiled on import, not by the first `Lines` of each process.
_NEWLINE = re.compile("\n")


class Lines:
    """Where the lines of one source start; `span` maps offsets to positions."""

    def __init__(self, source: str):  # only a newline ends a line, not a `\r`
        self.starts = [0, *(m.end() for m in _NEWLINE.finditer(source))]

    def span(self, start: int, end: int) -> Span:
        starts = self.starts
        line = bisect_right(starts, start)
        end_line = bisect_right(starts, end, line)
        col, end_col = start - starts[line - 1] + 1, end - starts[end_line - 1] + 1
        return _new(Span, (line, col, end_line, end_col))


class ParseError(Exception):
    kind = "parse-error"

    def __init__(self, message: str, span: Span):
        super().__init__(message)
        self.message = message
        self.span = span


# ---------------------------------------------------------------------------
# Surface AST

class SurfaceExpr(Record, frozen=True):
    span: Span
    # Free variables, stored when the node is built; not a record field,
    # so equality, hashing and repr ignore it.

    def __post_init__(self) -> None:
        store_fv(self, SHAPES)


class SUnit(SurfaceExpr):
    pass


class SNew(SurfaceExpr):
    index: object


class SOp(SurfaceExpr):
    index: object
    arg: SurfaceExpr


class SSplit(SurfaceExpr):
    index: object
    arg: SurfaceExpr


class SDrop(SurfaceExpr):
    arg: SurfaceExpr


class SVar(SurfaceExpr):
    name: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "_fv", frozenset({self.name}))


class SApp(SurfaceExpr):
    fn: SurfaceExpr
    arg: SurfaceExpr


class SPair(SurfaceExpr):
    left: SurfaceExpr
    right: SurfaceExpr


class SLetPair(SurfaceExpr):
    x: str
    y: str
    header: SurfaceExpr
    body: SurfaceExpr


class SLet(SurfaceExpr):
    """Value let with inferred binding mode (not part of the kernel grammar);
    `e1; e2` is an `SLet` with `x` None, whose binder the checker names."""

    x: Optional[str]
    header: SurfaceExpr
    body: SurfaceExpr


class SAnn(SurfaceExpr):
    expr: SurfaceExpr
    type: CoreType


class SLam(SurfaceExpr):
    var: str
    body: SurfaceExpr


# The binding structure of each former with subterms, as in `core.SHAPES`.
SHAPES: dict[type, Shape] = {
    SOp: (("arg", ()),),
    SSplit: (("arg", ()),),
    SDrop: (("arg", ()),),
    SApp: (("fn", ()), ("arg", ())),
    SPair: (("left", ()), ("right", ())),
    SLetPair: (("header", ()), ("body", ("x", "y"))),
    SLet: (("header", ()), ("body", ("x",))),
    SAnn: (("expr", ()),),
    SLam: (("body", ("var",)),),
}


def surface_fv(e: SurfaceExpr) -> frozenset[str]:
    """Free variables, stored on the node when it was built."""
    return e._fv


def rename_var(e: SurfaceExpr, old: str, new: str) -> SurfaceExpr:
    """Rename free occurrences of `old` to `new` (stops at shadowing binders).

    A subtree in which `old` is not free is returned as it is, so only the
    paths down to the free occurrences are rebuilt. A spine of lets and
    let-pairs whose bodies use `old` is walked in a loop and rebuilt bottom-up.
    """
    spine = []
    while (isinstance(e, (SLet, SLetPair)) and old in e.body._fv
           and old not in (e.x, getattr(e, "y", None))):
        spine.append(e)
        e = e.body
    if old not in surface_fv(e):
        out = e
    elif isinstance(e, SVar):
        out = SVar(e.span, new)
    else:
        renamed = {}
        for field, binders in SHAPES[type(e)]:
            if all(getattr(e, b) != old for b in binders):  # else shadowed there
                renamed[field] = rename_var(getattr(e, field), old, new)
        out = replace(e, **renamed)
    for let in reversed(spine):
        out = replace(let, header=rename_var(let.header, old, new), body=out)
    return out


# ---------------------------------------------------------------------------
# Lexer

KEYWORDS = {"let", "in", "new", "split", "drop", "unit", "Unit", "ox"}


class Token(NamedTuple):
    kind: str  # IDENT NUM ELEM EOF, a keyword, or the punctuation itself
    text: str
    start: int  # offsets into the source
    end: int
    lines: Lines

    @property
    def span(self) -> Span:
        return self.lines.span(self.start, self.end)

    def through(self, last: "Token") -> Span:  # to the end of `last`, a later token
        return self.lines.span(self.start, last.end)


# One lexeme after optional spaces, tried in this order; `other` and the end
# of input make the match total. A word's first character decides its class
# through `str.isdigit`/`isalpha`, not `\d`, which misses digits such as `²`.
_LEXEME = re.compile(
    r"\s*(?:(?P<comment>--[^\n]*)|(?P<elem>\{[^}]*\})|(?P<open>\{)"
    r"|(?P<punct>-\[|\]->|\.o|[(),;:=!])|(?P<word>\w[\w']*)|(?P<other>.)|\Z)"
)


def lex(source: str) -> list[Token]:
    toks: list[Token] = []
    match, append = _LEXEME.match, toks.append
    lines, pos, eof = Lines(source), 0, len(source)
    while group := (m := match(source, pos)).lastgroup:
        start, pos = m.span(group)
        text = source[start:pos]
        if group == "word" and (text[0].isalpha() or text[0] == "_"):
            kind = text if text in KEYWORDS else "IDENT"
        elif group == "punct":
            kind = text
        elif group == "elem":
            kind, text = "ELEM", text[1:-1]
        elif group == "word" and text[0].isdigit():
            kind, text = "NUM", "".join(takewhile(str.isdigit, text))
            pos = start + len(text)
        elif group == "comment":  # EOF after a comment goes where the comment starts
            eof = start if pos == len(source) else eof
            continue
        else:  # a `{` without its `}`, or a character that starts no token
            message = f"unsupported character {text[0]!r}"
            if group == "open":
                message = "unterminated `{` resource literal"
            raise ParseError(message, lines.span(start, start + 1))
        append(_new(Token, (kind, text, start, pos, lines)))
    append(_new(Token, ("EOF", "", eof, eof, lines)))
    return toks


# ---------------------------------------------------------------------------
# Parser

# The prefix operators: the node each builds, and whether a `{...}` literal
# comes before its operand.
PREFIX = {"!": (SOp, True), "split": (SSplit, True), "drop": (SDrop, False)}


class Parser:
    def __init__(self, source: str, opm: Opm):
        self.toks = lex(source)
        self.pos = 0
        self.opm = opm
        self._fresh = 0
        self._used = {t.text for t in self.toks if t.kind == "IDENT"}
        self._elements: dict[str, object] = {}  # literal text -> its index, parsed once

    # -- token plumbing; `pos` never passes EOF, as only other kinds are consumed

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str) -> Token:
        t = self.toks[self.pos]
        if t.kind != kind:
            raise ParseError(
                f"expected {kind!r}, found {t.text or 'end of input'!r}",
                t.span,
            )
        self.pos += 1
        return t

    def fresh(self, base: str) -> str:
        while True:
            name = f"{base}{self._fresh}"
            self._fresh += 1
            if name not in self._used:
                self._used.add(name)
                return name

    def element(self, tok: Token) -> object:
        elements = self._elements
        if tok.text not in elements:
            try:
                elements[tok.text] = self.opm.parse_element(tok.text)
            except OpmError as exc:
                raise ParseError(str(exc), tok.span) from None
        return elements[tok.text]

    # -- entry point

    def parse_program(self) -> SurfaceExpr:
        if self.peek().kind == "EOF":
            return SUnit(self.peek().span)
        e = self.parse_expr()
        t = self.peek()
        if t.kind != "EOF":
            raise ParseError(f"unexpected {t.text!r}", t.span)
        return e

    # -- expressions

    def parse_expr(self) -> SurfaceExpr:
        """An expression; its let/`;` spine is read in a loop and built bottom-up."""
        items: list[Callable[[SurfaceExpr], SurfaceExpr]] = []
        while True:
            if self.peek().kind == "let":
                items.append(self.parse_let_head())
                continue
            e = self.parse_operand()
            if self.peek().kind != ";":
                break
            self.next()
            items.append(lambda rest, first=e: SLet(first.span.cover(rest.span), None, first, rest))
        for build in reversed(items):
            e = build(e)
        return e

    def parse_let_head(self) -> Callable[[SurfaceExpr], SurfaceExpr]:
        """A `let ... in` head; returns the function that builds the let from its body."""
        start = self.expect("let")
        name = self.expect("IDENT").text
        t = self.peek()
        second = ann = None
        params: list[Union[Token, tuple[Token, Token]]] = []
        if t.kind == ",":
            self.next()
            second = self.expect("IDENT").text
        elif t.kind == ":":
            self.next()
            ann = self.parse_type()
            if self.peek().kind != "=":  # a function definition
                again = self.expect("IDENT")
                if again.text != name:
                    raise ParseError(
                        f"definition of {again.text!r} does not match "
                        f"declaration of {name!r}",
                        again.span,
                    )
                params.append(self.parse_param())
                while self.peek().kind in ("IDENT", "("):
                    params.append(self.parse_param())
        elif t.kind != "=":
            raise ParseError(
                f"expected ',', ':' or '=' after let binder, found {t.text!r}",
                t.span,
            )
        header = self.parse_bound()

        def build(body: SurfaceExpr) -> SurfaceExpr:
            span = start.span.cover(body.span)
            if second is not None:
                return SLetPair(span, name, second, header, body)
            lam = header  # the lambdas come after the body, the order that draws fresh names
            for p in reversed(params):
                lam = self.lambda_for(p, lam)
            return SLet(span, name, lam if ann is None else SAnn(lam.span, lam, ann), body)

        return build

    def parse_bound(self) -> SurfaceExpr:
        """`= e in`, the tail of every let head."""
        self.expect("=")
        e = self.parse_expr()
        self.expect("in")
        return e

    def parse_param(self) -> Union[Token, tuple[Token, Token]]:
        if self.peek().kind == "(":
            self.next()
            a = self.expect("IDENT")
            self.expect(",")
            b = self.expect("IDENT")
            self.expect(")")
            return (a, b)
        return self.expect("IDENT")

    def lambda_for(
        self, param: Union[Token, tuple[Token, Token]], body: SurfaceExpr
    ) -> SurfaceExpr:
        if isinstance(param, Token):
            return SLam(param.span.cover(body.span), param.text, body)
        a, b = param
        p = self.fresh("p")
        sp = a.span.cover(body.span)
        return SLam(sp, p, SLetPair(sp, a.text, b.text, SVar(a.span, p), body))

    def parse_operand(self) -> SurfaceExpr:
        """An expression without top-level `;` or `let`."""
        t = self.peek()
        if t.kind in PREFIX:
            former, has_literal = PREFIX[t.kind]
            self.next()
            elem = self.expect("ELEM") if has_literal else None
            if self.peek().kind == "let":
                raise ParseError(
                    "prefix operator argument cannot be a bare let; parenthesize it",
                    self.peek().span,
                )
            arg = self.parse_operand()
            span = t.span.cover(arg.span)
            return former(span, arg) if elem is None else former(span, self.element(elem), arg)
        if t.kind == "new":
            self.next()
            elem = self.expect("ELEM")
            return SNew(t.through(elem), self.element(elem))
        return self.parse_app()

    def parse_app(self) -> SurfaceExpr:
        e = self.parse_atom()
        while self.peek().kind in ("unit", "IDENT", "("):
            arg = self.parse_atom()
            e = SApp(e.span.cover(arg.span), e, arg)
        return e

    def parse_atom(self) -> SurfaceExpr:
        t = self.peek()
        if t.kind == "unit":
            self.next()
            return SUnit(t.span)
        if t.kind == "IDENT":
            self.next()
            return SVar(t.span, t.text)
        if t.kind == "(":
            self.next()
            e = self.parse_expr()
            if self.peek().kind == ",":
                self.next()
                right = self.parse_expr()
                close = self.expect(")")
                return SPair(t.through(close), e, right)
            if self.peek().kind == ":":
                self.next()
                ann = self.parse_type()
                close = self.expect(")")
                return SAnn(t.through(close), e, ann)
            close = self.expect(")")
            return e
        raise ParseError(
            f"expected an expression, found {t.text or 'end of input'!r}",
            t.span,
        )

    # -- types

    def parse_type(self) -> CoreType:
        left = self.parse_prod_type()
        if self.peek().kind == "-[":
            self.next()
            mode = self.expect("IDENT")
            if mode.text not in ("u", "o", "r", "l"):
                raise ParseError(
                    f"arrow mode must be one of u, o, r, l; found {mode.text!r}",
                    mode.span,
                )
            eff = self.expect("NUM")
            if eff.text not in ("0", "1"):
                raise ParseError("latent effect must be 0 or 1", eff.span)
            self.expect("]->")
            result = self.parse_type()
            return ArrowType(mode.text, left, result, int(eff.text))
        return left

    def parse_prod_type(self) -> CoreType:
        t = self.parse_type_atom()
        while self.peek().kind in ("ox", ".o"):
            op = self.next()
            right = self.parse_type_atom()
            t = ProdType(op.kind == ".o", t, right)
        return t

    def parse_type_atom(self) -> CoreType:
        t = self.peek()
        if t.kind == "Unit":
            self.next()
            return UNIT_T
        if t.kind == "ELEM":
            self.next()
            return TraceType(self.element(t))
        if t.kind == "(":
            self.next()
            inner = self.parse_type()
            self.expect(")")
            return inner
        raise ParseError(
            f"expected a type, found {t.text or 'end of input'!r}",
            t.span,
        )


def parse(source: str, opm: Opm) -> SurfaceExpr:
    return Parser(source, opm).parse_program()
