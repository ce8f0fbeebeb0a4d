"""Parser and renderer for the plain-text system language.

Grammar (whitespace-insensitive, `#` starts a line comment):

    document := stmt*
    stmt     := ("vars" "=" int | "unknowns" "=" int
                 | "eq" ":" expr "=" "0" | "eq" ":" expr) ";"?
    expr     := term (("+"|"-") term)*
    term     := [rational "*"] jet
    jet      := name "[" (int ("," int)*)? "]"
    rational := int ["/" int]

A jet's bracket lists variable indices with repetition, so `y[3,3]` is the
second derivative in the third variable; `y[]` is the order-zero jet.  A name
with a trailing number, like `z2`, addresses that unknown.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import jetspace as js
from .jetspace import JetCoordinate
from .pdesystem import Equation, LinearSystem


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class Token(NamedTuple):
    kind: str  # 'name' | 'int' | punctuation
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in "[],;:=+-*/":
            tokens.append(Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    return tokens


class SystemDocument(NamedTuple):
    n: int
    m: int
    system: LinearSystem


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else Token("", "", 1, 1)
            raise ParseError("unexpected end of input", last.line, last.col)
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text!r}", tok.line, tok.col)
        return tok

    def accept(self, kind: str) -> bool:
        tok = self.peek()
        if tok is not None and tok.kind == kind:
            self.pos += 1
            return True
        return False

    def parse_int(self) -> int:
        return int(self.expect("int").text)

    def parse_rational(self) -> Fraction:
        num = self.parse_int()
        if self.accept("/"):
            tok = self.expect("int")
            den = int(tok.text)
            if not den:
                raise ParseError("zero denominator", tok.line, tok.col)
            return Fraction(num, den)
        return Fraction(num)

    def parse_jet(self):
        tok = self.expect("name")
        base = tok.text.rstrip("0123456789")
        suffix = tok.text[len(base):]
        if not base:
            raise ParseError("jet name missing", tok.line, tok.col)
        k = int(suffix) if suffix else 1
        self.expect("[")
        indices = []
        if not self.accept("]"):
            indices.append(self.parse_int())
            while self.accept(","):
                indices.append(self.parse_int())
            self.expect("]")
        return k, tuple(indices), tok

    def parse_term(self, sign: int):
        coeff = Fraction(sign)
        tok = self.peek()
        if tok is not None and tok.kind == "int":
            coeff *= self.parse_rational()
            self.expect("*")
        return coeff, self.parse_jet()

    def parse_expr(self):
        terms = []
        sign = 1
        if self.accept("-"):
            sign = -1
        elif self.accept("+"):
            sign = 1
        terms.append(self.parse_term(sign))
        while True:
            if self.accept("+"):
                terms.append(self.parse_term(1))
            elif self.accept("-"):
                terms.append(self.parse_term(-1))
            else:
                return terms


def parse(text: str) -> SystemDocument:
    """Parse a system document into a LinearSystem with exact coefficients."""
    tokens = _tokenize(text)
    parser = _Parser(tokens)
    n = None
    m = None
    raw_equations = []  # [(coeff, (k, indices, token)), ...] per equation
    while parser.peek() is not None:
        tok = parser.peek()
        if tok.kind == "name" and tok.text in ("vars", "unknowns"):
            parser.next()
            parser.expect("=")
            value = parser.parse_int()
            if value < 1:
                raise ParseError(f"{tok.text} must be positive", tok.line, tok.col)
            if tok.text == "vars":
                n = value
            else:
                m = value
            parser.accept(";")
            continue
        if tok.kind == "name" and tok.text == "eq":
            parser.next()
            parser.expect(":")
            terms = parser.parse_expr()
            if parser.accept("="):
                zero = parser.expect("int")
                if zero.text != "0":
                    raise ParseError("right-hand side must be 0", zero.line, zero.col)
            raw_equations.append(terms)
            parser.accept(";")
            continue
        raise ParseError(f"expected statement, found {tok.text!r}", tok.line, tok.col)
    if n is None or m is None:
        seen_vars, seen_unknowns = [1], [1]
        for terms in raw_equations:
            for _coeff, (k, indices, _tok) in terms:
                seen_unknowns.append(k)
                seen_vars.extend(indices)
        if n is None:
            n = max(seen_vars)
        if m is None:
            m = max(seen_unknowns)
    equations = []
    for terms in raw_equations:
        built: dict = {}
        for coeff, (k, indices, tok) in terms:
            for d in indices:
                if not 1 <= d <= n:
                    raise ParseError(f"variable index {d} out of range 1..{n}", tok.line, tok.col)
            if not 1 <= k <= m:
                raise ParseError(f"unknown index {k} out of range 1..{m}", tok.line, tok.col)
            mu = js.mu_from_digits(indices, n)
            key = JetCoordinate(k, mu)
            built[key] = built.get(key, Fraction(0)) + coeff
        equations.append(Equation(built))  # LinearSystem drops an empty one
    system = LinearSystem(n, m, equations)
    return SystemDocument(n, m, system)


def render_equation(eqn: Equation, m: int) -> str:
    parts = []
    for idx, jc in enumerate(sorted(eqn.terms, key=js.column_key)):
        c = eqn.terms[jc]
        name = "y" if m == 1 else f"z{jc.k}"
        jet = f"{name}[{','.join(str(d) for d in js.digits(jc.mu))}]"
        if c == 1:
            body = jet
        elif c == -1:
            body = f"-{jet}" if idx == 0 else jet
        else:
            body = f"{abs(c)}*{jet}" if idx else f"{c}*{jet}"
        if idx == 0:
            parts.append(body)
        elif c > 0 or c == 1:
            parts.append(f"+ {body}")
        else:
            parts.append(f"- {body}")
    return " ".join(parts)


def render(doc: SystemDocument) -> str:
    """Canonical source text; parsing it back yields an identical LinearSystem."""
    lines = [f"vars={doc.n}; unknowns={doc.m};"]
    for eqn in doc.system.equations:
        lines.append(f"eq: {render_equation(eqn, doc.m)} = 0;")
    return "\n".join(lines) + "\n"


def digest(text: str) -> str:
    import hashlib  # only the analyze and examples reports digest, so other commands skip loading it
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
