"""Polynomial text grammar: parser and canonical printer.

Grammar: variables x0..x3 with aliases x,y,z,w; integer or rational
coefficients; + - * ^ and parentheses; implicit multiplication by
juxtaposition (2x^3y); whitespace-insensitive, except that a digit may not
directly follow a variable (x5 is an error, not 5*x). Errors carry
line/column.

Input limits, so that a short text cannot run unbounded: no power or product
may exceed degree MAX_DEGREE (an exponent counts as a degree even on a
constant), and parentheses nest at most MAX_DEPTH deep. Both are checked
before the work they would cause. A number longer than the interpreter
converts to int is a parse error too.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError
from .poly import Poly

ALIASES = {"x0": 0, "x1": 1, "x2": 2, "x3": 3, "x": 0, "y": 1, "z": 2, "w": 3}

# A generic form of degree 20 has 1771 terms; the analyses handle forms of
# degree up to about 5, and the tests parse degree 16.
MAX_DEGREE = 20
MAX_DEPTH = 64


class _Lexer:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1
        self.depth = 0

    def _advance(self, n):
        for ch in self.text[self.pos:self.pos + n]:
            if ch == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
        self.pos += n

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self._advance(1)

    def peek(self):
        self.skip_ws()
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def position(self):
        """(line, col) of the next token."""
        self.skip_ws()
        return self.line, self.col

    def error(self, expected):
        got = self.peek()
        what = f"unexpected {got!r}" if got else "unexpected end of input"
        raise ParseError(
            f"{what}, expected {expected}", self.line, self.col, expected
        )

    def take_char(self, ch):
        if self.peek() == ch:
            self._advance(1)
            return True
        return False

    def take_number(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self._advance(1)
        if self.pos == start:
            return None
        num = self._int(start)
        # rational coefficient p/q
        save = (self.pos, self.line, self.col)
        if self.take_char("/"):
            dstart = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdecimal():
                self._advance(1)
            if self.pos == dstart:
                self.pos, self.line, self.col = save
                return Fraction(num)
            den = self._int(dstart)
            if den == 0:
                raise ParseError("zero denominator", self.line, self.col)
            return Fraction(num, den)
        return Fraction(num)

    def _int(self, start):
        try:
            return int(self.text[start:self.pos])
        except ValueError as exc:  # longer than the interpreter converts
            raise ParseError(f"number too long: {exc}", self.line, self.col)

    def take_variable(self):
        self.skip_ws()
        rest = self.text[self.pos:]
        name = rest[:2] if rest[:2] in ALIASES else rest[:1]
        if name not in ALIASES:
            return None
        self._advance(len(name))
        # x5 or y2 is a mistyped variable, not a variable times a number
        after = self.text[self.pos:self.pos + 1]
        if after.isdecimal():
            raise ParseError(
                f"unexpected {after!r} right after variable {name!r}",
                self.line, self.col, "variable x0..x3, x, y, z or w",
            )
        return ALIASES[name]


def _parse_exponent(lx, degree):
    """The exponent after an optional '^' (1 without one), for a base of
    the given degree."""
    if lx.peek() != "^":
        return 1
    at = lx.position()
    lx.take_char("^")
    n = lx.take_number()
    if n is None or n.denominator != 1:
        lx.error("integer exponent")
    if n < 0:
        lx.error("non-negative exponent")
    power_degree = max(degree, 1) * int(n)
    if power_degree > MAX_DEGREE:
        raise ParseError(f"power of degree {power_degree} is above the "
                         f"degree cap MAX_DEGREE = {MAX_DEGREE}", *at)
    return int(n)


def _parse_factor(lx):
    n = lx.take_number()
    if n is not None:
        return Poly.constant(n)
    v = lx.take_variable()
    if v is not None:
        m = [0, 0, 0, 0]
        m[v] = _parse_exponent(lx, 1)
        return Poly.monomial(tuple(m))
    if lx.peek() == "(":
        if lx.depth == MAX_DEPTH:
            raise ParseError(f"parentheses nested deeper than MAX_DEPTH = {MAX_DEPTH}",
                             *lx.position())
        lx.take_char("(")
        lx.depth += 1
        p = _parse_expr(lx)
        if not lx.take_char(")"):
            lx.error("')'")
        lx.depth -= 1
        return p ** _parse_exponent(lx, p.degree())
    lx.error("number, variable, or '('")


def _starts_factor(lx):
    ch = lx.peek()
    if ch is None:
        return False
    return ch.isdecimal() or ch in "xyzw("


def _parse_term(lx):
    p = _parse_factor(lx)
    while lx.take_char("*") or _starts_factor(lx):
        at = lx.position()
        f = _parse_factor(lx)
        product_degree = p.degree() + f.degree()
        if product_degree > MAX_DEGREE:
            raise ParseError(f"product of degree {product_degree} is above "
                             f"the degree cap MAX_DEGREE = {MAX_DEGREE}", *at)
        p = p * f
    return p


def _take_signs(lx):
    sign = 1
    saw = False
    while True:
        if lx.take_char("+"):
            saw = True
        elif lx.take_char("-"):
            sign = -sign
            saw = True
        else:
            return sign, saw


def _parse_expr(lx):
    sign, _ = _take_signs(lx)
    p = sign * _parse_term(lx)
    while True:
        ch = lx.peek()
        if ch in ("+", "-"):
            sign, _ = _take_signs(lx)
            p = p + sign * _parse_term(lx)
        else:
            return p


def parse_poly(text):
    """Parse polynomial text into a Poly. Raises ParseError on bad input."""
    lx = _Lexer(text)
    if lx.peek() is None:
        raise ParseError("empty polynomial", lx.line, lx.col)
    p = _parse_expr(lx)
    if lx.peek() is not None:
        lx.error("operator or end of input")
    return p


def _format_monomial(m):
    parts = []
    for i, e in enumerate(m):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    return "*".join(parts)


def format_poly(p):
    """Canonical printing: terms descending under the global order."""
    if p.is_zero():
        return "0"
    chunks = []
    for m, c in p.sorted_terms():
        mon = _format_monomial(m)
        if not mon:
            body = str(abs(c))
        elif abs(c) == 1:
            body = mon
        else:
            body = f"{abs(c)}*{mon}"
        if not chunks:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(chunks)
