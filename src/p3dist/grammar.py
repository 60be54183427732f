"""Polynomial text grammar: parser and canonical, Fraction-free printer of signed terms.

Grammar: variables x0..x3 with aliases x,y,z,w; integer or rational
coefficients p/q, where q follows the '/' directly; + - * ^ and
parentheses; implicit multiplication by juxtaposition (2x^3y). An exponent
is a digit run, so x^4/2 is an error, not x^2. Whitespace may separate any
two tokens, except that a digit may not directly follow a variable (x5 is
an error, not 5*x). Errors carry line/column.

Input limits, so that a short text cannot run unbounded: no power or product
may exceed degree MAX_DEGREE (an exponent counts as a degree even on a
constant), and parentheses nest at most MAX_DEPTH deep. Both are checked
before the work they would cause. A number longer than the interpreter
converts to int is a parse error too.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError
from .poly import Poly, add_product

ALIASES = {"x0": 0, "x1": 1, "x2": 2, "x3": 3, "x": 0, "y": 1, "z": 2, "w": 3}

# A generic form of degree 20 has 1771 terms; the analyses handle forms of
# degree up to about 5, and the tests parse degree 16.
MAX_DEGREE = 20
MAX_DEPTH = 64

# a token: a digit run, a variable, any other non-space character, or the
# end of the text (""); a text's tokens are found once, as a list
_TOKEN = re.compile(r"(\d+)|(x[0-3]|[xyzw])|(\S)|\Z")
_NUMBER, _VARIABLE = 1, 2


class _Parser:
    """Recursive descent over the _TOKEN matches of a text. Each sum is
    added up in place in a dict monomial -> nonzero int or Fraction; a
    factor's degree is -1 when it is zero."""

    def __init__(self, text):
        self.text = text
        self.toks = list(_TOKEN.finditer(text))
        self.pos = 0
        self.tok = self.toks[0]
        self.depth = 0

    def fail(self, message, offset, expected=None):
        """Raise a ParseError at a text offset; only errors count lines."""
        line = self.text.count("\n", 0, offset) + 1
        col = offset - self.text.rfind("\n", 0, offset)
        raise ParseError(message, line, col, expected)

    def unexpected(self, expected):
        got = self.tok[0][:1]
        what = f"unexpected {got!r}" if got else "unexpected end of input"
        self.fail(f"{what}, expected {expected}", self.tok.start(), expected)

    def check_cap(self, what, degree, at):
        if degree > MAX_DEGREE:
            self.fail(f"{what} of degree {degree} is above the degree cap "
                      f"MAX_DEGREE = {MAX_DEGREE}", at)

    def advance(self):
        self.pos += 1
        self.tok = self.toks[self.pos]

    def take(self, ch):
        if self.tok[0] == ch:
            self.advance()
            return True
        return False

    def integer(self):
        """Consume the current token, a digit run, and return its int."""
        tok = self.tok
        try:
            n = int(tok[0])
        except ValueError as exc:  # longer than the interpreter converts
            self.fail(f"number too long: {exc}", tok.end())
        self.advance()
        return n

    def exponent(self, degree):
        """The exponent after an optional '^' (1 without one) on a base of
        the given degree."""
        at = self.tok.start()
        if not self.take("^"):
            return 1
        if not self.tok[_NUMBER]:
            self.unexpected("integer exponent")
        n = self.integer()
        self.check_cap("power", max(degree, 1) * n, at)
        return n

    def number(self):
        """The coefficient p or p/q at the current token, a digit run."""
        c = self.integer()
        # p/q: the '/' is the next token, and q's digits follow it directly
        slash = self.tok
        if slash[0] == "/":
            den = self.toks[self.pos + 1]
            if den[_NUMBER] and den.start() == slash.end():
                self.advance()
                q = self.integer()
                if not q:
                    self.fail("zero denominator", den.end())
                c = Fraction(c, q)
        return c

    def variable(self):
        """(index, exponent) of the variable at the current token."""
        tok = self.tok
        self.advance()
        # x5 or y2 is a mistyped variable, not a variable times a number
        if self.tok[_NUMBER] and self.tok.start() == tok.end():
            self.fail(f"unexpected {self.tok[0][0]!r} right after variable "
                      f"{tok[0]!r}", tok.end(), "variable x0..x3, x, y, z or w")
        return ALIASES[tok[0]], self.exponent(1)

    def group(self):
        """The terms and degree of a parenthesized factor and its power."""
        tok = self.tok
        if not self.take("("):
            self.unexpected("number, variable, or '('")
        if self.depth == MAX_DEPTH:
            self.fail(f"parentheses nested deeper than MAX_DEPTH = {MAX_DEPTH}",
                      tok.start())
        self.depth += 1
        base = Poly(self.expr())
        if not self.take(")"):
            self.unexpected("')'")
        self.depth -= 1
        p = base ** self.exponent(base.degree())
        return p.terms, p.degree()

    def term(self, acc, sign):
        """acc += sign * (the next product of factors), in place. Its number
        and variable factors are kept as one coefficient and one exponent
        list, and only a parenthesized factor multiplies dicts; the product
        is zero, of degree -1, from its first zero factor on."""
        c, exps, groups, degree = sign, [0, 0, 0, 0], None, None
        while True:
            tok = self.tok
            if tok[_NUMBER]:
                f = self.number()
                c *= f
                f_degree = 0 if f else -1
            elif tok[_VARIABLE]:
                i, f_degree = self.variable()
                exps[i] += f_degree
            else:
                f, f_degree = self.group()
                if groups is None:
                    groups = f
                else:
                    product = {}
                    add_product(product, groups, f)
                    groups = product
            if degree is None:
                degree = f_degree
            else:
                self.check_cap("product", degree + f_degree, tok.start())
                degree = -1 if -1 in (degree, f_degree) else degree + f_degree
            # a factor follows a '*', or directly when it starts with a
            # number, a variable or '('
            if not (self.take("*") or self.tok.lastindex in (_NUMBER, _VARIABLE)
                    or self.tok[0] == "("):
                break
        if not c:
            return
        m = tuple(exps)
        if groups is not None:
            add_product(acc, {m: c}, groups)
        else:
            c += acc.get(m, 0)
            if c:
                acc[m] = c
            else:
                del acc[m]

    def expr(self):
        acc = {}
        while True:
            sign = 1
            while self.tok[0] in ("+", "-"):
                sign = -sign if self.tok[0] == "-" else sign
                self.advance()
            self.term(acc, sign)
            if self.tok[0] not in ("+", "-"):
                return acc


def parse_poly(text):
    """Parse polynomial text into a Poly. Raises ParseError on bad input."""
    ps = _Parser(text)
    if not ps.tok[0]:
        ps.fail("empty polynomial", len(text))
    p = ps.expr()
    if ps.tok[0]:
        ps.unexpected("operator or end of input")
    return Poly(p)


def _format_monomial(m):
    parts = []
    for i, e in enumerate(m):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    return "*".join(parts)


def _signed_sum(terms, monomial):
    """Text of the sum of terms (key, n, den), n/den nonzero in lowest terms
    and den > 0, in the order given, with monomial(key) the monomial's text
    ("" for a constant): no coefficient when n/den = +-1, the first term bare
    or with "-", then " + " or " - "; "0" if none. No Fraction is built."""
    chunks = []
    for key, n, den in terms:
        mon = monomial(key)
        c = f"{abs(n)}/{den}" if den != 1 else str(abs(n))
        body = c if not mon else mon if c == "1" else f"{c}*{mon}"
        if not chunks:
            chunks.append(body if n > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if n > 0 else f"- {body}")
    return " ".join(chunks) if chunks else "0"


def format_poly(p):
    """Canonical printing: terms descending under the global order."""
    return _signed_sum(((m, c.numerator, c.denominator) for m, c in p.sorted_terms()),
                       _format_monomial)
