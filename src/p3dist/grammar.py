"""Polynomial text grammar: parser and canonical, Fraction-free printer of signed terms.

The parser is a recursive descent over the group tuples of the text's
tokens, found once by one regular expression; only an error finds its
text offset, from the matches of the same text. It sums the packed
monomial keys of `poly` (x_i is one key, and a product adds keys), so that
a parsed text is already the row of int or Fraction coefficients that
`poly.integer_rows` scales once for the analysis; `parse_poly` builds its
Poly from that row. The printer reads packed integer rows too
(`_format_row`), with no Fraction built: the rows of one ideal or row set
share one table of monomial texts (`_Monomials`), filled from a constant
table of variable powers, and every printing, Hilbert polynomials too,
joins its terms through `_signed_sum`.

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
from math import gcd

from .errors import ParseError
from .poly import _FIELDS, _VARS, NVARS, _degree, add_row_product, row_poly

ALIASES = {"x0": 0, "x1": 1, "x2": 2, "x3": 3, "x": 0, "y": 1, "z": 2, "w": 3}

# A generic form of degree 20 has 1771 terms; the analyses handle forms of
# degree up to about 5, and the tests parse degree 16.
MAX_DEGREE = 20
MAX_DEPTH = 64

# a token: a digit run; a variable, with its '^' and exponent digits if it
# has them, or else with the digit right after it, which is an error (x5);
# '/' with the digits right after it, a coefficient's denominator; any
# other non-space character; or the end of the text (""). A text's tokens
# are found once, as the tuples (text, number, variable, exponent) of their
# groups, each a new tuple, and an error finds the offset of its token by
# the token's place among them, from the matches of the same text.
_TOKEN = re.compile(r"((\d+)|(x[0-3]|[xyzw])(?:\s*\^\s*(\d+)|\d?)|/\d+|\S|\Z)")
_NUMBER, _VARIABLE, _EXPONENT = 1, 2, 3


class _Parser:
    """Recursive descent over the _TOKEN tuples of a text. Each sum is added
    up in place in a dict packed monomial -> nonzero int or Fraction; a
    factor's degree is -1 when it is zero."""

    def __init__(self, text):
        self.text = text
        self.toks = _TOKEN.findall(text)
        self.next = iter(self.toks).__next__
        self.tok = self.next()
        self.depth = 0

    def fail(self, message, tok, shift=0, expected=None):
        """Raise a ParseError at the text offset shift characters after the
        start of the token; only an error finds the offset, and counts
        lines."""
        i = next(i for i, t in enumerate(self.toks) if t is tok)
        offset = list(_TOKEN.finditer(self.text))[i].start() + shift
        line = self.text.count("\n", 0, offset) + 1
        col = offset - self.text.rfind("\n", 0, offset)
        raise ParseError(message, line, col, expected)

    def unexpected(self, expected):
        got = self.tok[0][:1]
        what = f"unexpected {got!r}" if got else "unexpected end of input"
        self.fail(f"{what}, expected {expected}", self.tok, 0, expected)

    def over_cap(self, what, degree, tok, shift=0):
        self.fail(f"{what} of degree {degree} is above the degree cap "
                  f"MAX_DEGREE = {MAX_DEGREE}", tok, shift)

    def take(self, ch):
        if self.tok[0] == ch:
            self.tok = self.next()
            return True
        return False

    def integer(self, digits):
        """The int of the digit run that ends the current token, which is
        consumed."""
        try:
            n = int(digits)
        except ValueError as exc:  # longer than the interpreter converts
            self.fail(f"number too long: {exc}", self.tok, len(self.tok[0]))
        self.tok = self.next()
        return n

    def exponent(self, degree):
        """The exponent after an optional '^' (1 without one) on a base of
        the given degree."""
        at = self.tok
        if not self.take("^"):
            return 1
        if not self.tok[_NUMBER]:
            self.unexpected("integer exponent")
        n = self.integer(self.tok[_NUMBER])
        if max(degree, 1) * n > MAX_DEGREE:
            self.over_cap("power", max(degree, 1) * n, at)
        return n

    def number(self):
        """The coefficient p or p/q at the current token, a digit run; a
        token '/q' after it is its denominator."""
        c = self.integer(self.tok[_NUMBER])
        den = self.tok
        if len(den[0]) > 1 and den[0][0] == "/":
            q = self.integer(den[0][1:])
            if not q:
                self.fail("zero denominator", den, len(den[0]))
            c = Fraction(c, q)
        return c

    def group(self):
        """The terms and degree of a parenthesized factor and its power."""
        at = self.tok
        if not self.take("("):
            self.unexpected("number, variable, or '('")
        if self.depth == MAX_DEPTH:
            self.fail(f"parentheses nested deeper than MAX_DEPTH = {MAX_DEPTH}", at)
        self.depth += 1
        base = self.expr()
        if not self.take(")"):
            self.unexpected("')'")
        self.depth -= 1
        p = {0: 1}
        for _ in range(self.exponent(max(map(_degree, base), default=-1))):
            p = add_row_product({}, p, base)
        return p, max(map(_degree, p), default=-1)

    def term(self, acc, sign):
        """acc += sign * (the next product of factors), in place. Its number
        and variable factors are kept as one coefficient and one packed
        monomial, and only a parenthesized factor multiplies dicts; the
        product is zero, of degree -1, from its first zero factor on."""
        c, m, groups, degree = sign, 0, None, 0
        while True:
            tok = self.tok
            if tok[_NUMBER]:
                f = self.number()
                c *= f
                f_degree = 0 if f else -1
            elif tok[_VARIABLE]:
                f_degree = tok[_EXPONENT]
                if f_degree:
                    f_degree = self.integer(f_degree)
                    if f_degree > MAX_DEGREE:
                        self.over_cap("power", f_degree, tok, tok[0].index("^"))
                elif tok[0] != tok[_VARIABLE]:
                    # x5 or y2 is a mistyped variable, not a variable times a number
                    self.fail(f"unexpected {tok[0][-1]!r} right after variable "
                              f"{tok[_VARIABLE]!r}", tok, len(tok[0]) - 1,
                              "variable x0..x3, x, y, z or w")
                else:
                    # a '^' without digits after it is an error there
                    self.tok = self.next()
                    f_degree = self.exponent(1) if self.tok[0] == "^" else 1
                m += f_degree * _VARS[ALIASES[tok[_VARIABLE]]]
            else:
                f, f_degree = self.group()
                groups = f if groups is None else add_row_product({}, groups, f)
            n = degree + f_degree
            if n > MAX_DEGREE:
                self.over_cap("product", n, tok)
            degree = -1 if degree < 0 or f_degree < 0 else n
            # a factor follows a '*', or directly when it starts with a
            # number, a variable or '('
            tok = self.tok
            if tok[0] == "*":
                self.tok = self.next()
            elif not (tok[_NUMBER] or tok[_VARIABLE] or tok[0] == "("):
                break
        if not c:
            return
        if groups is not None:
            add_row_product(acc, {m: c}, groups)
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
                self.tok = self.next()
            self.term(acc, sign)
            if self.tok[0] not in ("+", "-"):
                return acc


def _parse(text):
    """The row of packed monomial -> nonzero int or Fraction that a text
    parses to. Raises ParseError on bad input."""
    ps = _Parser(text)
    if not ps.tok[0]:
        ps.fail("empty polynomial", ps.tok)
    p = ps.expr()
    if ps.tok[0]:
        ps.unexpected("operator or end of input")
    return p


def parse_poly(text):
    """Parse polynomial text into a Poly. Raises ParseError on bad input."""
    return row_poly(_parse(text))


# for each variable x_i, the shift of its exponent's field in a packed
# monomial and the texts of x_i^e for e below 64, "" for e = 0: every
# printed monomial is joined from them
_POWERS = tuple((16 * i, ("", f"x{i}", *(f"x{i}^{e}" for e in range(2, 64)))) for i in range(NVARS))


class _Monomials(dict):
    """The text of each packed monomial, joined from _POWERS on its first
    lookup. A printer makes one for each ideal or row set it prints."""

    def __missing__(self, k):
        z = -k & _FIELDS
        text = self[k] = "*".join([p[e] if e < 64 else f"{p[1]}^{e}" for s, p in _POWERS
                                   for e in (z >> s & 0xFFFF,) if e])
        return text


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


def _format_row(row, scale, texts):
    """`format_poly` of the Poly row / scale, read off a packed integer row
    and a rational scale > 0: keys descending (packed order is grevlex),
    each coefficient reduced by one gcd. The monomials' texts are looked up
    in texts, a _Monomials that the rows of one ideal or row set share."""
    n, d = scale.denominator, scale.numerator
    return _signed_sum([(k, c // q, d // q) for k in sorted(row, reverse=True)
                        for c in (row[k] * n,) for q in (gcd(c, d),)], texts.__getitem__)


def format_poly(p):
    """Canonical printing: terms descending under the global order, which
    is the order of their packed monomials."""
    x0, x1, x2, x3 = _VARS
    return _signed_sum(sorted(((m[0] * x0 + m[1] * x1 + m[2] * x2 + m[3] * x3, c.numerator,
                                c.denominator) for m, c in p.terms.items()), reverse=True),
                       _Monomials().__getitem__)
