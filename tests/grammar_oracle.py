"""The polynomial text parser as a recursive descent over `re.Match`
objects, each error's offset read from the token it stands at: the tests'
reference for `grammar._parse`, which runs over the tokens' group tuples and
finds an offset only when it raises. `parse(text)` gives the same row of
packed monomial -> nonzero int or Fraction, or raises the same ParseError
(message, line, column and expected).
"""

import re
from fractions import Fraction

from p3dist.errors import ParseError
from p3dist.grammar import ALIASES, MAX_DEGREE, MAX_DEPTH
from p3dist.poly import _VARS, _degree, add_row_product

# a token: a digit run, a variable with its '^' and exponent digits if it
# has them, any other non-space character, or the end of the text ("")
_TOKEN = re.compile(r"(\d+)|(x[0-3]|[xyzw])(?:\s*(\^)\s*(\d+))?|(\S)|\Z")
_NUMBER, _VARIABLE, _CARET, _EXPONENT = 1, 2, 3, 4


class _Parser:
    """Recursive descent over the _TOKEN matches of a text. Each sum is
    added up in place in a dict packed monomial -> nonzero int or Fraction;
    a factor's degree is -1 when it is zero."""

    def __init__(self, text):
        self.text = text
        self.toks = list(_TOKEN.finditer(text))
        self.pos = 0
        self.tok = self.toks[0]
        self.depth = 0

    def fail(self, message, offset, expected=None):
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

    def integer(self, group=_NUMBER):
        tok = self.tok
        try:
            n = int(tok[group])
        except ValueError as exc:
            self.fail(f"number too long: {exc}", tok.end(group))
        self.advance()
        return n

    def exponent(self, degree):
        at = self.tok.start()
        if not self.take("^"):
            return 1
        if not self.tok[_NUMBER]:
            self.unexpected("integer exponent")
        n = self.integer()
        self.check_cap("power", max(degree, 1) * n, at)
        return n

    def number(self):
        c = self.integer()
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
        tok = self.tok
        i = ALIASES[tok[_VARIABLE]]
        if tok[_EXPONENT]:
            n = self.integer(_EXPONENT)
            self.check_cap("power", n, tok.start(_CARET))
            return i, n
        self.advance()
        if self.tok[_NUMBER] and self.tok.start() == tok.end():
            self.fail(f"unexpected {self.tok[0][0]!r} right after variable "
                      f"{tok[0]!r}", tok.end(), "variable x0..x3, x, y, z or w")
        return i, self.exponent(1)

    def group(self):
        tok = self.tok
        if not self.take("("):
            self.unexpected("number, variable, or '('")
        if self.depth == MAX_DEPTH:
            self.fail(f"parentheses nested deeper than MAX_DEPTH = {MAX_DEPTH}",
                      tok.start())
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
        c, m, groups, degree = sign, 0, None, None
        while True:
            tok = self.tok
            if tok[_NUMBER]:
                f = self.number()
                c *= f
                f_degree = 0 if f else -1
            elif tok[_VARIABLE]:
                i, f_degree = self.variable()
                m += f_degree * _VARS[i]
            else:
                f, f_degree = self.group()
                groups = f if groups is None else add_row_product({}, groups, f)
            if degree is None:
                degree = f_degree
            else:
                self.check_cap("product", degree + f_degree, tok.start())
                degree = -1 if -1 in (degree, f_degree) else degree + f_degree
            if not (self.take("*") or self.tok[_NUMBER] or self.tok[_VARIABLE]
                    or self.tok[0] == "("):
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
                self.advance()
            self.term(acc, sign)
            if self.tok[0] not in ("+", "-"):
                return acc


def parse(text):
    """The row a text parses to; raises ParseError on bad input."""
    ps = _Parser(text)
    if not ps.tok[0]:
        ps.fail("empty polynomial", len(text))
    p = ps.expr()
    if ps.tok[0]:
        ps.unexpected("operator or end of input")
    return p
