"""Sparse multivariate polynomials in x0..x3 over exact rationals.

Monomials are exponent 4-tuples. The global term order is graded reverse
lexicographic with x0 > x1 > x2 > x3; every canonical printing and every
deterministic choice in the package goes through it.

The analysis reads a polynomial as a sparse integer row keyed by its packed
monomials (Monagan and Pearce, J. Symbolic Comput. 46, 2011): the parser
sums the keys of its variables, and a form or field keeps the rows and one
rational scale (`integer_rows`), of which its Polys are a view (`row_poly`).
With a power t^e of the Groebner engine's auxiliary variable in front,
    t^e x0^a0 x1^a1 x2^a2 x3^a3 -> e*2^96 + (a0 + a1 + a2 + a3)*2^80
                                   - (e<<64 | a3<<48 | a2<<32 | a1<<16 | a0).
A product is +, a quotient is -, and integer comparison is grevlex (for
e > 0 the block order that eliminates t).

The sparse integer rows below carry the fraction-free eliminations of the
Groebner engine and of the section spaces. Their one step cancels a term
in place, in a row that the reduction owns: each reduction copies its row
once, on entry, and the step changes that copy only. A row's content is
divided out once, by `primitive_ints`, where a caller keeps the row, never
inside a reduction.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm
from operator import add, le, neg, sub

NVARS = 4
ZERO_MON = (0, 0, 0, 0)
_FIELDS = (1 << 80) - 1
_VARS = tuple((1 << 80) - (1 << 16 * i) for i in range(NVARS))  # x0..x3 packed


def mon_mul(a, b):
    return tuple(map(add, a, b))


def mon_divides(a, b):
    """True if monomial a divides monomial b."""
    return all(map(le, a, b))


def mon_div(a, b):
    """a / b, assuming b divides a."""
    return tuple(map(sub, a, b))


def grevlex_key(m):
    """Sort key: larger key = larger monomial in grevlex."""
    return (sum(m),) + tuple(map(neg, reversed(m)))


# -- sparse integer rows ------------------------------------------------------
# A row maps keys (matrix columns, or packed monomials) to nonzero
# coefficients. The step below is the fraction-free arithmetic of the
# section-space elimination and of the Groebner engine, which reads the
# pivot row's keys shifted by a monomial and may work mod a prime. It
# changes the row it is given, so a reduction steps only a row it owns.


def primitive_ints(row, lead=None):
    """A nonzero integer row divided by its content, its entry at the key
    `lead`, by default the smallest key, positive. The row itself is
    returned when it is already so."""
    g = gcd(*row.values())
    if row[min(row) if lead is None else lead] < 0:
        g = -g
    return {k: c // g for k, c in row.items()} if g != 1 else row


def primitive_row(row, lead=None):
    """A nonzero row of rationals scaled to a primitive integer row whose
    entry at the key `lead`, by default the smallest key, is positive."""
    den = lcm(*(c.denominator for c in row.values()))
    return primitive_ints({k: c.numerator * (den // c.denominator) for k, c in row.items()}, lead)


def fraction_free_step(row, pivot_row, col, shift=0, p=None):
    """Turn row into a*row - b*pivot_row, in place, where the pivot row's
    keys are read shifted by `shift`, q = pivot_row[col - shift],
    f = row[col], g = gcd(q, f), a = q/g and b = f/g; the entry in col
    cancels. Returns the keys the step added to row; the pivot row is not
    modified. The step only cancels: the content stays in, for the caller
    that keeps the row to divide out. With a prime p the pivot row is
    monic, so a = 1 and b = f with no gcd, and the entries are reduced
    mod p."""
    b = row[col]
    if not p:
        q = pivot_row[col - shift]
        g = gcd(q, b)
        a, b = q // g, b // g
        if a != 1:
            for k in row:
                row[k] *= a
    added = []
    for k, c in pivot_row.items():
        k += shift
        old = row.get(k)
        if old is None:
            row[k] = -b * c % p if p else -b * c
            added.append(k)
            continue
        c = old - b * c
        if p:
            c %= p
        if c:
            row[k] = c
        else:
            del row[k]
    return added


# -- packed integer rows -------------------------------------------------------
# Whether a product of forms vanishes does not change when each factor is
# scaled by a nonzero rational, so the analysis runs on integer rows.


def _unpack(k):
    """The exponent tuple (a0, a1, a2, a3) of a packed t-free monomial."""
    z = -k & _FIELDS
    return (z & 0xFFFF, z >> 16 & 0xFFFF, z >> 32 & 0xFFFF, z >> 48 & 0xFFFF)


def _degree(k):
    """Total degree, t included, of a packed monomial."""
    h = -(-k >> 80)
    return (h >> 16) + (h & 0xFFFF)


def integer_rows(rows):
    """(c, rows'): the least rational c > 0 for which every c*row, row a dict
    of int or Fraction coefficients, has integer coefficients with no common
    factor, and those integer rows, with the keys kept. A zero row stays
    empty."""
    den = lcm(*(c.denominator for row in rows for c in row.values()))
    rows = [{m: c.numerator * (den // c.denominator) for m, c in row.items()} for row in rows]
    g = gcd(*(c for row in rows for c in row.values())) or 1
    if g > 1:
        rows = [{m: c // g for m, c in row.items()} for row in rows]
    return Fraction(den, g), tuple(rows)


def row_poly(row, scale=1):
    """The Poly row / scale of a packed row of int or Fraction coefficients,
    scale > 0 rational."""
    if scale != 1:
        row = {k: Fraction(c) / scale for k, c in row.items()}
    return Poly({_unpack(k): c for k, c in row.items()})


def add_row_product(out, a, b, scale=1):
    """out += scale * a * b, in place, for packed rows a, b and a nonzero
    scale; out keeps no zero coefficients, and is returned."""
    for m1, c1 in a.items():
        c1 *= scale
        for m2, c2 in b.items():
            m = m1 + m2
            c = out.get(m, 0) + c1 * c2
            if c:
                out[m] = c
            else:
                del out[m]
    return out


def diff_row(row, i):
    """Partial derivative of a packed row with respect to x_i."""
    x = _VARS[i]
    return {k - x: c * e for k, c in row.items() for e in (-k >> 16 * i & 0xFFFF,) if e}


def _as_fraction(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"coefficient must be rational, got {type(c).__name__}")


class Poly:
    """Immutable sparse polynomial: dict monomial -> nonzero Fraction."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for m, c in terms.items():
                c = _as_fraction(c)
                if c:
                    clean[m] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero():
        return Poly()

    @staticmethod
    def constant(c):
        c = _as_fraction(c)
        return Poly({ZERO_MON: c}) if c else Poly()

    @staticmethod
    def variable(i):
        m = [0] * NVARS
        m[i] = 1
        return Poly({tuple(m): Fraction(1)})

    @staticmethod
    def monomial(m, c=1):
        return Poly({tuple(m): _as_fraction(c)})

    # -- predicates ------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return not self.terms or (len(self.terms) == 1 and ZERO_MON in self.terms)

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def homogeneous_degree(self):
        """Degree if homogeneous and nonzero, else None."""
        if not self.terms:
            return None
        degs = {sum(m) for m in self.terms}
        return degs.pop() if len(degs) == 1 else None

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if not c:
                return Poly()
            return Poly({m: a * c for m, a in self.terms.items()})
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                # mon_mul written out: twice as fast in this innermost loop
                m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2], m1[3] + m2[3])
                out[m] = out.get(m, 0) + c1 * c2
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        out = Poly.constant(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def diff(self, i):
        """Partial derivative with respect to x_i."""
        return Poly({m[:i] + (m[i] - 1,) + m[i + 1:]: c * m[i]
                     for m, c in self.terms.items() if m[i]})

    # -- structure ---------------------------------------------------------

    def leading_monomial(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=grevlex_key)

    def leading_coefficient(self):
        return self.terms[self.leading_monomial()]

    def monic(self):
        if not self.terms:
            return self
        lc = self.leading_coefficient()
        return Poly({m: c / lc for m, c in self.terms.items()})

    def primitive_integer(self):
        """Clear denominators, divide by content, make leading coeff > 0."""
        if not self.terms:
            return self
        return Poly(primitive_row(self.terms, self.leading_monomial()))

    def sorted_terms(self):
        """Terms sorted descending under the global order."""
        return sorted(self.terms.items(), key=lambda t: grevlex_key(t[0]), reverse=True)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def __str__(self):
        from .grammar import format_poly

        return format_poly(self)

    def __repr__(self):
        return f"Poly({self})"


X0, X1, X2, X3 = (Poly.variable(i) for i in range(NVARS))
ONE = Poly.constant(1)


def monomials_of_degree(d):
    """All exponent tuples of total degree d, sorted descending grevlex."""
    return sorted(((a, b, c, d - a - b - c) for a in range(d + 1)
                   for b in range(d + 1 - a) for c in range(d + 1 - a - b)),
                  key=grevlex_key, reverse=True)


def dim_graded_piece(d):
    """Dimension of the space of degree-d forms; 0 for d < 0."""
    return comb(d + NVARS - 1, NVARS - 1) if d >= 0 else 0
