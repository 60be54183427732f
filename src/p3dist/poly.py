"""Sparse multivariate polynomials in x0..x3 over exact rationals.

Monomials are exponent 4-tuples. The global term order is graded reverse
lexicographic with x0 > x1 > x2 > x3; every canonical printing and every
deterministic choice in the package goes through it.

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


# -- integer polynomials ------------------------------------------------------
# An integer dict maps monomials to nonzero ints. Whether a product of forms
# vanishes does not change when each factor is scaled by a nonzero rational,
# so the exterior checks run on these instead of on Fraction Polys.


def integer_multiples(polys):
    """(c, dicts): the least rational c > 0 for which every c*p, p in polys,
    has integer coefficients with no common factor, and those integer
    dicts. A zero poly gives an empty dict."""
    den = lcm(*(c.denominator for p in polys for c in p.terms.values()))
    rows = [{m: c.numerator * (den // c.denominator) for m, c in p.terms.items()}
            for p in polys]
    g = gcd(*(c for row in rows for c in row.values())) or 1
    if g > 1:
        rows = [{m: c // g for m, c in row.items()} for row in rows]
    return Fraction(den, g), rows


def add_product(out, a, b, scale=1):
    """out += scale * a * b, in place, for dicts a, b of 4-variable monomials
    with nonzero int or Fraction coefficients and a nonzero scale; out keeps
    no zero coefficients."""
    for m1, c1 in a.items():
        c1 *= scale
        for m2, c2 in b.items():
            # mon_mul written out: twice as fast in this innermost loop
            m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2], m1[3] + m2[3])
            c = out.get(m, 0) + c1 * c2
            if c:
                out[m] = c
            else:
                del out[m]


def diff_row(row, i):
    """Partial derivative of an integer dict with respect to x_i."""
    out = {}
    for m, c in row.items():
        e = m[i]
        if e:
            out[m[:i] + (e - 1,) + m[i + 1:]] = c * e
    return out


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
        add_product(out, self.terms, other.terms)
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
        return Poly(diff_row(self.terms, i))

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
