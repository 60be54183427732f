"""Hilbert series and Hilbert polynomials of homogeneous ideals.

The series numerator is computed by the Groebner engine, combinatorially
from the packed leading terms of an ideal's reduced basis
(`groebner._lt_numerator`), and read here through the ideal; the Hilbert
polynomial, the projective dimension and the degree are read in closed
form from the numerator's integer moments, with no division by (1 - t),
and the polynomial is printed by the signed-term joiner of `grammar`.
`hilbert_function` serves the section spaces and the Groebner engine,
which turns the certified numerator an ideal carries into a bound.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import NamedTuple

from .grammar import _signed_sum
from .poly import dim_graded_piece


def numerator_from_terms(terms):
    """The numerator tuple of (degree, coefficient) pairs, those of one
    degree added and trailing zeros dropped: () when all cancel."""
    num = {}
    for k, c in terms:
        num[k] = num.get(k, 0) + c
    top = max((k for k, c in num.items() if c), default=-1)
    return tuple(num.get(k, 0) for k in range(top + 1))


def hilbert_function(numerator, n):
    """HF(n) = sum_k N_k dim R_(n-k) for the series N(t)/(1-t)^4."""
    return sum(c * dim_graded_piece(n - k) for k, c in enumerate(numerator))


class HilbertData(NamedTuple):
    """Series numerator plus the polynomial data extracted from it."""

    numerator: tuple
    hp_coeffs: tuple        # HP(t) = sum hp_coeffs[k] * t^k, exact rationals
    projective_dimension: int   # deg HP; -1 for the empty scheme
    degree: int             # normalized leading coefficient of HP
    constant_term: Fraction

    def hp_value(self, t):
        return sum(c * t ** k for k, c in enumerate(self.hp_coeffs))

    def hp_string(self):
        terms = [(k, c.numerator, c.denominator) for k, c in enumerate(self.hp_coeffs) if c]
        return _signed_sum(reversed(terms), lambda k: f"t^{k}" if k > 1 else "t" * k)


def hilbert_from_numerator(numerator):
    """HilbertData from the series numerator N, a tuple as
    `numerator_from_terms` gives it.

    With the series N(t)/(1-t)^4, HF(n) = sum_k N_k C(n - k + 3, 3) for
    n >= deg N - 3, and 6 C(u + 3, 3) = u^3 + 6u^2 + 11u + 6; so 6 HP(n)
    has integer coefficients in the moments M_j = sum_k N_k k^j.
    """
    m0, m1, m2, m3 = (sum(c * k ** j for k, c in enumerate(numerator)) for j in range(4))
    six_hp = [6 * m0 - 11 * m1 + 6 * m2 - m3, 11 * m0 - 12 * m1 + 3 * m2,
              6 * m0 - 3 * m1, m0]
    while six_hp and not six_hp[-1]:
        six_hp.pop()
    if not six_hp:
        # Hilbert function eventually zero: unit ideal or empty scheme
        return HilbertData(numerator, (), -1, 0, Fraction(0))
    r = len(six_hp) - 1
    hp = tuple(Fraction(c, 6) for c in six_hp)
    return HilbertData(numerator, hp, r, six_hp[r] * factorial(r) // 6, hp[0])


def hilbert(ideal):
    """HilbertData of R/I: the numerator gives the Hilbert function of R/I
    in every degree, and the polynomial that of the scheme. It is read once,
    from the leading terms of the reduced basis (`Ideal._numerator`), and
    kept in the ideal's `_hilbert` slot."""
    if ideal._hilbert is None:
        object.__setattr__(ideal, "_hilbert", hilbert_from_numerator(ideal._numerator()))
    return ideal._hilbert


def dimension_degree(ideal):
    """(projective dimension, degree); unit ideal gives (-1, 0)."""
    h = hilbert(ideal)
    return h.projective_dimension, h.degree
