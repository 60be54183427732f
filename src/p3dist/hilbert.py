"""Hilbert series and Hilbert polynomials of homogeneous ideals.

The series numerator is computed combinatorially from the leading-term
ideal by recursive splitting on a power of a pivot variable; the Hilbert
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
from .poly import NVARS, ZERO_MON, dim_graded_piece, mon_divides


def _minimalize(mons):
    mons = sorted(set(mons), key=sum)
    out = []
    for m in mons:
        if not any(mon_divides(o, m) for o in out):
            out.append(m)
    return tuple(sorted(out))


def _poly_mul(a, b):
    out = {}
    for i, ca in a.items():
        for j, cb in b.items():
            out[i + j] = out.get(i + j, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def _numerator(gens, memo):
    """Numerator of Hilb(R/I) over (1-t)^nvars; memo lives for one top call."""
    gens = _minimalize(gens)
    if not gens:
        return {0: 1}
    if ZERO_MON in gens:
        return {}
    cached = memo.get(gens)
    if cached is not None:
        return cached

    # variable occurrence counts
    counts = [0] * NVARS
    for m in gens:
        for i, e in enumerate(m):
            if e:
                counts[i] += 1
    best = max(range(NVARS), key=lambda i: counts[i])
    if counts[best] <= 1:
        # pairwise disjoint supports: product of (1 - t^deg)
        out = {0: 1}
        for m in gens:
            out = _poly_mul(out, {0: 1, sum(m): -1})
    else:
        # split along x^e, x = x_best and e its least positive exponent:
        # N(I) = N(I + (x^e)) + t^e * N(I : x^e); each side has fewer
        # (generator, variable) incidences, which bounds the depth
        e = min(m[best] for m in gens if m[best])
        plus = [m for m in gens if m[best] == 0]
        plus.append(tuple(e if i == best else 0 for i in range(NVARS)))
        quot = [m[:best] + (max(m[best] - e, 0),) + m[best + 1:] for m in gens]
        n_plus = _numerator(tuple(plus), memo)
        n_quot = _numerator(tuple(quot), memo)
        out = dict(n_plus)
        for k, v in n_quot.items():
            out[k + e] = out.get(k + e, 0) + v
        out = {k: v for k, v in out.items() if v}
    memo[gens] = out
    return out


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


def hilbert_from_lt(lt_monomials):
    """HilbertData from the leading-term monomials of a reduced basis.

    With the series N(t)/(1-t)^4, HF(n) = sum_k N_k C(n - k + 3, 3) for
    n >= deg N - 3, and 6 C(u + 3, 3) = u^3 + 6u^2 + 11u + 6; so 6 HP(n)
    has integer coefficients in the moments M_j = sum_k N_k k^j.
    """
    num = _numerator(tuple(lt_monomials), {})
    m0, m1, m2, m3 = (sum(c * k ** j for k, c in num.items()) for j in range(4))
    six_hp = [6 * m0 - 11 * m1 + 6 * m2 - m3, 11 * m0 - 12 * m1 + 3 * m2,
              6 * m0 - 3 * m1, m0]
    while six_hp and not six_hp[-1]:
        six_hp.pop()
    numerator = numerator_from_terms(num.items())
    if not six_hp:
        # Hilbert function eventually zero: unit ideal or empty scheme
        return HilbertData(numerator, (), -1, 0, Fraction(0))
    r = len(six_hp) - 1
    hp = tuple(Fraction(c, 6) for c in six_hp)
    return HilbertData(numerator, hp, r, six_hp[r] * factorial(r) // 6, hp[0])


def hilbert(ideal):
    """HilbertData of R/I: the numerator gives the Hilbert function of R/I
    in every degree, and the polynomial that of the scheme. It is read once,
    from the leading terms of the reduced basis, and kept in the ideal's
    `_hilbert` slot; the ideal that `groebner.saturate` returns comes with it."""
    if ideal._hilbert is None:
        object.__setattr__(ideal, "_hilbert", hilbert_from_lt(ideal.leading_monomials()))
    return ideal._hilbert


def dimension_degree(ideal):
    """(projective dimension, degree); unit ideal gives (-1, 0)."""
    h = hilbert(ideal)
    return h.projective_dimension, h.degree
