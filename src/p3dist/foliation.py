"""Foliations by curves: analysis of one-dimensional polynomial vector
fields up to radial equivalence.

Singular scheme from the 2x2 minors against the radial field, conormal
invariants extracted from the Hilbert polynomial, the degree-1 trichotomy,
and the contraction pairing with codimension-one distributions. The
Eagon-Northcott series of the minors bounds their graded pieces for every
field of its degree, so one Buchberger run, told that bound, gives their
basis; when the singular scheme is finite that basis is already saturated
(`sing_scheme_v`).
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DomainError, InternalInconsistency, RadialField, UnclassifiedDegree1
from .distribution import ChernTriple, SingInvariants, curve_invariants
from .exterior import _contraction, _radial_minors, checked_oneform, field_degree
from .groebner import bounded_ideal, saturate
from .hilbert import hilbert
from .poly import dim_graded_piece, integer_multiples

_DEGREE1_CASES = {
    (0, 6, 4): "stable-points",
    (1, 5, 2): "semistable-line",
    (2, 4, 0): "split-skew-or-double",
}


class FoliationCurveReport(NamedTuple):
    degree: int
    sing: SingInvariants
    chern: ChernTriple  # invariants of the conormal-type sheaf
    degree1_case: str | None


def _eagon_northcott(e):
    """The numerator N_e of HS(R/J), as `hilbert_from_lt` gives it, for the
    minors J of a field of degree e with height J = 3 (see `sing_scheme_v`)."""
    n = {}
    for k, c in ((0, 1), (e + 1, -6), (e + 2, 4), (2 * e + 1, 4),
                 (e + 3, -1), (2 * e + 2, -1), (3 * e + 1, -1)):
        n[k] = n.get(k, 0) + c
    return tuple(n.get(k, 0) for k in range(max(e + 3, 3 * e + 1) + 1))


def _dim_bound(n_e):
    """bound[n] = dim R_n - HF(n) for HS = N_e/(1 - t)^4, n <= deg N_e: by
    (d) of `sing_scheme_v`, dim J_n <= bound[n] for every field of degree e."""
    return {n: -sum(c * dim_graded_piece(n - k) for k, c in enumerate(n_e) if k)
            for n in range(len(n_e))}


def sing_scheme_v(v):
    """Saturated ideal of the locus where the field is radially dependent.

    Let e be the degree of v and J the ideal of the 2x2 minors of the 2x4
    matrix with rows (x0, ..., x3) and (v0, ..., v3).
    (a) J is proper, so height J <= 3 (Eagon-Northcott's bound for maximal
        minors).
    (b) When height J = 3 the Eagon-Northcott complex resolves R/J (Eagon
        and Northcott, Proc. Roy. Soc. A 269, 1962), and its shifts give
        HS(R/J) = N_e(t)/(1 - t)^4 with
            N_e = 1 - 6t^(e+1) + 4t^(e+2) + 4t^(2e+1)
                    - t^(e+3) - t^(2e+2) - t^(3e+1),
        for e = 1 this is 1 - 6t^2 + 8t^3 - 3t^4, and the Hilbert
        polynomial is the constant e^3 + e^2 + e + 1.
    (c) The resolution has length 3, so R/J has depth 1 (Auslander-
        Buchsbaum): m is not associated to J, and J is saturated.
    (d) dim J_n <= dim R_n - HF_{N_e}(n), the height-3 rank by (b), for
        every field of degree e: the rank of J_n is lower semicontinuous in
        the field's coefficients, which range over an irreducible affine
        space, so its largest value holds on an open set, which meets the
        nonempty open set of height-3 fields, witnessed by (1, 2, 3, 5) for
        e = 0, (x0, 2x1, 3x2, 4x3) for e = 1 and (x0^e, ..., x3^e) for e >= 2.
    So one Buchberger run told the bound of (d) gives J's basis (Traverso's
    stop, `groebner._buchberger_terms`; pairs above deg N_e run unbounded).
    A finite scheme has height J = 3, so numerator N_e (checked) and J is
    saturated by (c); any other J is saturated from that basis.
    """
    e = field_degree(v)
    _, fs = integer_multiples(v.components)
    minors = [m for m in _radial_minors(fs) if m]
    if not minors:
        raise RadialField("field is a multiple of the radial field")
    n_e = _eagon_northcott(e)
    J = bounded_ideal(minors, _dim_bound(n_e))
    h = hilbert(J)
    if h.projective_dimension > 0:
        return saturate(J)
    if h.numerator != n_e:
        raise InternalInconsistency(f"minors with a finite scheme have the numerator"
                                    f" {h.numerator}, not the Eagon-Northcott {n_e}")
    return J


def conormal_invariants(v):
    """Singular-scheme invariants and the Chern triple for a degree-d' field."""
    d = field_degree(v)
    sat = sing_scheme_v(v)
    degc, pa, lenu = curve_invariants(
        sat, lambda degc: d ** 3 + d ** 2 + d - 3 * degc * (d - 1) - 1,
        "minors against the radial field",
    )
    return SingInvariants(degc, pa, lenu, sat), ChernTriple(-3 - d, d ** 2 + 2 * d + 3 - degc, lenu)


def analyze(v):
    """Conormal invariants plus the degree-1 case when applicable."""
    d = field_degree(v)
    sing, chern = conormal_invariants(v)
    case = None
    if d == 1:
        key = (sing.degC, chern.c2, chern.c3)
        case = _DEGREE1_CASES.get(key)
        if case is None:
            raise UnclassifiedDegree1(
                f"degree-1 field with (degC, c2, c3) = {key} fits no case"
            )
    return FoliationCurveReport(d, sing, chern, case)


def classify_degree1(v):
    """Place a degree-1 field into the three-case trichotomy."""
    d = field_degree(v)
    if d != 1:
        raise DomainError(f"trichotomy applies to degree-1 fields, got {d}")
    return analyze(v)


def line_sing_invariants(dprime):
    """Chern triple when the singular scheme is a single reduced line."""
    if dprime < 1:
        raise DomainError("requires degree at least 1")
    return (
        -3 - dprime,
        dprime ** 2 + 2 * dprime + 2,
        dprime ** 3 + dprime ** 2 - 2 * dprime + 2,
    )


def contraction_check(v, omega):
    """True when the field lies in the distribution cut out by the 1-form."""
    _, a = checked_oneform(omega)
    _, fs = integer_multiples(v.components)
    return not _contraction(fs, a)
