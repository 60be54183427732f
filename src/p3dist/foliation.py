"""Foliations by curves: analysis of one-dimensional polynomial vector
fields up to radial equivalence.

Singular scheme from the 2x2 minors against the radial field, conormal
invariants extracted from the Hilbert polynomial, the degree-1 trichotomy,
and the contraction pairing with codimension-one distributions. When the
singular scheme is finite the minors have height 3, their Eagon-Northcott
complex gives the Hilbert series in closed form, and that series certifies
the interreduced minors as the saturated basis, with no S-pair run
(`sing_scheme_v`).
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DomainError, RadialField, UnclassifiedDegree1
from .distribution import ChernTriple, SingInvariants, curve_invariants
from .exterior import _contraction, _radial_minors, checked_oneform, field_degree
from .groebner import Ideal, certify_by_numerator, saturate
from .hilbert import hilbert  # noqa: F401  unused, a tracer target: tests/test_bench_tracer.py
from .poly import integer_multiples

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
    So R/J has numerator N_e whenever R/J has Krull dimension <= 1 (by (a)
    that is height J = 3), which `groebner.certify_by_numerator` needs to
    certify the interreduced minors as J's basis. A field whose singular
    scheme is finite is then done, by (c), with no S-pair run; any other
    is saturated from its interreduced minors.
    """
    e = field_degree(v)
    _, fs = integer_multiples(v.components)
    minors = [m for m in _radial_minors(fs) if m]
    if not minors:
        raise RadialField("field is a multiple of the radial field")
    J, certified = certify_by_numerator(Ideal._of_rows(minors), _eagon_northcott(e))
    return J if certified else saturate(J)


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
