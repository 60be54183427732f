"""Foliations by curves: analysis of one-dimensional polynomial vector
fields up to radial equivalence.

Singular scheme from the 2x2 minors against the radial field, conormal
invariants extracted from the Hilbert polynomial, the degree-1 trichotomy,
and the contraction pairing with codimension-one distributions.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DomainError, RadialField, UnclassifiedDegree1
from .distribution import ChernTriple, SingInvariants, curve_invariants
from .exterior import _contraction, _radial_minors, checked_oneform, field_degree
from .groebner import Ideal, saturate
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


def sing_scheme_v(v):
    """Saturated ideal of the locus where the field is radially dependent."""
    field_degree(v)
    _, fs = integer_multiples(v.components)
    minors = [m for m in _radial_minors(fs) if m]
    if not minors:
        raise RadialField("field is a multiple of the radial field")
    return saturate(Ideal._of_rows(minors))


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
