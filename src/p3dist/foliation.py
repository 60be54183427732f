"""Foliations by curves: analysis of one-dimensional polynomial vector
fields up to radial equivalence.

Singular scheme from the 2x2 minors against the radial field, conormal
invariants extracted from the Hilbert polynomial, the degree-1 trichotomy,
and the contraction pairing with codimension-one distributions. The
conormal sheaf N* = ker(Omega^1 -> I_Z(d' - 1)) is the kernel sheaf of
`distribution._chern` with s = -1 and delta = d' - 1. The Eagon-Northcott
numerator of the minors bounds their graded pieces for every field of its
degree, so the ideal of the minors carries it, and its one Buchberger run
is told it; when the singular scheme is finite that basis is already
saturated (`sing_scheme_v`).
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DomainError, InternalInconsistency, RadialField, UnclassifiedDegree1
from .distribution import ChernTriple, SingInvariants, _chern, curve_invariants
from .exterior import _contraction, _radial_minors, checked_oneform, field_degree
from .groebner import Ideal, _engine_ideal, saturate
from .hilbert import hilbert, numerator_from_terms
from .poly import integer_multiples

# the degree-1 cases by the (degC, pa) of the singular curve: points alone,
# a line, or two skew lines or a double line
_DEGREE1_CASES = {
    (0, 1): "stable-points",
    (1, 0): "semistable-line",
    (2, -1): "split-skew-or-double",
}


class FoliationCurveReport(NamedTuple):
    degree: int
    sing: SingInvariants
    chern: ChernTriple  # invariants of the conormal-type sheaf
    degree1_case: str | None


def _eagon_northcott(e):
    """The numerator N_e of HS(R/J), as `hilbert.hilbert` gives it, for the
    minors J of a field of degree e with height J = 3 (see `sing_scheme_v`)."""
    return numerator_from_terms(((0, 1), (e + 1, -6), (e + 2, 4), (2 * e + 1, 4),
                                 (e + 3, -1), (2 * e + 2, -1), (3 * e + 1, -1)))


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
    So J carries N_e, and its one Buchberger run is told the bound of (d)
    (Traverso's stop, `groebner._buchberger_terms`; pairs above deg N_e run
    unbounded). A finite scheme has height J = 3, so numerator N_e
    (checked) and J is saturated by (c), returned as the ideal of its
    reduced basis; any other J is saturated from that basis.
    """
    J = _minors(v)
    h = hilbert(J)
    if h.projective_dimension > 0:
        return saturate(J)
    if h.numerator != J._lower:
        raise InternalInconsistency(f"minors with a finite scheme have the numerator"
                                    f" {h.numerator}, not the Eagon-Northcott {J._lower}")
    return _engine_ideal(J._basis(), h)


def _minors(v):
    """The ideal J of `sing_scheme_v`'s minors, carrying N_e, kept on the
    field so that its reduced basis and Hilbert data are computed once."""
    if v._minors is None:
        e = field_degree(v)
        _, fs = integer_multiples(v.components)
        minors = [m for m in _radial_minors(fs) if m]
        if not minors:
            raise RadialField("field is a multiple of the radial field")
        object.__setattr__(v, "_minors", Ideal._of_rows(minors, _eagon_northcott(e)))
    return v._minors


def conormal_invariants(v):
    """Singular-scheme invariants and the Chern triple of N* for a degree-d'
    field. The numbers are read from the Hilbert data of the minors J, which
    `sing_scheme_v` keeps, as J and J^sat share their Hilbert polynomial."""
    d = field_degree(v)
    sat = sing_scheme_v(v)
    numbers, chern = curve_invariants(_minors(v), -1, d - 1, "minors against the radial field")
    return SingInvariants(*numbers, sat), chern


def analyze(v):
    """Conormal invariants plus the degree-1 case when applicable."""
    d = field_degree(v)
    sing, chern = conormal_invariants(v)
    case = None
    if d == 1:
        key = (sing.degC, sing.pa)
        case = _DEGREE1_CASES.get(key)
        if case is None:
            raise UnclassifiedDegree1(
                f"degree-1 field with (degC, pa) = {key} fits no case"
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
    return _chern(-1, dprime - 1, 1, 0)


def contraction_check(v, omega):
    """True when the field lies in the distribution cut out by the 1-form."""
    _, a = checked_oneform(omega)
    _, fs = integer_multiples(v.components)
    return not _contraction(fs, a)
