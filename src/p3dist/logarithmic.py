"""Logarithmic 1-forms attached to weighted tuples of hypersurfaces.

Given polynomials f_1..f_r of degrees d_1..d_r and weights with
sum(lambda_i * d_i) = 0, the 1-form sum_i lambda_i (prod_{j!=i} f_j) df_i
defines an integrable distribution of degree d = sum(d_i) - 2. The module
builds such forms and reads, from the degree tuple alone, the singular
curve of a generic one (`_curve`): the union of the curves f_i = f_j = 0.
The Chern triple `distribution._chern` gives of that curve predicts the
isolated count, which audits concrete instances, and decides which degree
tuples are numerically excluded from the two maximal-order families.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import DegreeMismatch, DomainError, WeightRelationViolated
from .exterior import ExtForm
from .poly import NVARS, Poly, add_product, diff_row, integer_multiples
from . import distribution


# digits of the longest numerator or denominator an error message spells out
_SHOWN_DIGITS = 1000

# largest d that exclusion_sweep accepts: it lists every partition of d + 2,
# a count that grows like exp(pi*sqrt(2(d + 2)/3)), 8348 tuples at d = 30
# and over 10^8 at d = 100
EXCLUSION_DMAX = 30


class LogType(NamedTuple("LogType", [("polys", tuple), ("weights", tuple)])):
    """Weighted hypersurface tuple; validates degrees and the weight relation
    on every construction, `_make` and `_replace` included."""

    __slots__ = ()

    def __new__(cls, polys, weights):
        if len(polys) < 2:
            raise DomainError("need at least two weighted polynomials")
        if len(polys) != len(weights):
            raise DomainError(f"got {len(polys)} polynomials and {len(weights)} weights")
        for f in polys:
            if f.homogeneous_degree() is None or f.homogeneous_degree() < 1:
                raise DegreeMismatch(
                    "each polynomial must be homogeneous of positive degree"
                )
        rel = sum(
            Fraction(w) * f.homogeneous_degree()
            for w, f in zip(weights, polys)
        )
        if rel != 0:
            # str() of an int past the interpreter's digit limit raises
            big = max(abs(rel.numerator), rel.denominator) >= 10 ** _SHOWN_DIGITS
            shown = f"a fraction of over {_SHOWN_DIGITS} digits" if big else rel
            raise WeightRelationViolated(
                f"sum of weight*degree is {shown}, expected 0"
            )
        return super().__new__(cls, polys, weights)

    @classmethod
    def _make(cls, iterable):
        # `_replace` builds through `_make`, which would skip `__new__`
        return cls(*iterable)

    @property
    def degrees(self):
        return tuple(f.homogeneous_degree() for f in self.polys)

    @property
    def form_degree(self):
        return sum(self.degrees) - 2


def build_log_form(log_type):
    """The 1-form sum_i lambda_i (prod_{j!=i} f_j) df_i.

    It is built on integers: with W_i = c lambda_i and F_i = c' f_i the
    integer multiples of the weights and of the tuple of the f_i, the form
    is sum_i W_i (prod_{j!=i} F_j) dF_i over the one denominator c * c'^k,
    k the number of hypersurfaces.
    """
    den, weights = integer_multiples([Poly.constant(w) for w in log_type.weights])
    c, polys = integer_multiples(log_type.polys)
    den *= c ** len(polys)
    coeffs = [{} for _ in range(NVARS)]
    for i, rest in enumerate(weights):
        for j, g in enumerate(polys):
            if j != i:
                rest, acc = {}, rest
                add_product(rest, acc, g)
        for k in range(NVARS):
            add_product(coeffs[k], rest, diff_row(polys[i], k))
    return ExtForm.one_form(*(Poly({m: c / den for m, c in row.items()}) for row in coeffs))


def _curve(degrees):
    """(degC, pa) of the singular curve C of a generic form of this type.

    C is the union of the complete intersections C_ij = {f_i = f_j = 0},
    i < j, of degree d_i*d_j and genus 1 + d_i*d_j*(d_i + d_j - 4)/2. Two of
    them meet only where three of the f's vanish, at e_3 points, and at each
    three of them cross like three lines through a point in space, which
    adds 2 to the genus. With e_1, e_2 and e_3 the elementary symmetric
    functions of the d_i, degC = e_2 and pa = (e_1*e_2 + e_3)/2 - 2*e_2 + 1.
    """
    e1 = e2 = e3 = 0
    for d in degrees:
        e1, e2, e3 = e1 + d, e2 + e1 * d, e3 + e2 * d
    return e2, (e1 * e2 + e3) // 2 - 2 * e2 + 1


def expected_curve_degree(degrees):
    """Degree of the generic non-isolated singular locus: e_2 of the tuple."""
    return _curve(degrees)[0]


def expected_isolated_count(degrees):
    """Generic number of isolated singular points for the degree tuple: c3
    of the tangent sheaf, `distribution._chern` of the generic curve.

    It equals the coefficient of h^3 in (1 - h)^4 / prod_i (1 - d_i h)
    (Cukierman, Soares and Vainsencher, Compositio Math. 142, 2006), which
    `tests/test_logarithmic.py::test_predictions_against_the_series` checks.
    """
    return distribution._chern(1, sum(degrees), *_curve(degrees)).c3


class LogAuditReport(NamedTuple):
    degrees: tuple
    form_degree: int
    integrable: bool
    expected_degC: int
    actual_degC: int
    expected_lenU: int
    actual_lenU: int
    non_generic: bool
    dist_report: object


def audit_log_form(log_type):
    """Build the form, run the full analysis, compare with the predictions."""
    omega = build_log_form(log_type)
    report = distribution.classify(omega)
    degrees = log_type.degrees
    exp_degc = expected_curve_degree(degrees)
    exp_lenu = expected_isolated_count(degrees)
    non_generic = (report.sing.degC, report.sing.lenU) != (exp_degc, exp_lenu)
    return LogAuditReport(
        degrees=degrees,
        form_degree=log_type.form_degree,
        integrable=report.integrable,
        expected_degC=exp_degc,
        actual_degC=report.sing.degC,
        expected_lenU=exp_lenu,
        actual_lenU=report.sing.lenU,
        non_generic=non_generic,
        dist_report=report,
    )


def exclusion_check(degrees):
    """True when a generic form of this degree tuple cannot realize either
    maximal-order family: with d = sum(degrees) - 2, the Chern triple of its
    generic curve degree and isolated count is none of the families' triples
    `distribution._section_chern(2 - d, 1, degZ, pa)` over the curves of
    `distribution.FAMILY_CURVE`. c1 and c2 come from `distribution._chern`,
    which reads no genus for them, and c3 is the isolated count."""
    if len(degrees) < 2 or any(d < 1 for d in degrees):
        raise DomainError("degrees must be a tuple of at least two positive ints")
    d = sum(degrees) - 2
    if d < 3:
        raise DomainError("families require degree at least 3")
    chern = distribution._chern(1, d + 2, *_curve(degrees))
    return all(chern != distribution._section_chern(2 - d, 1, *curve)
               for curve in distribution.FAMILY_CURVE.values())


def exclusion_sweep(d):
    """All degree tuples with sum d + 2 (ascending), each with its verdict,
    for 3 <= d <= EXCLUSION_DMAX."""
    if not 3 <= d <= EXCLUSION_DMAX:
        raise DomainError(f"d must be between 3 and EXCLUSION_DMAX = {EXCLUSION_DMAX}, got {d}")
    target = d + 2

    def partitions(total, minpart):
        if total == 0:
            yield ()
            return
        for first in range(minpart, total + 1):
            for rest in partitions(total - first, first):
                yield (first,) + rest

    out = []
    for tup in partitions(target, 1):
        if len(tup) >= 2:
            out.append((tup, exclusion_check(tup)))
    return out
