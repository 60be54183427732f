"""The classification of tangent sheaves with a section of degree 1 (t_F = 1)
on the maximal-order forms of every row of the table, at d = 3 and 4, and on
forms pulled back from P^2, whose sheaf splits with the section d/dx3.

On the maximal-order forms c2(T_F) is also tested, not proven, to equal the
degree of the curve part of I_Sing(s) : I_Sing(omega)^infinity, s the
section."""

from functools import reduce

import pytest

from p3dist.distribution import classify, line_family_invariants
from p3dist.foliation import classify_degree1, sing_scheme_v
from p3dist.groebner import Ideal, intersect, saturate, saturate_single
from p3dist.hilbert import dimension_degree
from p3dist.poly import Poly

from maxorder import ROWS, linear_field, oneform, pullback
from test_groebner import _saturate_oracle


@pytest.mark.parametrize("d", (3, 4))
@pytest.mark.parametrize("row", sorted(ROWS))
def test_maxorder_classification(row, d):
    _, _, klass, family, chern, case = ROWS[row]
    omega = oneform(row, d, seed=2)
    report = classify(omega)
    assert (report.tF, report.h0_at_tF) == (1, 1)
    assert report.chern.as_tuple() == chern(d)
    assert (report.stability.klass, report.stability.family) == (klass, family)
    if family == 1:
        assert report.chern == line_family_invariants(d, 1)
    # the section is v up to scale and radial multiples, so it falls in v's case
    assert classify_degree1(report.minimal_section).degree1_case == case
    assert classify_degree1(linear_field(row)).degree1_case == case
    # c2 is the degree of the curve part of I_Sing(s) : I_Sing(omega)^inf,
    # the intersection of the saturations by each generator of I_Sing(omega)
    sing_s = sing_scheme_v(report.minimal_section)
    residual = reduce(intersect, (saturate_single(sing_s, g)
                                  for g in report.sing.sat_ideal.gens))
    dim, deg = dimension_degree(residual)
    assert report.chern.c2 == (deg if dim == 1 else 0)
    if d == 3:
        I = Ideal(omega.one_form_coeffs())
        assert saturate(I) == _saturate_oracle(I)


@pytest.mark.parametrize("d", (1, 2, 3, 4))
def test_pullback_from_p2(d):
    report = classify(pullback(d, seed=2))
    assert (report.degree, report.tF) == (d, 0)
    zero, one = Poly.zero(), Poly.constant(1)
    assert tuple(report.minimal_section.components) == (zero, zero, zero, one)
    assert (report.stability.klass, report.split_type) == ("split", (1, 1 - d))
    assert report.chern.as_tuple() == (2 - d, 1 - d, 0)
