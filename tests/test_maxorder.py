"""The classification of tangent sheaves with a section of degree 1 (t_F = 1)
on the maximal-order forms of every row of the table, at d = 3 and 4."""

import pytest

from p3dist.distribution import classify, line_family_invariants
from p3dist.foliation import classify_degree1
from p3dist.groebner import Ideal, saturate

from maxorder import ROWS, linear_field, oneform
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
    if d == 3:
        I = Ideal(omega.one_form_coeffs())
        assert saturate(I) == _saturate_oracle(I)
