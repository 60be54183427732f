"""The analysis and the Groebner engine pack each monomial into one int.
These tests check the encoding against the exponent-tuple helpers of `poly`
on every pair of monomials of degree <= 6 in x0..x3, with and without an
auxiliary variable t of exponent 0..3 in front, the degree limit through
the public API, and the products and derivatives of the analysis on
packed rows against the Fraction exterior algebra."""

from fractions import Fraction
from itertools import combinations, product

import pytest

from p3dist import groebner
from p3dist.errors import DomainError, ValidationError
from p3dist.exterior import (
    ExtForm, VField, _contraction, _radial_minors, _rows_of, contract, exterior_derivative,
    minors_against_radial,
)
from p3dist.groebner import MAX_MONOMIAL_DEGREE, Ideal, intersect, saturate_single
from p3dist.poly import (
    X0, X1, X2, X3, add_row_product, diff_row, grevlex_key, mon_div, mon_divides, mon_mul,
    row_poly,
)

from conftest import make_rng, random_poly


def monomials(degree, t_max=None):
    """Exponent tuples of degree <= degree in x0..x3, with each power
    t^0..t^t_max in front if t_max is given."""
    xs = [m for m in product(range(degree + 1), repeat=4) if sum(m) <= degree]
    return xs if t_max is None else [(e,) + m for e in range(t_max + 1) for m in xs]


def block_key(m):
    """The block order that eliminates t = m[0]: the exponent of t first,
    then grevlex on x0..x3."""
    return (m[0],) + grevlex_key(m[1:])


def divides(a, b):
    return not (a - b) & groebner._GUARDS


def check_pairs(mons, products, key):
    """Every pair of mons; products holds every product of two of them."""
    packed = {m: groebner._pack(m) for m in products}
    ks = [packed[m] for m in mons]
    # the order: sorting by the packed int and by the oracle key agree
    assert sorted(mons, key=packed.get) == sorted(mons, key=key)
    for a, ka in zip(mons, ks):
        assert [ka + kb for kb in ks] == [packed[mon_mul(a, b)] for b in mons]
        lcms = [packed[tuple(map(max, a, b))] for b in mons]
        assert [groebner._lcm(ka, kb) for kb in ks] == lcms
        assert [divides(ka, kb) for kb in ks] == [mon_divides(a, b) for b in mons]
        assert [kb - ka for kb, b in zip(ks, mons) if mon_divides(a, b)] == [
            packed[mon_div(b, a)] for b in mons if mon_divides(a, b)
        ]


def test_grevlex_encoding_against_tuple_helpers():
    mons = monomials(6)
    check_pairs(mons, monomials(12), grevlex_key)
    for m in mons:
        k = groebner._pack(m)
        assert groebner._unpack(k) == m
        assert groebner._degree(k) == sum(m)


def test_block_order_encoding_against_tuple_helpers():
    mons = monomials(6, 3)
    check_pairs(mons, monomials(12, 6), block_key)
    for m in mons:
        k = groebner._pack(m)
        # dividing by t^e leaves the packed t-free monomial
        assert groebner._unpack(k - m[0] * groebner._T) == m[1:]
        assert groebner._degree(k) == sum(m)
        assert (k < groebner._T) == (m[0] == 0)


def test_degree_limit_at_packing():
    assert Ideal((X0 ** MAX_MONOMIAL_DEGREE,)).groebner() == (X0 ** MAX_MONOMIAL_DEGREE,)
    for gens in ((X0 ** 40000,), (X1, X2 ** 20000 * X3 ** 20000 - X0 ** 40000)):
        with pytest.raises(DomainError, match="MAX_MONOMIAL_DEGREE = 32767"):
            Ideal(gens).groebner()


def test_degree_limit_inside_the_engine():
    # every generator fits, but the lcm x0^20000*x2^20000 of the leading
    # terms of an S-pair does not
    f = X0 ** 20000 - X1 ** 20000
    g = X0 * X2 ** 20000 - X3 ** 20001
    with pytest.raises(DomainError, match="degree 40000 exceeds MAX_MONOMIAL_DEGREE"):
        Ideal((f, g)).groebner()
    # the same in the block order of the eliminations: the leading terms
    # x0^17000*x1 of a generator and t*x1^16000 of t*f - 1, and t*x0^30000
    # and t*x1^2767 of t*I and (1 - t)*J
    with pytest.raises(DomainError, match="degree 33001 exceeds"):
        saturate_single(Ideal((X0 ** 17000 * X1 - X3 ** 17001,)), X1 ** 16000 + X2 ** 16000)
    with pytest.raises(ValidationError, match="degree 32768 exceeds"):
        intersect(Ideal((X0 ** 30000,)), Ideal((X1 ** 2767,)))


def random_polys(rng, degree):
    """Four homogeneous polynomials of one degree, with Fraction
    coefficients over one of a few denominators; some may be zero."""
    return [random_poly(rng, degree) * Fraction(1, rng.choice((1, 2, 6, 35)))
            for _ in range(4)]


def test_packed_helpers_against_the_fraction_algebra():
    # the rows of a form or field are c times its Polys, so each product of
    # rows is the product of Polys times the scales
    rng = make_rng(149)
    cases = 0
    for _ in range(60):
        omega = ExtForm.one_form(*random_polys(rng, rng.randint(1, 3)))
        v = VField(random_polys(rng, rng.randint(0, 2)))
        (cw, a), (cv, fs) = _rows_of(omega), _rows_of(v)
        assert row_poly(_contraction(fs, a), cv * cw) == contract(v, omega).coeffs[()]
        assert [row_poly(m, cv) for m in _radial_minors(fs)] == minors_against_radial(v)
        d_omega = exterior_derivative(omega)
        for i, j in combinations(range(4), 2):
            b = add_row_product(diff_row(a[j], i), diff_row(a[i], j), {0: 1}, -1)
            assert row_poly(b, cw) == d_omega.coeffs[i, j]
        for p, row in zip(omega.one_form_coeffs(), a):
            assert [row_poly(diff_row(row, i), cw) for i in range(4)] == [
                p.diff(i) for i in range(4)]
        cases += any(a) and any(fs)
    assert cases > 40
