from fractions import Fraction
from itertools import product

import pytest

from p3dist.poly import (
    ONE,
    X0,
    X1,
    X2,
    X3,
    Poly,
    dim_graded_piece,
    fraction_free_step,
    grevlex_key,
    mon_divides,
    monomials_of_degree,
)

from conftest import make_rng, random_poly


def test_basic_arithmetic():
    p = X0 + X1
    q = X0 - X1
    assert p * q == X0 * X0 - X1 * X1
    assert (p + q) == 2 * X0
    assert p - p == Poly.zero()
    assert (p * 0).is_zero()


def test_power_matches_repeated_product():
    p = X0 + 2 * X1 - X2
    assert p ** 3 == p * p * p
    assert p ** 0 == ONE


def test_fraction_coefficients():
    p = Poly.constant(Fraction(1, 2)) * X0 + Poly.constant(Fraction(1, 3)) * X1
    assert (6 * p) == 3 * X0 + 2 * X1


def test_diff_product_rule():
    rng = make_rng(11)
    nonzero = [c for c in range(-9, 10) if c]
    for _ in range(50):
        f = random_poly(rng, rng.randint(1, 3))
        g = random_poly(rng, rng.randint(1, 3))
        for i in range(4):
            assert (f * g).diff(i) == f.diff(i) * g + f * g.diff(i)


def test_homogeneous_degree():
    assert (X0 * X1).homogeneous_degree() == 2
    assert (X0 + ONE).homogeneous_degree() is None
    assert Poly.zero().homogeneous_degree() is None
    assert Poly.zero().degree() == -1


def test_grevlex_order_basics():
    # x0 > x1 > x2 > x3; higher total degree always wins
    assert grevlex_key((1, 0, 0, 0)) > grevlex_key((0, 1, 0, 0))
    assert grevlex_key((0, 0, 0, 1)) < grevlex_key((0, 0, 1, 0))
    assert grevlex_key((0, 0, 0, 2)) > grevlex_key((1, 0, 0, 0))
    # grevlex tiebreak: x1^2 beats x0*x2 (smaller power of the later variable)
    assert grevlex_key((0, 2, 0, 0)) > grevlex_key((1, 0, 1, 0))


def test_leading_monomial_and_monic():
    p = 3 * X1 * X1 + 2 * X0 * X2
    assert p.leading_monomial() == (0, 2, 0, 0)
    assert p.monic().leading_coefficient() == 1
    with pytest.raises(ValueError):
        Poly.zero().leading_monomial()


def test_primitive_integer():
    p = Poly.constant(Fraction(2, 3)) * X0 - Poly.constant(Fraction(4, 3)) * X1
    q = p.primitive_integer()
    assert q == X0 - 2 * X1
    assert (-p).primitive_integer() == q  # positive leading coefficient


def test_monomial_helpers():
    assert mon_divides((1, 0, 0, 0), (2, 1, 0, 0))
    assert not mon_divides((0, 2, 0, 0), (0, 1, 1, 1))


def test_monomials_of_degree_count_and_order():
    for d in range(-2, 9):
        mons = monomials_of_degree(d)
        assert len(mons) == dim_graded_piece(d)
        keys = [grevlex_key(m) for m in mons]
        assert keys == sorted(keys, reverse=True)
        assert set(mons) == {m for m in product(range(d + 1), repeat=4) if sum(m) == d}
    assert monomials_of_degree(-1) == []
    assert dim_graded_piece(-2) == 0


def test_immutability_and_hash():
    p = X0 + X1
    with pytest.raises(AttributeError):
        p.terms = {}
    assert hash(p) == hash(X1 + X0)


def random_row(rng, keys, coeffs):
    return {k: rng.choice(coeffs) for k in rng.sample(keys, rng.randint(1, 6))}


def stepped(row, pivot, col, shift=0, p=None):
    """The row the in-place step makes of a copy of row, after checking its
    contract: the keys it returns are exactly those it added, and the pivot
    row is unchanged."""
    out, before = dict(row), dict(pivot)
    added = fraction_free_step(out, pivot, col, shift, p)
    assert sorted(added) == sorted(out.keys() - row.keys())
    assert pivot == before
    return out


def test_fraction_free_step_reads_the_pivot_shifted():
    # the engine's step: the pivot's keys shifted by s, as if x^s * pivot
    rng = make_rng(11)
    nonzero = [c for c in range(-9, 10) if c]
    for _ in range(300):
        shift = rng.randint(-5, 5)
        pivot = random_row(rng, range(20), nonzero)
        row = random_row(rng, range(-5, 25), nonzero)
        col = rng.choice(list(pivot)) + shift
        row[col] = rng.choice(nonzero)
        shifted = {k + shift: c for k, c in pivot.items()}
        out = stepped(row, pivot, col, shift)
        assert out == stepped(row, shifted, col)
        assert col not in out


def test_fraction_free_step_mod_p():
    # over GF(p) the pivot is monic: row - row[col] * x^s * pivot, mod p
    p = 13
    rng = make_rng(12)
    for _ in range(300):
        shift = rng.randint(0, 5)
        pivot = random_row(rng, range(20), range(1, p))
        lead = rng.choice(list(pivot))
        pivot[lead] = 1
        row = random_row(rng, range(25), range(1, p))
        col = lead + shift
        row[col] = rng.randint(1, p - 1)
        shifted = {k + shift: c for k, c in pivot.items()}
        expected = {}
        for k in set(row) | set(shifted):
            c = (row.get(k, 0) - row[col] * shifted.get(k, 0)) % p
            if c:
                expected[k] = c
        assert stepped(row, pivot, col, shift, p) == expected


def test_fraction_free_step_leaves_the_content_in():
    # the step only cancels; the caller that keeps the row divides it out
    assert stepped({0: 2, 1: 4}, {0: 1, 1: 1}, 0) == {1: 2}
    assert stepped({0: 3, 1: 6}, {0: 1, 1: 5}, 0, p=7) == {1: 5}
    # it changes the row it is given, and returns the keys it added
    row = {0: 2, 1: 3}
    assert fraction_free_step(row, {0: 1, 2: 1}, 0) == [2]
    assert row == {1: 3, 2: -2}
