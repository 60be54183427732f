import importlib
import time
from fractions import Fraction
from math import factorial

import pytest

from p3dist import groebner
from p3dist.grammar import parse_poly
from p3dist.groebner import Ideal
from p3dist.hilbert import dimension_degree, hilbert, hilbert_from_numerator
from p3dist.poly import Poly, X0, X1, X2, X3, dim_graded_piece, monomials_of_degree

from conftest import make_rng, module_cache_sizes, random_nonzero_poly
from hilbert_oracle import numerator as oracle_numerator


def P(s):
    return parse_poly(s)


def test_line():
    h = hilbert(Ideal((X0, X1)))
    assert h.hp_string() == "t + 1"
    assert h.projective_dimension == 1
    assert h.degree == 1
    assert h.constant_term == 1


def test_complete_intersection_33():
    h = hilbert(Ideal((P("x^3+y^3+z^3"), P("x*y*z+w^3"))))
    assert h.hp_string() == "9*t - 9"
    assert h.degree == 9
    # genus of CI(3,3): 1 - constant term = 10
    assert 1 - h.constant_term == 10


def test_twisted_cubic():
    I = Ideal((X0 * X2 - X1 ** 2, X1 * X3 - X2 ** 2, X0 * X3 - X1 * X2))
    h = hilbert(I)
    assert h.hp_string() == "3*t + 1"
    assert h.degree == 3
    assert h.projective_dimension == 1


@pytest.mark.parametrize("gens, expected", [
    ((), "1/6*t^3 + t^2 + 11/6*t + 1"),
    ((X0,), "1/2*t^2 + 3/2*t + 1"),
    ((X0 * X1,), "t^2 + 2*t + 1"),
    ((X0, X1, X2), "1"),
    ((X0 ** 2, X1, X2), "2"),
    ((X0, X1, X2, X3), "0"),
])
def test_hp_string_prints_every_degree(gens, expected):
    # fractional and unit coefficients, t^k for k > 1, a bare constant, and
    # the empty scheme: each coefficient reaches grammar._signed_sum as a
    # (k, n, den) triple
    assert hilbert(Ideal(gens)).hp_string() == expected


def test_points_and_unit():
    assert dimension_degree(Ideal((X0, X1, X2))) == (0, 1)
    assert dimension_degree(Ideal((X0, X1, X2 ** 3))) == (0, 3)
    assert dimension_degree(Ideal((X0, X0 + Poly.constant(1)))) == (-1, 0)
    # whole space
    h = hilbert(Ideal(()))
    assert h.projective_dimension == 3
    assert h.degree == 1


def test_surface():
    h = hilbert(Ideal((P("x^2 + y*w"),)))
    assert h.projective_dimension == 2
    assert h.degree == 2


def test_hp_matches_direct_dimension_count():
    # compare HP values against explicit graded-piece dimension counts
    I = Ideal((X0 * X2 - X1 ** 2, X1 * X3 - X2 ** 2, X0 * X3 - X1 * X2))
    lts = set(I.leading_monomials())
    h = hilbert(I)
    for d in range(4, 9):
        count = 0
        for m in monomials_of_degree(d):
            if not any(all(a <= b for a, b in zip(lt, m)) for lt in lts):
                count += 1
        assert h.hp_value(d) == count


def test_hilbert_additive_on_random_monomial_ideals():
    # dim of degree-d piece of R/I equals monomials not divisible by any LT
    rng = make_rng(71)
    for _ in range(20):
        mons = [tuple(rng.randint(0, 2) for _ in range(4)) for _ in range(4)]
        mons = [m for m in mons if sum(m) > 0]
        if not mons:
            continue
        I = Ideal(tuple(Poly.monomial(m) for m in mons))
        h = hilbert(I)
        for d in range(6, 9):
            count = sum(
                1
                for m in monomials_of_degree(d)
                if not any(all(a <= b for a, b in zip(lt, m)) for lt in mons)
            )
            if h.projective_dimension == -1:
                assert count == 0
            else:
                assert h.hp_value(d) == count


def standard_monomial_count(lts, n):
    return sum(1 for m in monomials_of_degree(n)
               if not any(all(a <= b for a, b in zip(lt, m)) for lt in lts))


def interpolate(points):
    """Coefficients, lowest degree first, of the polynomial of degree below
    len(points) through the (x, y) points, trailing zeros stripped."""
    coeffs = [Fraction(0)] * len(points)
    for xi, yi in points:
        basis = [Fraction(yi)]  # yi * prod (t - xj) / (xi - xj), j != i
        for xj, _ in points:
            if xj != xi:
                basis = [((basis[k - 1] if k else 0)
                          - xj * (basis[k] if k < len(basis) else 0)) / (xi - xj)
                         for k in range(len(basis) + 1)]
        coeffs = [c + b for c, b in zip(coeffs, basis)]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def test_hilbert_polynomial_against_interpolated_counts():
    # Hilbert function counts past deg N - 3 against the closed form read
    # from the numerator's moments; exponents up to 6 make deg N reach 20
    rng = make_rng(113)
    ideals = [Ideal(()), Ideal((Poly.constant(1),))]
    for _ in range(50):
        mons = [tuple(rng.randint(0, 6) for _ in range(4)) for _ in range(rng.randint(1, 5))]
        # pure powers of some variables cut the dimension down
        for v in rng.sample(range(4), rng.randint(0, 4)):
            mons.append(tuple(rng.randint(1, 6) if i == v else 0 for i in range(4)))
        ideals.append(Ideal(tuple(Poly.monomial(m) for m in mons if sum(m))))
    dims, top = set(), 0
    for I in ideals:
        h = hilbert(I)
        lts = I.leading_monomials()
        deg_n = max(len(h.numerator) - 1, 0)
        points = [(n, standard_monomial_count(lts, n)) for n in range(deg_n, deg_n + 4)]
        for n, count in points:
            assert h.hp_value(n) == count
        hp = interpolate(points)
        r = len(hp) - 1
        assert (h.hp_coeffs, h.projective_dimension) == (tuple(hp), r)
        assert h.degree == (hp[r] * factorial(r) if hp else 0)
        assert h.constant_term == (hp[0] if hp else 0)
        dims.add(r)
        top = max(top, deg_n)
    assert dims == {-1, 0, 1, 2, 3} and top >= 18


def test_high_exponent_does_not_recurse_per_power():
    # x0^1499 * (x0, x1): the plane x0 = 0 counted 1499 times; splitting
    # off one power of x0 per call went 1500 calls deep
    h = hilbert(Ideal((X0 ** 1500, X0 ** 1499 * X1)))
    assert (h.projective_dimension, h.degree) == (2, 1499)


def test_hilbert_keeps_no_module_cache():
    # the package exports the function `hilbert` under the module's name
    hilbert_module = importlib.import_module("p3dist.hilbert")
    before = module_cache_sizes(hilbert_module)
    rng = make_rng(73)
    for _ in range(10):
        hilbert(Ideal(tuple(random_nonzero_poly(rng, 2) for _ in range(3))))
    assert module_cache_sizes(hilbert_module) == before


def kernel(mons):
    """The package's numerator kernel, on the packed monomials."""
    return groebner._lt_numerator([groebner._pack(m) for m in mons])


def random_monomial(rng, degree):
    cuts = sorted(rng.randint(0, degree) for _ in range(3))
    return (cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], degree - cuts[2])


def test_kernel_matches_the_tuple_oracle():
    # random monomial ideals, low exponents and high, with pure powers of
    # some variables, and one of 72 minimal generators of degree up to 14
    rng = make_rng(131)
    for _ in range(300):
        mons = [tuple(rng.randint(0, 6) for _ in range(4)) for _ in range(rng.randint(0, 12))]
        for v in rng.sample(range(4), rng.randint(0, 4)):
            mons.append(tuple(rng.randint(1, 9) if i == v else 0 for i in range(4)))
        assert kernel(mons) == oracle_numerator(mons), mons
    mons = set()
    while len(groebner._minimal([groebner._pack(m) for m in mons])) < 72:
        mons.add(random_monomial(rng, rng.randint(6, 14)))
    start = time.perf_counter()
    got = kernel(mons)
    assert time.perf_counter() - start < 1.0
    assert got == oracle_numerator(mons)


@pytest.mark.parametrize("mons, expected", [
    ((), (1,)),
    (((0, 0, 0, 0),), ()),
    (((0, 0, 0, 0), (1, 0, 0, 0)), ()),
    (((1500, 0, 0, 0), (1499, 1, 0, 0)), None),
], ids=("zero", "unit", "unit-and-x0", "x0^1499-plane"))
def test_kernel_edge_ideals(mons, expected):
    # the zero ideal has N = 1 and the unit ideal N = 0; x0^1499 * (x0, x1)
    # nests one colon deep, whatever the exponent
    got = kernel(mons)
    assert got == oracle_numerator(mons)
    if expected is not None:
        assert got == expected
    else:
        h = hilbert_from_numerator(got)
        assert (h.projective_dimension, h.degree) == (2, 1499)
