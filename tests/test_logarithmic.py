from fractions import Fraction
from itertools import combinations

import pytest

from p3dist import corpus, distribution
from p3dist import logarithmic as log
from p3dist.errors import DegreeMismatch, DomainError, WeightRelationViolated
from p3dist.exterior import contract, radial_field
from p3dist.grammar import parse_poly
from p3dist.poly import Poly, X0, X1, X2

from conftest import make_rng, random_nonzero_poly


def P(s):
    return parse_poly(s)


def test_logtype_validation():
    with pytest.raises(WeightRelationViolated):
        log.LogType(polys=(X0, X1), weights=(1, 1))
    with pytest.raises(DegreeMismatch):
        log.LogType(polys=(X0, Poly.constant(2)), weights=(1, -1))
    with pytest.raises(DomainError):
        log.LogType(polys=(X0,), weights=(1,))
    lt = log.LogType(polys=(X0, X1), weights=(1, -1))
    assert lt.degrees == (1, 1)
    assert lt.form_degree == 0


# the inputs of test_logtype_validation, each with the message it raises
INVALID_LOGTYPES = [
    pytest.param((X0, X1), (1, 1), WeightRelationViolated,
                 "sum of weight*degree is 2, expected 0", id="weights"),
    pytest.param((X0, Poly.constant(2)), (1, -1), DegreeMismatch,
                 "each polynomial must be homogeneous of positive degree", id="degree"),
    pytest.param((X0,), (1,), DomainError,
                 "need at least two weighted polynomials", id="length"),
    pytest.param((X0, X1, X2), (1, -1), DomainError,
                 "got 3 polynomials and 2 weights", id="mismatch"),
]

VALID = log.LogType(polys=(X0, X1), weights=(1, -1))


@pytest.mark.parametrize("build", [
    pytest.param(lambda polys, weights: log.LogType(polys, weights), id="call"),
    pytest.param(lambda polys, weights: log.LogType._make((polys, weights)), id="_make"),
    pytest.param(lambda polys, weights: VALID._replace(polys=polys, weights=weights),
                 id="_replace"),
])
@pytest.mark.parametrize("polys, weights, error, message", INVALID_LOGTYPES)
def test_logtype_validates_on_every_constructor(build, polys, weights, error, message):
    with pytest.raises(error) as exc:
        build(polys, weights)
    assert type(exc.value) is error
    assert str(exc.value) == message


def test_logtype_record():
    assert VALID._replace(weights=(-2, 2)) == log.LogType((X0, X1), (-2, 2))
    assert log.LogType._make(iter([(X0, X1), (1, -1)])) == VALID
    assert repr(VALID) == "LogType(polys=(Poly(x0), Poly(x1)), weights=(1, -1))"
    with pytest.raises(AttributeError):
        VALID.weights = (2, -2)


def test_build_two_planes():
    lt = log.LogType(polys=(X0, X1), weights=(1, -1))
    omega = log.build_log_form(lt)
    assert omega.one_form_coeffs() == (X1, -X0, Poly.zero(), Poly.zero())


def test_build_weighted_rational():
    # degrees (1, 2): weights (2, -1) satisfy 2*1 - 1*2 = 0
    lt = log.LogType(polys=(X0, P("y^2 + x*z")), weights=(Fraction(2), Fraction(-1)))
    omega = log.build_log_form(lt)
    assert contract(radial_field(), omega).is_zero()
    assert distribution.is_integrable(omega)


def test_expected_isolated_count():
    assert log.expected_isolated_count((1, 1, 1, 1)) == 0
    assert log.expected_isolated_count((2, 2)) == 4
    assert log.expected_isolated_count((1, 1, 2)) == 2
    assert log.expected_isolated_count((1, 1)) == 0


def test_expected_curve_degree():
    assert log.expected_curve_degree((1, 1, 1, 1)) == 6
    assert log.expected_curve_degree((2, 2)) == 4
    assert log.expected_curve_degree((1, 1, 2)) == 5


def test_audit_generic_quadric_pencil():
    audit = log.audit_log_form(corpus.load_logtype("quadric_pencil"))
    assert audit.integrable
    assert not audit.non_generic
    assert (audit.actual_degC, audit.actual_lenU) == (4, 4)
    assert (audit.expected_degC, audit.expected_lenU) == (4, 4)


def test_audit_flags_non_generic_pencil():
    audit = log.audit_log_form(corpus.load_logtype("quadric_pencil_tangent"))
    assert audit.integrable
    assert audit.non_generic  # tangency inflates the curve part
    assert audit.actual_degC != audit.expected_degC


def test_audit_three_divisors():
    audit = log.audit_log_form(corpus.load_logtype("planes_and_quadric"))
    assert audit.integrable
    assert not audit.non_generic
    assert (audit.actual_degC, audit.actual_lenU) == (5, 2)


def test_log_forms_always_integrable_random():
    rng = make_rng(107)
    built = 0
    while built < 15:
        degs = [rng.randint(1, 2) for _ in range(rng.randint(2, 3))]
        polys = tuple(random_nonzero_poly(rng, d, nterms=3) for d in degs)
        # weights orthogonal to the degree vector
        if len(degs) == 2:
            weights = (degs[1], -degs[0])
        else:
            weights = (degs[1], -degs[0], 0)
        lt = log.LogType(polys=polys, weights=tuple(Fraction(w) for w in weights))
        omega = log.build_log_form(lt)
        if omega.is_zero():
            continue
        assert contract(radial_field(), omega).is_zero()
        assert distribution.is_integrable(omega)
        built += 1


def test_exclusion_examples():
    assert log.exclusion_check((1, 1, 3))
    assert log.exclusion_check((1, 2, 2))
    with pytest.raises(DomainError):
        log.exclusion_check((1, 1))  # d = 0 below the family threshold
    with pytest.raises(DomainError):
        log.exclusion_check((3,))


def test_exclusion_sweep_all_degrees():
    for d in range(3, 11):
        sweep = log.exclusion_sweep(d)
        assert sweep  # nonempty enumeration
        for degrees, excluded in sweep:
            assert sum(degrees) == d + 2
            assert excluded


def _series_isolated_count(degrees):
    """The coefficient of h^3 in (1 - h)^4 / prod_i (1 - d_i h) (Cukierman,
    Soares and Vainsencher, Compositio Math. 142, 2006): h_3 - 4h_2 + 6h_1 - 4,
    h_k the coefficients of 1 / prod_i (1 - d_i h)."""
    h1 = h2 = h3 = 0
    for d in degrees:
        h1 += d
        h2 += d * h1
        h3 += d * h2
    return h3 - 4 * h2 + 6 * h1 - 4


def _tuples(total, smallest=1):
    """The ascending degree tuples with the given sum."""
    if total == 0:
        yield ()
    for first in range(smallest, total + 1):
        for rest in _tuples(total - first, first):
            yield (first,) + rest


def test_predictions_against_the_series():
    # the generic curve of `_curve` gives the isolated count that the series
    # gives and the degree e_2, on every tuple with sum at most 30
    checked = 0
    for total in range(2, 31):
        for degrees in _tuples(total):
            if len(degrees) < 2:
                continue
            assert log.expected_isolated_count(degrees) == _series_isolated_count(degrees)
            assert log.expected_curve_degree(degrees) == sum(
                a * b for a, b in combinations(degrees, 2))
            checked += 1
    assert checked == 28598


def test_exclusion_check_against_the_family_triples():
    # the closed-form triples of the two families at degree d: a line and
    # a curve of degree 2 and genus -1
    families = (lambda d: (2 - d, 1, d), lambda d: (2 - d, 2, 2 * d))
    checked = 0
    for d in range(3, 20):
        for degrees, excluded in log.exclusion_sweep(d):
            chern = distribution._chern(1, d + 2, log.expected_curve_degree(degrees), 0)
            chern = (*chern[:2], _series_isolated_count(degrees))
            assert excluded == all(chern != triple(d) for triple in families)
            checked += 1
    assert checked == 3477


@pytest.mark.parametrize("d", [-1, 2, log.EXCLUSION_DMAX + 1])
def test_exclusion_sweep_is_bounded(d):
    with pytest.raises(DomainError, match=f"EXCLUSION_DMAX = {log.EXCLUSION_DMAX}, got {d}$"):
        log.exclusion_sweep(d)
