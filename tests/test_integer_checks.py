"""The pipeline checks a 1-form on integer multiples of its coefficients,
builds the singular scheme of a field from integer minors, and
`build_log_form` multiplies in integers. Each must agree with the
Fraction operations, which stay public as the oracle: `contract`, `wedge`,
`exterior_derivative`, `minors_against_radial` and the direct formula of a
logarithmic form. The inputs have non-integer Fraction coefficients, and
integrable forms are among them: a sign slip in one component of
omega ^ d(omega) shows only on a form whose wedge vanishes."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from p3dist import cli, corpus  # noqa: E402
from p3dist.distribution import is_integrable  # noqa: E402
from p3dist.errors import EulerViolation, RadialField  # noqa: E402
from p3dist.exterior import (  # noqa: E402
    ExtForm,
    VField,
    _contraction,
    _radial_minors,
    contract,
    exterior_derivative,
    minors_against_radial,
    oneform_degree,
    radial_field,
    wedge,
)
from p3dist.foliation import sing_scheme_v  # noqa: E402
from p3dist.grammar import format_poly, parse_poly  # noqa: E402
from p3dist.groebner import Ideal, _packed, saturate  # noqa: E402
from p3dist.logarithmic import LogType, build_log_form  # noqa: E402
from p3dist.poly import NVARS, Poly, integer_rows, monomials_of_degree  # noqa: E402
from test_linalg import a0_zero_form  # noqa: E402

FUZZ = settings(derandomize=True, database=None, max_examples=80, deadline=None)

coeff = st.fractions(-5, 5, max_denominator=6).filter(bool)
# numerator and denominator of 150 to 300 digits
huge_coeff = st.builds(lambda sign, n, d: Fraction(sign * n, d), st.sampled_from([1, -1]),
                       st.integers(10 ** 150, 10 ** 300), st.integers(10 ** 150, 10 ** 300))


def homogeneous(degree):
    """Homogeneous polynomials of the given degree with up to three terms;
    the zero polynomial among them."""
    return st.dictionaries(st.sampled_from(monomials_of_degree(degree)), coeff,
                           max_size=3).map(Poly)


def nonzero(degree):
    return homogeneous(degree).filter(bool)


def d(f):
    return exterior_derivative(ExtForm.from_function(f))


# nonzero coefficients of one degree 1..3, mostly breaking the Euler relation
random_forms = st.integers(1, 3).flatmap(
    lambda deg: st.lists(nonzero(deg), min_size=NVARS, max_size=NVARS)
).map(lambda cs: ExtForm.one_form(*cs))


@st.composite
def contracted_forms(draw):
    """i_R(eta) for a 2-form eta: Euler holds, and it is rarely integrable."""
    deg = draw(st.integers(0, 2))
    eta = ExtForm(2, {idx: draw(nonzero(deg)) for idx in ExtForm(2).coeffs})
    return contract(radial_field(), eta)


@st.composite
def pencils(draw):
    """i_R(df ^ dg), which is integrable."""
    f = draw(st.integers(1, 2).flatmap(nonzero))
    g = draw(st.integers(1, 2).flatmap(nonzero))
    return contract(radial_field(), wedge(d(f), d(g)))


@st.composite
def log_types(draw, weight=coeff):
    """Two or three polynomials and weights that satisfy the weight
    relation; a weight may be zero."""
    polys = draw(st.lists(st.integers(1, 2).flatmap(nonzero), min_size=2, max_size=3))
    weights = draw(st.lists(st.one_of(weight, st.just(Fraction(0))),
                            min_size=len(polys) - 1, max_size=len(polys) - 1))
    degrees = [f.homogeneous_degree() for f in polys]
    weights.append(-sum(w * deg for w, deg in zip(weights, degrees)) / degrees[-1])
    return LogType(tuple(polys), tuple(weights))


integrable_forms = st.one_of(pencils(), log_types().map(build_log_form))
euler_forms = st.one_of(contracted_forms(), integrable_forms)
any_forms = st.one_of(random_forms, euler_forms)


def radial_multiple(h):
    return VField([h * x for x in radial_field().components])


random_fields = st.integers(0, 2).flatmap(
    lambda deg: st.lists(homogeneous(deg), min_size=NVARS, max_size=NVARS)
).map(VField)
radial_fields = st.integers(0, 2).flatmap(homogeneous).map(radial_multiple)


@st.composite
def near_radial_fields(draw):
    """h*R with one component moved by a term of the same degree."""
    h = draw(st.integers(0, 2).flatmap(nonzero))
    comps = list(radial_multiple(h).components)
    comps[draw(st.integers(0, NVARS - 1))] += draw(nonzero(h.homogeneous_degree() + 1))
    return VField(comps)


def integers(polys):
    """Integer multiples of the polys as packed rows, as the pipeline's
    checks read them."""
    return integer_rows([_packed(p.terms) for p in polys])[1]


def annihilated(v, omega):
    """sum F_i A_i = 0, checked on integer multiples of the F_i and A_i."""
    return not _contraction(integers(v.components), integers(omega.one_form_coeffs()))


def koszul_field(omega, i, j):
    """A_j d/dx_i - A_i d/dx_j, which annihilates omega."""
    a = omega.one_form_coeffs()
    comps = [Poly.zero()] * NVARS
    comps[i] += a[j]
    comps[j] -= a[i]
    return VField(comps)


@FUZZ
@given(any_forms)
def test_euler_check_agrees_with_contract(omega):
    euler = contract(radial_field(), omega).is_zero()
    assert annihilated(radial_field(), omega) == euler
    if not euler:
        with pytest.raises(EulerViolation):
            oneform_degree(omega)


# g*(x1 dx0 - x0 dx1), g a quadric: its dx1^dx2^dx3 coefficient vanishes as
# A_2 = A_3 = 0 and B_23 = 0, and the form is integrable
G = Poly({(2, 0, 0, 0): Fraction(1, 2), (0, 1, 1, 0): 1, (0, 0, 0, 2): -3})
G_PENCIL = ExtForm.one_form(G * Poly.variable(1), -G * Poly.variable(0), Poly.zero(), Poly.zero())


@FUZZ
@given(euler_forms)
@example(a0_zero_form())
@example(G_PENCIL)
def test_integrability_agrees_with_wedge(omega):
    assume(not omega.is_zero())
    theta = wedge(omega, exterior_derivative(omega))
    # Euler gives theta = i_R(h dx0^dx1^dx2^dx3), whose dx1^dx2^dx3
    # coefficient is x0*h: it vanishes exactly when all four do
    assert theta.coeffs[1, 2, 3].is_zero() == theta.is_zero()
    assert is_integrable(omega) == theta.is_zero()


@FUZZ
@given(integrable_forms)
@example(G_PENCIL)
def test_pencils_and_log_forms_are_integrable(omega):
    assume(not omega.is_zero())
    assert wedge(omega, exterior_derivative(omega)).is_zero()
    assert is_integrable(omega)


@FUZZ
@given(any_forms, st.data())
def test_annihilation_agrees_with_contract(omega, data):
    v = data.draw(st.one_of(
        random_fields,
        radial_fields,
        st.tuples(st.integers(0, NVARS - 1), st.integers(0, NVARS - 1))
        .map(lambda ij: koszul_field(omega, *ij)),
    ))
    assert annihilated(v, omega) == contract(v, omega).is_zero()


@FUZZ
@given(st.one_of(random_fields, radial_fields, near_radial_fields()))
def test_radial_check_agrees_with_minors(v):
    assert any(_radial_minors(integers(v.components))) == any(minors_against_radial(v))


# degree 1 and 2, every coefficient a non-integer rational
rational_fields = st.integers(1, 2).flatmap(
    lambda deg: st.lists(
        st.dictionaries(st.sampled_from(monomials_of_degree(deg)),
                        coeff.filter(lambda c: c.denominator > 1), min_size=1, max_size=4)
        .map(Poly), min_size=NVARS, max_size=NVARS)
).map(VField)


def assert_sing_scheme_from_fraction_minors(v):
    minors = [m for m in minors_against_radial(v) if m]
    assert sing_scheme_v(v) == saturate(Ideal(tuple(minors)))


@settings(FUZZ, max_examples=40)
@given(rational_fields)
# a dense integer field with four isolated singular points, whose minors
# fill the Eagon-Northcott bound of `sing_scheme_v` with no S-pair reduced
@example(VField([parse_poly(s) for s in ("3*x0 - 3*x1 - 2*x2 + x3", "x0 + x1 - 2*x2 - 3*x3",
                                          "3*x0 + 3*x1 - 3*x2 - 2*x3", "-3*x0 - 3*x1 - 3*x2 + 2*x3")]))
def test_sing_scheme_agrees_with_fraction_minors(v):
    assume(any(minors_against_radial(v)))
    assert_sing_scheme_from_fraction_minors(v)


def test_sing_scheme_of_corpus_fields_agrees_with_fraction_minors():
    for name in corpus.corpus_names()["vfields"]:
        assert_sing_scheme_from_fraction_minors(corpus.load_vfield(name))


@FUZZ
@given(st.integers(0, 2).flatmap(nonzero).map(radial_multiple))
def test_sing_scheme_of_radial_multiple_raises(v):
    with pytest.raises(RadialField):
        sing_scheme_v(v)


def direct_log_form(log_type):
    """sum_i lambda_i (prod_{j != i} f_j) df_i, in Fraction Polys."""
    coeffs = [Poly.zero()] * NVARS
    for i, (w, f) in enumerate(zip(log_type.weights, log_type.polys)):
        rest = Poly.constant(w)
        for j, g in enumerate(log_type.polys):
            if j != i:
                rest = rest * g
        for k in range(NVARS):
            coeffs[k] = coeffs[k] + rest * f.diff(k)
    return ExtForm.one_form(*coeffs)


@FUZZ
@given(st.one_of(log_types(), log_types(huge_coeff)))
def test_build_log_form_matches_direct_formula(log_type):
    assert build_log_form(log_type) == direct_log_form(log_type)


@settings(FUZZ, max_examples=20)
@given(log_types(huge_coeff))
def test_log_audit_on_huge_weights_ends_in_report_or_error(log_type):
    doc = {"kind": "logtype", "polys": [format_poly(f) for f in log_type.polys],
           "lambdas": [str(w) for w in log_type.weights]}
    out, err = io.StringIO(), io.StringIO()
    stdin = io.TextIOWrapper(io.BytesIO(json.dumps(doc).encode()))
    with mock.patch("sys.stdin", stdin), redirect_stdout(out), \
            redirect_stderr(err):
        code = cli.main(["log-audit", "-"])
    assert code in (0, 1)
    assert json.loads(out.getvalue() if code == 0 else err.getvalue())
