import pytest

from p3dist import corpus, groebner
from p3dist import foliation as fol
from p3dist.errors import (
    DivisorialSingularity, DomainError, InternalInconsistency, InvalidForm, RadialField,
)
from p3dist.exterior import VField, field_degree, minors_against_radial, radial_field
from p3dist.grammar import parse_poly
from p3dist.groebner import Ideal, saturate
from p3dist.hilbert import hilbert, hilbert_function
from p3dist.poly import Poly, X0, X1, X2, X3, dim_graded_piece, monomials_of_degree

from conftest import make_rng, random_nonzero_poly
from maxorder import linear_field


def test_four_points_case():
    r = fol.analyze(corpus.load_vfield("four_points"))
    assert (r.sing.degC, r.sing.pa, r.sing.lenU) == (0, 1, 4)
    assert r.chern.as_tuple() == (-4, 6, 4)
    assert r.degree1_case == "stable-points"
    # the singular scheme is exactly the four coordinate points
    expected = Ideal(tuple(
        Poly.variable(i) * Poly.variable(j)
        for i in range(4) for j in range(i + 1, 4)
    ))
    assert r.sing.sat_ideal == expected


def test_line_plus_points_case():
    r = fol.analyze(corpus.load_vfield("line_plus_points"))
    assert (r.sing.degC, r.sing.pa, r.sing.lenU) == (1, 0, 2)
    assert r.chern.as_tuple() == (-4, 5, 2)
    assert r.degree1_case == "semistable-line"


def test_double_line_case():
    r = fol.analyze(corpus.load_vfield("double_line"))
    assert (r.sing.degC, r.sing.pa, r.sing.lenU) == (2, -1, 0)
    assert r.chern.as_tuple() == (-4, 4, 0)
    assert r.degree1_case == "split-skew-or-double"
    assert r.sing.sat_ideal == Ideal(
        (X0 ** 2, X0 * X1, X1 ** 2, X0 * X3 - X1 * X2)
    )


def test_skew_lines_case():
    v = VField([X1, -X0, X3, -X2])
    r = fol.analyze(v)
    assert (r.sing.degC, r.sing.pa) == (2, -1)
    assert r.degree1_case == "split-skew-or-double"


def test_radial_rejected():
    with pytest.raises(RadialField):
        fol.sing_scheme_v(radial_field())
    with pytest.raises(RadialField):
        fol.sing_scheme_v(VField([X0 * X0, X0 * X1, X0 * X2, X0 * X3]))


def test_invalid_fields_rejected():
    assert field_degree(VField([X0 ** 2, Poly.zero(), Poly.zero(), X1 * X2])) == 2
    with pytest.raises(InvalidForm):
        fol.analyze(VField([X0, X0 * X1, Poly.zero(), Poly.zero()]))
    with pytest.raises(InvalidForm):
        fol.analyze(VField([Poly.zero()] * 4))
    with pytest.raises(InvalidForm, match="homogeneous of a common degree"):
        fol.sing_scheme_v(VField([X0 + X0 * X1, X1, X2, X3]))


def test_classify_degree1_requires_degree1():
    with pytest.raises(DomainError):
        fol.classify_degree1(VField([X0 ** 2, Poly.zero(), Poly.zero(), X1 ** 2]))


def test_line_sing_invariants():
    assert fol.line_sing_invariants(1) == (-4, 5, 2)
    assert fol.line_sing_invariants(2) == (-5, 10, 10)
    # the closed form of N* for a line
    for dp in range(1, 31):
        assert fol.line_sing_invariants(dp) == (
            -3 - dp, dp ** 2 + 2 * dp + 2, dp ** 3 + dp ** 2 - 2 * dp + 2)
    with pytest.raises(DomainError):
        fol.line_sing_invariants(0)


def test_field_with_common_factor_in_minors_rejected():
    # x1 * (x0, x1, x2, x3 + x0): the field vanishes on x1 = 0 and is radial
    # on x0 = 0, so its singular scheme contains a surface
    v = VField([X0 * X1, X1 * X1, X1 * X2, X1 * X3 + X0 * X1])
    with pytest.raises(DivisorialSingularity, match=r"share the factor x0\*x1$"):
        fol.analyze(v)
    # g * L for a linear field L: g divides every minor
    rng = make_rng(107)
    for _ in range(6):
        g = random_nonzero_poly(rng, rng.randint(1, 2), nterms=2, coeff_range=3)
        v = VField([g * c for c in random_linear_field(rng).components])
        with pytest.raises(DivisorialSingularity):
            fol.analyze(v)


def test_contraction_checks(nullcorrelation, example1):
    # the radial field lies in every distribution
    assert fol.contraction_check(radial_field(), nullcorrelation)
    assert fol.contraction_check(radial_field(), example1)
    # a constant field generally does not
    e0 = VField([Poly.constant(1), Poly.zero(), Poly.zero(), Poly.zero()])
    assert not fol.contraction_check(e0, nullcorrelation)


def test_conormal_c1_always_minus3_minus_d():
    rng = make_rng(101)
    for _ in range(10):
        comps = [Poly.zero()] * 4
        deg = rng.randint(1, 2)
        from conftest import random_poly

        comps = [random_poly(rng, deg) for _ in range(4)]
        v = VField(comps)
        try:
            _, chern = fol.conormal_invariants(v)
        except (InvalidForm, RadialField):
            continue
        assert chern.c1 == -3 - deg


def test_higher_degree_field():
    # degree-2 field vanishing-scheme analysis goes through the same pipeline
    v = VField([X1 * X1, X0 * X0, X3 * X3, X2 * X2])
    r = fol.analyze(v)
    assert r.degree == 2
    assert r.chern.c1 == -5
    assert r.degree1_case is None


def random_linear_field(rng):
    a = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)]
    comps = []
    for i in range(4):
        p = Poly.zero()
        for j in range(4):
            if a[i][j]:
                p = p + a[i][j] * Poly.variable(j)
        comps.append(p)
    return VField(comps)


def test_degree1_trichotomy_random():
    rng = make_rng(103)
    classified = 0
    cases = set()
    while classified < 200:
        v = random_linear_field(rng)
        try:
            r = fol.classify_degree1(v)
        except (RadialField, InvalidForm, DomainError):
            continue
        assert r.degree1_case in (
            "stable-points", "semistable-line", "split-skew-or-double"
        )
        cases.add(r.degree1_case)
        classified += 1
    # the random sample should hit at least the generic case
    assert "stable-points" in cases


# the tests/maxorder.py rows by the case of their field v: four points, or a
# line (the "-in-sing" rows share the field of the row they extend)
STABLE_POINT_ROWS = ("distinct", "jordan2", "jordan3", "jordan2x2")
LINE_ROWS = ("line", "line-in-sing", "skew-lines", "skew-line-in-sing")


def dense_integer_field(rng, degree):
    """A field whose components have every monomial of the degree, with
    nonzero coefficients in [-3, 3]."""
    return VField([Poly({m: rng.choice((-3, -2, -1, 1, 2, 3)) for m in monomials_of_degree(degree)})
                   for _ in range(4)])


def points_fields():
    """Degree-1 fields whose singular scheme is four points, counted with
    multiplicity: the stable-points rows, the corpus field and a diagonal
    field."""
    fields = [linear_field(row) for row in STABLE_POINT_ROWS]
    return fields + [corpus.load_vfield("four_points"), VField([X0, 2 * X1, 3 * X2, 4 * X3])]


def pieces_and_bound(v):
    """(HilbertData of the minors on the plain route, dim J_n and the bound
    dim R_n - HF_{N_e}(n) of the numerator N_e that sing_scheme_v's ideal
    carries, each for n = e + 1 ... 3e + 1)."""
    e = field_degree(v)
    h = hilbert(Ideal(minors_against_radial(v)))
    n_e = fol._eagon_northcott(e)
    degrees = range(e + 1, 3 * e + 2)
    dims = [dim_graded_piece(n) - hilbert_function(h.numerator, n) for n in degrees]
    return h, dims, [dim_graded_piece(n) - hilbert_function(n_e, n) for n in degrees]


def test_minors_have_the_eagon_northcott_numerator(monkeypatch):
    # on the plain route, with no bound: the minors of a field whose
    # singular scheme is finite have height 3, so the numerator N_e of their
    # Eagon-Northcott resolution and the constant Hilbert polynomial
    # e^3 + e^2 + e + 1; a constant field (e = 0) cuts out one point, and
    # the seeded dense fields of degree 2 and 3 have degC = 0. Their graded
    # pieces fill the bound that sing_scheme_v runs with, which no field of
    # degree e exceeds: not the line rows, whose scheme is a curve, nor a
    # field whose minors share the factor x1. A top coefficient -2 for -1
    # only loosens the bound at 3e + 1, so the run still gives the basis of
    # a point field, and the numerator check rejects it
    rng = make_rng(163)
    fields = [VField([Poly.constant(c) for c in (1, 2, 3, 5)])] + points_fields()
    fields += [dense_integer_field(rng, e) for e in (2, 2, 3, 3)]
    for v in fields:
        e = field_degree(v)
        h, dims, bounds = pieces_and_bound(v)
        assert h.numerator == fol._eagon_northcott(e)
        assert h.hp_coeffs == (e ** 3 + e ** 2 + e + 1,)
        assert dims == bounds
    divisorial = VField([parse_poly(s) for s in ("x0*x1", "x1^2", "x1*x2", "x1*x3 + x0*x1")])
    for v, dim in [(linear_field(row), 1) for row in LINE_ROWS] + [(divisorial, 2)]:
        h, dims, bounds = pieces_and_bound(v)
        assert h.projective_dimension == dim
        assert all(d <= b for d, b in zip(dims, bounds))
    right = fol._eagon_northcott
    monkeypatch.setattr(fol, "_eagon_northcott", lambda e: right(e)[:-1] + (right(e)[-1] - 1,))
    with pytest.raises(InternalInconsistency, match="Eagon-Northcott"):
        fol.sing_scheme_v(VField([X0, 2 * X1, 3 * X2, 4 * X3]))


def recorder(log, f):
    """f, appending the keyword arguments of each call to log."""
    def recording(*args, **kwargs):
        log.append(kwargs)
        return f(*args, **kwargs)
    return recording


def test_finite_schemes_are_certified_with_no_s_pair(monkeypatch):
    # one Buchberger run, told the Eagon-Northcott numerator that the ideal
    # of the minors carries, gives their basis. On a degree-1 field with
    # four isolated singular points its leading terms fill the bound in
    # every degree a pair has, so it reduces no S-polynomial, and its
    # Gauss-Jordan entry leaves the minors' rows reduced, so `_reduced_basis`
    # keeps them with no normal form: one normal form per minor, on entry,
    # and nothing is saturated. On the line rows that run is the one interreduction of the
    # minors, and the saturation's signature run starts from its basis.
    # Either way the result is the saturation of the minors, Hilbert data
    # included
    lower = {"lower": fol._eagon_northcott(1)}
    runs, forms, sats = [], [], []
    monkeypatch.setattr(groebner, "_buchberger_terms", recorder(runs, groebner._buchberger_terms))
    monkeypatch.setattr(groebner, "_normal_form_terms", recorder(forms, groebner._normal_form_terms))
    monkeypatch.setattr(fol, "saturate", recorder(sats, fol.saturate))
    for v in points_fields() + [linear_field(row) for row in LINE_ROWS]:
        minors = [m for m in minors_against_radial(v) if m]
        for log in (runs, forms, sats):
            log.clear()
        sat = fol.sing_scheme_v(v)
        if hilbert(sat).projective_dimension == 0:
            assert runs == [lower] and sats == []
            assert len(forms) == len(minors)
        else:
            assert runs == [lower]
            assert len(sats) == 1
        expected = saturate(Ideal(minors))
        assert sat == expected and hilbert(sat) == hilbert(expected)


def test_field_numbers_are_read_from_the_minors(monkeypatch):
    # J and J^sat share their Hilbert polynomial, so analyze reads the
    # numbers from the data of the minors J, kept on the field: one Hilbert
    # numerator a field, whether its scheme is finite or a curve saturated
    # through a colon, and one Buchberger run of J
    numerators, runs = [], []
    monkeypatch.setattr(groebner, "_lt_numerator", recorder(numerators, groebner._lt_numerator))
    monkeypatch.setattr(groebner, "_buchberger_terms", recorder(runs, groebner._buchberger_terms))
    for v in points_fields() + [linear_field(row) for row in LINE_ROWS]:
        numerators.clear()
        runs.clear()
        fol.analyze(v)
        assert len(numerators) == 1 and runs == [{"lower": fol._eagon_northcott(1)}]
