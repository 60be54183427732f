import pytest

from p3dist import corpus
from p3dist import distribution as dist
from p3dist import exterior, foliation
from p3dist.distribution import ChernTriple
from p3dist.errors import (
    DivisorialSingularity,
    DomainError,
    EulerViolation,
    InconsistentInvariants,
    InternalInconsistency,
    InvalidForm,
    NumericContradiction,
)
from p3dist.exterior import (
    ExtForm,
    contract,
    exterior_derivative,
    radial_field,
    wedge,
)
from p3dist.grammar import parse_poly
from p3dist.groebner import Ideal, _engine_ideal
from p3dist.hilbert import dimension_degree, hilbert, numerator_from_terms
from p3dist.linalg import _dims, compute_tF
from p3dist.poly import Poly, X0, X1, X2, X3

from conftest import make_rng, random_poly
from maxorder import ROWS, linear_field, oneform


def pencil_form(f, g):
    """deg(f)*f*dg - deg(g)*g*df, as the radial contraction of df ^ dg."""
    df = exterior_derivative(ExtForm.from_function(f))
    dg = exterior_derivative(ExtForm.from_function(g))
    return contract(radial_field(), wedge(df, dg))


def test_validate_degrees(nullcorrelation, example1, example2):
    assert dist.validate_oneform(nullcorrelation)[0] == 0
    assert dist.validate_oneform(example1)[0] == 3
    assert dist.validate_oneform(example2)[0] == 3


def test_validate_rejects_euler_violation():
    with pytest.raises(EulerViolation):
        dist.validate_oneform(ExtForm.one_form(X0, X1, X2, X3))


def test_validate_rejects_common_factor():
    # x0 * (x1 dx0 - x0 dx1)
    with pytest.raises(DivisorialSingularity):
        dist.validate_oneform(
            ExtForm.one_form(X0 * X1, -X0 * X0, Poly.zero(), Poly.zero())
        )


def test_validate_rejects_wrong_grade_and_zero():
    with pytest.raises(InvalidForm):
        dist.validate_oneform(ExtForm.from_function(X0))
    with pytest.raises(InvalidForm):
        dist.validate_oneform(ExtForm(1))


def test_singular_scheme_examples(nullcorrelation, pencil_of_planes):
    assert dist.singular_scheme(nullcorrelation).is_unit()
    assert dist.singular_scheme(pencil_of_planes) == Ideal((X0, X1))


def test_example1_invariants(example1):
    sing, chern = dist.invariants(example1)
    assert (sing.degC, sing.pa, sing.lenU) == (10, 12, 3)
    assert chern.as_tuple() == (-1, 1, 3)


def test_example2_invariants(example2):
    sing, chern = dist.invariants(example2)
    assert (sing.degC, sing.pa, sing.lenU) == (9, 10, 6)
    assert chern.as_tuple() == (-1, 2, 6)


def test_nullcorrelation_report(nullcorrelation):
    r = dist.classify(nullcorrelation)
    assert r.regular
    assert r.chern.as_tuple() == (2, 2, 0)
    assert r.tF == 1 and r.h0_at_tF == 5
    assert not r.integrable
    assert r.stability.klass == "stable"
    assert r.split_type is None


def test_classify_validates_once(example1, monkeypatch):
    calls = {"validate_oneform": 0, "common_factor": 0, "hilbert": 0}

    def counting(name):
        real = getattr(dist, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(dist, name, counting(name))
    dist.classify(example1)
    # a valid form has a singular scheme of dimension < 2, so no gcd is
    # taken; the Hilbert data read during validation is passed on
    assert calls == {"validate_oneform": 1, "common_factor": 0, "hilbert": 1}


def test_curve_invariants_checks():
    # a degree-1 distribution (s = 1, delta = 3, so lenU = 5 when there is
    # no curve) cannot be singular along 4 points only, and a plane is
    # rejected only with its factor
    four_points = Ideal(tuple(
        Poly.variable(i) * Poly.variable(j) for i in range(4) for j in range(i + 1, 4)
    ))
    with pytest.raises(InconsistentInvariants, match="isolated length 4"):
        dist.curve_invariants(four_points, 1, 3)
    with pytest.raises(DivisorialSingularity, match=r"factor x0$"):
        dist.curve_invariants(Ideal((X0 * X1, X0 * X2)), 1, 3)
    # consistent input cannot reach this branch: the ideal of a line is
    # given the Hilbert data of a plane
    line = _engine_ideal(Ideal((X1, X2))._basis(), hilbert(Ideal((X0,))))
    with pytest.raises(InconsistentInvariants, match="without a common factor"):
        dist.curve_invariants(line, 1, 3)


def test_integrability(nullcorrelation, example1, example2, pencil_of_planes):
    assert not dist.is_integrable(nullcorrelation)
    assert not dist.is_integrable(example1)
    assert not dist.is_integrable(example2)
    assert dist.is_integrable(pencil_of_planes)


def test_pencil_splits(pencil_of_planes):
    r = dist.classify(pencil_of_planes)
    assert r.degree == 0
    assert r.tF == 0
    assert r.split_type == (1, 1)
    assert r.stability.klass == "split"


def test_split_with_negative_c2_warns():
    omega = pencil_form(X0, parse_poly("y^3 + z^3 + x*y*z"))
    r = dist.classify(omega)
    assert r.degree == 2
    assert r.tF == 0
    assert r.split_type == (1, -1)
    assert r.chern.c2 == -1
    assert r.notes  # negative-c2 warning recorded
    assert r.stability.klass == "split"


def test_split_test_numeric():
    # pencil of planes: Chern (2,1,0), tF = 0: 1 + 2*(-1) + 1 = 0
    assert dist.split_test(0, ChernTriple(2, 1, 0)) == (1, 1)
    # example 1 values: nonsplit
    assert dist.split_test(1, ChernTriple(-1, 1, 3)) is None
    # null correlation: nonsplit
    assert dist.split_test(1, ChernTriple(2, 2, 0)) is None


def test_split_test_contradiction_guard():
    with pytest.raises(NumericContradiction):
        dist.split_test(1, ChernTriple(1, 0, 0))


def test_split_is_checked_against_the_numerator(pencil_of_planes):
    # a printed split O(a) + O(b) has h0(T_F(t - 1)) = R(a + t - 1) +
    # R(b + t - 1) at every twist t <= d + 1, read from the numerator of the
    # coefficient ideal; one more in degree 2d + 2 moves h0 at t = d + 1
    # only, above t_F, and classify raises there
    splits = [pencil_of_planes, pencil_form(X0, parse_poly("y^3 + z^3 + x*y*z")),
              oneform("distinct", 3, 1)]
    for form in splits:
        omega = ExtForm.one_form(*form.one_form_coeffs())
        assert dist.classify(omega).stability.klass == "split"
        omega = ExtForm.one_form(*form.one_form_coeffs())
        d, _ = exterior.checked_oneform(omega)
        ideal = exterior.coefficient_ideal(omega)
        h = hilbert(ideal)
        forged = numerator_from_terms([*enumerate(h.numerator), (2 * d + 2, 1)])
        object.__setattr__(ideal, "_hilbert", h._replace(numerator=forged))
        with pytest.raises(InternalInconsistency, match=f"h0 at twist {d + 1} is"):
            dist.classify(omega)


def test_classification_families(example1, example2):
    r1 = dist.classify(example1)
    assert (r1.stability.klass, r1.stability.order) == ("unstable", 1)
    assert r1.stability.max_order_flag and r1.stability.family == 1
    r2 = dist.classify(example2)
    assert (r2.stability.klass, r2.stability.order) == ("unstable", 1)
    assert r2.stability.max_order_flag and r2.stability.family == 2


def test_unstable_iff_bound(example1, example2, nullcorrelation):
    # nonsplit reports: unstable exactly when d >= 3 and tF <= (d-2+eps)/2
    for omega in (example1, example2, nullcorrelation):
        r = dist.classify(omega)
        eps = r.degree % 2
        cond = r.degree >= 3 and 1 <= r.tF <= (r.degree - 2 + eps) // 2
        assert (r.stability.klass == "unstable") == cond
        if r.stability.klass == "unstable":
            assert r.stability.order == (r.degree + eps) // 2 - r.tF


def test_regular_iff_no_singular_parts(nullcorrelation, example1):
    for omega in (nullcorrelation, example1):
        r = dist.classify(omega)
        assert r.regular == (r.sing.degC == 0 and r.sing.lenU == 0)
        assert r.regular == r.sing.sat_ideal.is_unit()


def test_isolated_subfoliation_forces_split(pencil_of_planes, example1):
    # a minimal section whose foliation has only isolated singularities
    # can only occur for split tangent sheaves
    rp = dist.classify(pencil_of_planes)
    sing_g = foliation.sing_scheme_v(rp.minimal_section)
    assert dimension_degree(sing_g)[0] <= 0
    assert rp.split_type is not None
    # contrapositive on a nonsplit case: the section's singular scheme
    # must have a curve part
    r1 = dist.classify(example1)
    assert r1.split_type is None
    assert dimension_degree(foliation.sing_scheme_v(r1.minimal_section))[0] == 1


def test_subfoliation_singularities_contain_distribution_ones(pencil_of_planes):
    rp = dist.classify(pencil_of_planes)
    sing_g = foliation.sing_scheme_v(rp.minimal_section)
    sing_f = dist.singular_scheme(pencil_of_planes)
    assert all(sing_g.contains(g) for g in sing_f.gens)


EXPECTED_TABLE = [
    [(1, 1), None, None, None],
    [(1, 0), None, None, None],
    [(1, -1), (0, 0), None, None],
    [(1, -2), (0, -1), None, None],
    [(1, -3), (0, -2), (-1, -1), None],
    [(1, -4), (0, -3), (-1, -2), None],
    [(1, -5), (0, -4), (-1, -3), (-2, -2)],
]


def test_table1():
    assert dist.table1(6) == EXPECTED_TABLE
    with pytest.raises(DomainError):
        dist.table1(-1)
    assert len(dist.table1(dist.TABLE1_DMAX)) == dist.TABLE1_DMAX + 1
    with pytest.raises(DomainError, match="TABLE1_DMAX"):
        dist.table1(dist.TABLE1_DMAX + 1)


# The per-parity thresholds and the split rule as the classification first
# stated them for T_F, kept here as the oracle of the rules read from c1 and
# the first twist with a section, called at d = 2 - c1; their messages name
# c1 and t as the rules do.
def _threshold_stability(degree, tF, split, chern):
    eps = degree % 2
    if split is not None:
        return (eps, "split", 0, False, None)
    if degree >= 3 and 1 <= tF <= (degree - 2 + eps) // 2:
        family = None
        if tF == 1:
            if chern.as_tuple() == (2 - degree, 1, degree):
                family = 1
            elif chern.as_tuple() == (2 - degree, 2, 2 * degree):
                family = 2
        return (eps, "unstable", (degree + eps) // 2 - tF, tF == 1, family)
    if eps == 0:
        if tF >= degree // 2 + 1:
            return (eps, "stable", 0, False, None)
        if tF == degree // 2:
            return (eps, "strictly-semistable", 0, False, None)
    elif tF >= (degree + 1) // 2:
        return (eps, "stable", 0, False, None)
    raise InconsistentInvariants(
        f"nonsplit sheaf with c1={2 - degree}, t={tF} fits no stability class"
    )


def _threshold_split_test(tF, chern, degree):
    if chern.c2 + chern.c1 * (tF - 1) + (tF - 1) ** 2 != 0:
        return None
    if degree < 2 * tF:
        raise NumericContradiction(f"split test passed with c1={2 - degree} > 2 - 2t={2 - 2 * tF}")
    return (1 - tF, 1 + tF - degree)


def _outcome(f, *args):
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


def test_stability_and_split_rules_on_a_grid():
    # d = 0..39 (c1 = 2 - d), tF = -3..44, the two family triples, a near
    # miss and the triple whose twisted c2 vanishes at tF, each split and
    # nonsplit
    cases = 0
    for d in range(40):
        for t in range(-3, 45):
            for c2, c3 in ((1, d), (2, 2 * d), (1, 2 * d), ((d - 2) * (t - 1) - (t - 1) ** 2, 0)):
                chern = ChernTriple(2 - d, c2, c3)
                assert _outcome(dist.split_test, t, chern) == \
                    _outcome(_threshold_split_test, t, chern, d)
                for split in (None, (1 - t, 1 + t - d)):
                    got = _outcome(dist._stability, t, split, chern)
                    if isinstance(got, dist.StabilityVerdict):
                        got = (got.epsilon, got.klass, got.order, got.max_order_flag, got.family)
                    assert got == _outcome(_threshold_stability, d, t, split, chern)
                    cases += 1
    assert cases == 15360
    for d_max in range(40):
        assert dist.table1(d_max) == [
            [None if d < 2 * t else (1 - t, 1 + t - d) for t in range(d_max // 2 + 1)]
            for d in range(d_max + 1)
        ]


def test_split_test_against_the_twisted_c2():
    # split_test reads the Serre side, c2 of `_section_chern` on no curve;
    # the oracle types c2(F(tF - 1)) = c2 + c1(tF - 1) + (tF - 1)^2 = 0
    cases = vanishing = 0
    for t in range(-3, 9):
        for c1 in range(-12, 5):
            for c2 in range(-15, 25):
                chern = ChernTriple(c1, c2, 0)
                got = _outcome(dist.split_test, t, chern)
                assert got == _outcome(_threshold_split_test, t, chern, 2 - c1)
                cases += 1
                vanishing += got is not None  # a split or a contradiction
    assert (cases, vanishing) == (8160, 134)


# h0(N*(k)), k = 1..4, of a degree-1 field, by its case
CONORMAL_H0 = {
    "stable-points": [0, 0, 4, 14],
    "semistable-line": [0, 1, 6, 17],
    "split-skew-or-double": [0, 2, 8, 20],
}
CONORMAL_CLASS = {
    "stable-points": "stable",
    "semistable-line": "strictly-semistable",
    "split-skew-or-double": "split",
}


def test_degree1_trichotomy_is_the_class_of_the_conormal_sheaf():
    # N* of a degree-1 field is the kernel sheaf (s, delta) = (-1, 0), with
    # c1 = -4; its first twist with a section, read by `_dims` on the
    # numerator of the minors J from t = 2, goes to the split test and the
    # class, which name the case of `foliation._DEGREE1_CASES`
    fields = [corpus.load_vfield(name) for name in corpus.corpus_names()["vfields"]]
    fields += [linear_field(row) for row in sorted(ROWS)]
    cases = set()
    for v in fields:
        report = foliation.analyze(v)
        assert report.degree == 1
        cases.add(report.degree1_case)
        numerator = hilbert(Ideal(exterior.minors_against_radial(v))).numerator
        h0 = [_dims(numerator, -1, 0, t).h0 for t in range(2, 6)]
        assert h0 == CONORMAL_H0[report.degree1_case]
        t = next(t for t in range(2, 6) if h0[t - 2] > 0)
        split = dist.split_test(t, report.chern)
        verdict = dist._stability(t, split, report.chern)
        assert verdict.klass == CONORMAL_CLASS[report.degree1_case], (v, verdict)
        assert split == ((-2, -2) if verdict.klass == "split" else None)
    assert cases == set(CONORMAL_CLASS)


def test_splitruim_invariants():
    assert dist.splitruim_invariants(0) == (1, 0)
    assert dist.splitruim_invariants(1) == (6, 3)
    # cross-check against the general degC formula at d = 2t, c2 = -t^2+2
    for t in range(0, 5):
        d = 2 * t
        c2_split = (1 - t) * (1 + t - d)
        assert dist.splitruim_invariants(t)[0] == d * d + 2 - c2_split
    # the closed form of the curve of T_F = O(1 - t)^2
    for t in range(31):
        assert dist.splitruim_invariants(t) == (3 * t * t + 2 * t + 1, t * (5 * t * t - t - 1))
    with pytest.raises(DomainError):
        dist.splitruim_invariants(-1)


def test_line_family_invariants():
    assert dist.line_family_invariants(3, 1).as_tuple() == (-1, 1, 3)
    assert dist.line_family_invariants(2, 1).as_tuple() == (0, 1, 2)
    assert dist.line_family_invariants(0, 1).as_tuple() == (2, 1, 0)
    # the closed form of a section of T_F(t - 1) vanishing on a line
    for d in range(40):
        for t in range(d // 2 + 2):
            assert dist.line_family_invariants(d, t).as_tuple() == (
                2 - d, -t * t + d * (t - 1) + 2, d - 2 * (t - 1))
    with pytest.raises(DomainError):
        dist.line_family_invariants(1, 3)


def test_chern_c1_always_2_minus_d():
    rng = make_rng(97)
    checked = 0
    while checked < 12:
        f = random_poly(rng, 1)
        g = random_poly(rng, rng.randint(1, 2))
        if f.is_zero() or g.is_zero():
            continue
        omega = pencil_form(f, g)
        try:
            d, _, _ = dist.validate_oneform(omega)
        except Exception:
            continue
        _, chern = dist.invariants(omega)
        assert chern.c1 == 2 - d
        checked += 1


def test_classify_checks_its_form_once(example1, monkeypatch):
    # validate_oneform checks the form; compute_tF and is_integrable reuse
    # the degree and the integer multiples the form keeps. Fresh forms, as
    # the fixture may have been checked already.
    calls = []
    real = exterior.oneform_degree

    def counting(omega):
        calls.append(omega)
        return real(omega)

    monkeypatch.setattr(exterior, "oneform_degree", counting)
    dist.classify(ExtForm.one_form(*example1.one_form_coeffs()))
    assert len(calls) == 1
    # each public function checks a form it has not seen
    fresh = ExtForm.one_form(*example1.one_form_coeffs())
    assert not dist.is_integrable(fresh) and len(calls) == 2
    assert compute_tF(fresh)[0] == 1 and len(calls) == 2
    assert compute_tF(ExtForm.one_form(*example1.one_form_coeffs()))[0] == 1
    assert len(calls) == 3
