"""Acceptance suite. Each test covers one pinned criterion and prints a
single PASS/FAIL line; budgets are wall-clock upper bounds."""

import sys
import time
from contextlib import contextmanager

from p3dist import cli, corpus, distribution, foliation, logarithmic
from p3dist.errors import ValidationError
from p3dist.exterior import (
    ExtForm,
    VField,
    contract,
    exterior_derivative,
    radial_field,
    wedge,
)
from p3dist.grammar import parse_poly
from p3dist.groebner import Ideal, buchberger, intersect, normal_form, saturate
from p3dist.hilbert import hilbert
from p3dist.linalg import compute_tF
from p3dist.poly import Poly, X0, X1, X2, X3

from conftest import make_rng, random_nonzero_poly, random_poly, record_acceptance


@contextmanager
def criterion(num, label, budget=None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        record_acceptance(f"CRITERION {num}: FAIL - {label}")
        raise
    elapsed = time.monotonic() - start
    if budget is not None and elapsed > budget:
        record_acceptance(
            f"CRITERION {num}: FAIL - {label} (over budget: {elapsed:.1f}s)"
        )
        raise AssertionError(f"criterion {num} exceeded {budget}s: {elapsed:.1f}s")
    record_acceptance(f"CRITERION {num}: PASS - {label} ({elapsed:.1f}s)")


def P(s):
    return parse_poly(s)


def test_criterion_1_degree3_example_family1(example1):
    with criterion(1, "degree-3 reference form lands in family 1", budget=60):
        r = distribution.classify(example1)
        assert r.degree == 3
        assert r.chern.as_tuple() == (-1, 1, 3)
        assert (r.sing.degC, r.sing.pa, r.sing.lenU) == (10, 12, 3)
        assert r.tF == 1
        assert r.split_type is None
        assert r.stability.klass == "unstable"
        assert r.stability.order == 1
        assert r.stability.max_order_flag
        assert r.stability.family == 1
        # the curve part: complete intersection of two cubics, plus a line
        target = intersect(
            Ideal((P("x^3+y^3+z^3"), P("x*y*z+w^3"))),
            Ideal((P("y"), P("w"))),
        )
        assert all(target.contains(g) for g in r.sing.sat_ideal.gens)


def test_criterion_2_degree3_example_family2(example2):
    with criterion(2, "degree-3 reference form lands in family 2", budget=60):
        r = distribution.classify(example2)
        assert r.degree == 3
        assert r.chern.as_tuple() == (-1, 2, 6)
        assert (r.sing.degC, r.sing.lenU) == (9, 6)
        assert r.tF == 1
        assert r.stability.family == 2
        # curve part is the complete intersection of the two cubics
        ci = Ideal((P("x^3+y^3+z^3"), P("x*y*z+w^3")))
        assert all(ci.contains(g) for g in r.sing.sat_ideal.gens)


def test_criterion_3_null_correlation(nullcorrelation):
    with criterion(3, "null-correlation form is regular and stable", budget=5):
        r = distribution.classify(nullcorrelation)
        assert r.regular
        assert r.sing.sat_ideal.is_unit()
        assert r.chern.as_tuple() == (2, 2, 0)
        assert r.tF == 1
        assert r.h0_at_tF == 5
        assert not r.integrable
        assert r.stability.klass == "stable"


def test_criterion_4_degree1_trichotomy():
    with criterion(4, "degree-1 field trichotomy plus 200 random fields",
                   budget=120):
        fixtures = {
            "four_points": ((0, 6, 4), "stable-points"),
            "line_plus_points": ((1, 5, 2), "semistable-line"),
            "double_line": ((2, 4, 0), "split-skew-or-double"),
        }
        for name, (triple, case) in fixtures.items():
            r = foliation.analyze(corpus.load_vfield(name))
            assert (r.sing.degC, r.chern.c2, r.chern.c3) == triple
            assert r.degree1_case == case
        # singular-scheme shapes
        four = foliation.sing_scheme_v(corpus.load_vfield("four_points"))
        assert four == Ideal(tuple(
            Poly.variable(i) * Poly.variable(j)
            for i in range(4) for j in range(i + 1, 4)
        ))
        double = foliation.sing_scheme_v(corpus.load_vfield("double_line"))
        assert double == Ideal((X0 ** 2, X0 * X1, X1 ** 2, X0 * X3 - X1 * X2))

        rng = make_rng(211)
        classified = 0
        while classified < 200:
            entries = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)]
            comps = []
            for row in entries:
                p = Poly.zero()
                for j, c in enumerate(row):
                    if c:
                        p = p + c * Poly.variable(j)
                comps.append(p)
            try:
                r = foliation.classify_degree1(VField(comps))
            except ValidationError:
                continue
            assert r.degree1_case is not None
            classified += 1


def test_criterion_5_hilbert_engine():
    with criterion(5, "Hilbert polynomials of reference schemes"):
        assert hilbert(Ideal((X0, X1))).hp_string() == "t + 1"
        ci = hilbert(Ideal((P("x^3+y^3+z^3"), P("x*y*z+w^3"))))
        assert ci.hp_string() == "9*t - 9"
        cubic = hilbert(Ideal((
            X0 * X2 - X1 ** 2, X1 * X3 - X2 ** 2, X0 * X3 - X1 * X2
        )))
        assert cubic.hp_string() == "3*t + 1"


EXPECTED_TABLE1_CELLS = [
    ["O(1)⊕O(1)", "×", "×", "×"],
    ["O(1)⊕O", "×", "×", "×"],
    ["O(1)⊕O(-1)", "O⊕O", "×", "×"],
    ["O(1)⊕O(-2)", "O⊕O(-1)", "×", "×"],
    ["O(1)⊕O(-3)", "O⊕O(-2)", "O(-1)⊕O(-1)", "×"],
    ["O(1)⊕O(-4)", "O⊕O(-3)", "O(-1)⊕O(-2)", "×"],
    ["O(1)⊕O(-5)", "O⊕O(-4)", "O(-1)⊕O(-3)", "O(-2)⊕O(-2)"],
]


def test_criterion_6_split_table():
    with criterion(6, "split-type table for d <= 6"):
        assert cli.render_table1(6) == EXPECTED_TABLE1_CELLS


def test_criterion_7_logarithmic_audit():
    with criterion(7, "type-(2,2) logarithmic audit", budget=60):
        audit = logarithmic.audit_log_form(corpus.load_logtype("quadric_pencil"))
        assert audit.integrable
        assert audit.actual_degC == 4 == audit.expected_degC
        assert audit.actual_lenU == 4 == audit.expected_lenU
        assert not audit.non_generic


def _random_oneform(rng, degree):
    return ExtForm.one_form(*(random_poly(rng, degree) for _ in range(4)))


def test_criterion_8_property_suites(example1, example2, nullcorrelation):
    with criterion(8, "randomized property suites"):
        rng = make_rng(223)

        # exterior calculus identities, 100+ cases each
        for _ in range(100):
            a = _random_oneform(rng, rng.randint(1, 3))
            b = _random_oneform(rng, rng.randint(0, 2))
            assert (wedge(a, b) + wedge(b, a)).is_zero()
            assert exterior_derivative(exterior_derivative(a)).is_zero()
            f = random_poly(rng, rng.randint(1, 3))
            f0 = ExtForm.from_function(f)
            lhs = exterior_derivative(wedge(f0, a))
            rhs = wedge(exterior_derivative(f0), a) + wedge(
                f0, exterior_derivative(a)
            )
            assert (lhs - rhs).is_zero()
            d = rng.randint(1, 4)
            g = random_poly(rng, d)
            euler = contract(
                radial_field(), exterior_derivative(ExtForm.from_function(g))
            )
            assert euler.coeffs[()] == d * g

        # Groebner idempotence and membership soundness, 100 cases
        for _ in range(100):
            gens = tuple(
                random_nonzero_poly(rng, rng.randint(1, 2)) for _ in range(3)
            )
            I = Ideal(gens)
            gb = buchberger(I)
            assert buchberger(Ideal(gb)) == gb
            combo = Poly.zero()
            for g in gens:
                combo = combo + random_nonzero_poly(rng, rng.randint(0, 1)) * g
            assert normal_form(combo, I).is_zero()

        # saturation fixpoint, 100 cases
        for _ in range(100):
            gens = tuple(
                random_nonzero_poly(rng, rng.randint(1, 2)) for _ in range(2)
            )
            s = saturate(Ideal(gens))
            assert saturate(s) == s
            assert s.contains_ideal(Ideal(gens))

        # tF <= d + 1 on 100 random valid forms of degree <= 3
        checked = 0
        while checked < 100:
            deg = rng.choice((0, 0, 1, 1, 1, 2, 2, 3))
            eta = ExtForm(2, {
                idx: random_poly(rng, deg, nterms=2, coeff_range=3)
                for idx in eta_indices()
            })
            omega = contract(radial_field(), eta)
            try:
                d, _, _ = distribution.validate_oneform(omega)
            except ValidationError:
                continue
            tF, _, _ = compute_tF(omega)
            assert tF <= d + 1
            checked += 1

        # nonstability order formula on the nonsplit corpus reports
        for omega in (example1, example2, nullcorrelation):
            r = distribution.classify(omega)
            assert r.split_type is None
            eps = r.degree % 2
            unstable = r.degree >= 3 and 1 <= r.tF <= (r.degree - 2 + eps) // 2
            assert (r.stability.klass == "unstable") == unstable
            if unstable:
                assert r.stability.order == (r.degree + eps) // 2 - r.tF
            # h0 = 1 whenever d > 2 tF
            if r.degree > 2 * r.tF:
                assert r.h0_at_tF == 1

        # exclusion holds for every logarithmic type with 3 <= d <= 10
        for d in range(3, 11):
            for degrees, excluded in logarithmic.exclusion_sweep(d):
                assert excluded, degrees


def eta_indices():
    from itertools import combinations

    return tuple(combinations(range(4), 2))
