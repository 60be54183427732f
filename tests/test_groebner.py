import json
import os
import sys
from fractions import Fraction
from math import gcd

import pytest

from p3dist import cli, corpus, distribution, foliation, groebner
from p3dist.errors import NonTermination
from p3dist.exterior import (
    ExtForm, VField, checked_oneform, coefficient_ideal, minors_against_radial,
)
from p3dist.grammar import format_poly, parse_poly
from p3dist.logarithmic import audit_log_form, build_log_form
from p3dist.groebner import (
    Ideal,
    buchberger,
    colon,
    divide_exact,
    intersect,
    leading_monomials_mod_p,
    normal_form,
    saturate,
    saturate_iterated_colon,
    saturate_single,
)
from p3dist.hilbert import hilbert, hilbert_from_numerator
from p3dist.poly import Poly, X0, X1, X2, X3, grevlex_key, monomials_of_degree

from conftest import make_rng, random_nonzero_poly
from hilbert_oracle import numerator as oracle_numerator
from maxorder import ROWS, oneform
from test_foliation import random_linear_field

# the sparse-forms workload's inputs, read from perfbench/run.py
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "perfbench"))
import run as perfbench_run  # noqa: E402


def P(s):
    return parse_poly(s)


def test_known_basis_contains_syzygy_element():
    I = Ideal((X0 ** 2 - X1 * X2, X0 * X1))
    # x1^2*x2 = x1*(x0^2 - x1*x2)*(-1) + x0*(x0*x1) lies in the ideal
    assert I.contains(X1 ** 2 * X2)
    assert (0, 2, 1, 0) in I.leading_monomials()


def test_membership_example():
    I = Ideal((P("x^3+y^3+z^3"), P("x*y*z+w^3")))
    assert I.contains(P("w*(x^3+y^3+z^3)"))
    assert not I.contains(P("w^3"))
    assert not I.contains(P("x^3"))


def test_gb_idempotent():
    rng = make_rng(51)
    for _ in range(30):
        gens = tuple(random_nonzero_poly(rng, rng.randint(1, 3)) for _ in range(3))
        gb1 = buchberger(Ideal(gens))
        gb2 = buchberger(Ideal(gb1))
        assert gb1 == gb2


def test_membership_soundness_random():
    # random ideal-combinations of the generators always reduce to zero
    rng = make_rng(53)
    count = 0
    while count < 120:
        gens = tuple(random_nonzero_poly(rng, rng.randint(1, 2)) for _ in range(3))
        I = Ideal(gens)
        combo = Poly.zero()
        for g in gens:
            combo = combo + random_nonzero_poly(rng, rng.randint(0, 2)) * g
        assert normal_form(combo, I).is_zero()
        count += 1


def test_normal_form_is_canonical():
    I = Ideal((X0 ** 2 - X1 * X2, X0 * X1))
    p = X0 ** 2 + X0 * X1 + X3
    q = p + (X0 ** 2 - X1 * X2) * X2
    assert normal_form(p, I) == normal_form(q, I)


def test_unit_and_zero_ideals():
    assert Ideal((X0, X0 + Poly.constant(1))).is_unit()
    assert Ideal(()).is_zero()
    assert not Ideal((X0,)).is_unit()
    # the given generators, zeros dropped, are read back unscaled
    f, g = Poly.constant(Fraction(1, 2)) * X0 - X1 * Fraction(2, 3), X2 * X3
    assert Ideal((f, Poly.zero(), g)).gens == (f, g)
    assert repr(Ideal((f, Poly.zero(), g))) == "Ideal(1/2*x0 - 2/3*x1, x2*x3)"


def test_divide_exact():
    f = P("x^2 - y^2")
    g = P("x + y")
    assert divide_exact(f, g) == P("x - y")
    with pytest.raises(ValueError):
        divide_exact(P("x^2 + y"), g)


def test_divide_exact_rational_multiples():
    rng = make_rng(109)
    for _ in range(30):
        f = random_nonzero_poly(rng, rng.randint(0, 2)) * Fraction(rng.randint(1, 9),
                                                                    rng.randint(2, 7))
        q = random_nonzero_poly(rng, rng.randint(0, 3)) * Fraction(-rng.randint(1, 9),
                                                                    rng.randint(2, 7))
        assert divide_exact(f * q, f) == q


def test_colon_examples():
    # ((x0) : x0) = (1); ((x0*x1) : x0) = (x1)
    assert colon(Ideal((X0,)), X0).is_unit()
    assert colon(Ideal((X0 * X1,)), X0) == Ideal((X1,))
    # mixed: ((x0^2, x0*x1) : x0) = (x0, x1)
    assert colon(Ideal((X0 ** 2, X0 * X1)), X0) == Ideal((X0, X1))


def test_intersect_principal():
    I = intersect(Ideal((X0,)), Ideal((X1,)))
    assert I == Ideal((X0 * X1,))
    # lcm of overlapping products
    J = intersect(Ideal((X0 * X1,)), Ideal((X1 * X2,)))
    assert J == Ideal((X0 * X1 * X2,))


def test_intersect_membership_random():
    rng = make_rng(59)
    for _ in range(25):
        f = random_nonzero_poly(rng, 1)
        g = random_nonzero_poly(rng, 1)
        I, J = Ideal((f,)), Ideal((g,))
        K = intersect(I, J)
        for gen in K.gens:
            assert I.contains(gen) and J.contains(gen)


def test_elimination_runs_buchberger_once(monkeypatch):
    # the t-free part of the block-order basis is already the reduced
    # grevlex basis, so intersect and saturate_single run one Buchberger
    calls = []
    engine = groebner._buchberger_terms

    def counting(*args):
        calls.append(args)
        return engine(*args)

    rng = make_rng(61)
    for _ in range(10):
        common = random_nonzero_poly(rng, 1)
        f = common * random_nonzero_poly(rng, 1)
        g = common * random_nonzero_poly(rng, 2)
        I = Ideal((f, X0 * X1))
        for op, args in ((intersect, (I, Ideal((g,)))), (saturate_single, (I, X0 + X2))):
            monkeypatch.setattr(groebner, "_buchberger_terms", counting)
            calls.clear()
            result = op(*args)
            assert len(calls) == 1
            monkeypatch.setattr(groebner, "_buchberger_terms", engine)
            assert result.gens == Ideal(result.gens).groebner() == result.groebner()


def test_saturate_point_blowup():
    I = Ideal((X0 ** 2, X0 * X1, X0 * X2, X0 * X3))
    S = saturate(I)
    assert S == Ideal((X0,))


def test_saturation_methods_agree():
    # the auxiliary-variable elimination vs the iterated colon
    cases = [
        Ideal((X0 ** 2, X0 * X1, X0 * X2, X0 * X3)),
        Ideal((X0 * X1, X0 * X2, X1 * X2, X2 ** 2 - X1 * X3)),
        Ideal((P("x^2 - y*z"), P("x*y"), P("x*w^2"))),
    ]
    for I in cases:
        for v in (X0, X1, X2, X3):
            b = saturate_single(I, v)
            c = saturate_iterated_colon(I, v)
            assert b == c


def test_saturate_contains_and_fixpoint():
    rng = make_rng(61)
    count = 0
    while count < 100:
        gens = tuple(random_nonzero_poly(rng, rng.randint(1, 2)) for _ in range(3))
        I = Ideal(gens)
        S = saturate(I)
        # I is contained in its saturation
        assert S.contains_ideal(I)
        # saturating again changes nothing
        assert saturate(S) == S
        # an ideal the engine made is generated by its monic reduced basis
        assert S.gens == S.groebner()
        count += 1


def _saturate_oracle(I):
    """I : m^infinity as the intersection of the four variable saturations."""
    result = saturate_single(I, X0)
    for v in (X1, X2, X3):
        result = intersect(result, saturate_single(I, v))
    return result


def random_saturation_cases():
    rng = make_rng(67)
    cases = []
    for _ in range(50):
        gens = []
        for _ in range(rng.randint(2, 3)):
            g = random_nonzero_poly(rng, rng.randint(1, 2), nterms=3)
            if rng.random() < 0.5:
                # a linear factor puts a plane among the associated
                # primes; the plane (x3) makes l_0 = x3 fail the check
                g = g * random_nonzero_poly(rng, 1, nterms=2)
            gens.append(g)
        cases.append(Ideal(tuple(gens)))
    return cases


def test_saturate_irrelevant_against_oracle():
    cases = random_saturation_cases()
    names = corpus.corpus_names()
    for name in names["oneforms"]:
        cases.append(Ideal(corpus.load_oneform(name).one_form_coeffs()))
    for name in names["vfields"]:
        cases.append(Ideal(minors_against_radial(corpus.load_vfield(name))))
    for name in names["logtypes"]:
        cases.append(Ideal(build_log_form(corpus.load_logtype(name)).one_form_coeffs()))
    for I in cases:
        assert saturate(I) == _saturate_oracle(I)


def test_saturation_computes_no_colon_numerator(monkeypatch):
    # the certificate reads leading terms alone: saturate computes no Hilbert
    # numerator and leaves the data I holds as it is; hilbert(sat) is read
    # once, when asked, from sat's own leading terms
    real = groebner._lt_numerator
    calls = []

    def counting(lts):
        calls.append(None)
        return real(lts)

    monkeypatch.setattr(groebner, "_lt_numerator", counting)
    # x3 * (x0, x1) has the plane (x3) among its primes, so l_0 = x3 fails
    example2 = Ideal(corpus.load_oneform("example2").one_form_coeffs())
    for I in [Ideal((X0 * X3, X1 * X3)), example2] + random_saturation_cases():
        calls.clear()
        sat = saturate(I)
        assert calls == [] and I._hilbert is None
        h = hilbert(sat)
        assert hilbert(sat) is h and len(calls) == 1
        assert h.numerator == oracle_numerator(sat.leading_monomials())
        data = hilbert(I)
        calls.clear()
        saturate(I)
        assert calls == [] and I._hilbert is data


def _colon_leading_terms(I, k, run):
    """The leading terms of the colon I : l_k that `saturate` tries, from
    the basis of I and, for k >= 1, the signature run it made."""
    reduced = I._basis()
    if k:
        return [groebner._unpack(max(g)) for g in groebner._t_free(run)]
    return [tuple(a - (i == 3) * min(groebner._unpack(m)[3] for m in g)
                  for i, a in enumerate(groebner._unpack(max(g)))) for g in reduced]


def _sparse_form_ideals():
    return [coefficient_ideal(cli.parse_input(json.dumps(item["doc"])))
            for seed in (1, 2, 3) for item in perfbench_run.build_items("sparse-forms", seed)]


# the inputs on which the saturation's k >= 1 step runs: the maxorder rows,
# the sparse-forms workload and the random cases
saturation_inputs = pytest.mark.parametrize("ideals", (
    lambda: [coefficient_ideal(oneform(row, d, seed=1)) for row in sorted(ROWS) for d in (3, 4, 5)],
    _sparse_form_ideals,
    random_saturation_cases,
), ids=("maxorder", "sparse-forms", "random"))


@saturation_inputs
def test_leading_term_certificate_is_the_hilbert_polynomial_test(monkeypatch, ideals):
    # every colon saturate tries is rejected but the last, and that verdict
    # of its leading-term certificate is the verdict of the Hilbert
    # polynomial, computed by the tuple oracle: HP(colon) = HP(I)
    runs = []
    signature_run = groebner._signature_terms

    def recording_run(done, f):
        assert len(runs) < 6, "no l_k accepted for k <= 6"
        runs.append(signature_run(done, f))
        return runs[-1]

    monkeypatch.setattr(groebner, "_signature_terms", recording_run)
    accepted_at = set()
    for I in ideals():
        runs.clear()
        sat = saturate(I)
        if sat._rows is I._basis():
            continue  # x3 divides no element: the colon is I
        target = hilbert_from_numerator(oracle_numerator(I.leading_monomials())).hp_coeffs
        tried = [_colon_leading_terms(I, k, run) for k, run in enumerate([None, *runs])]
        hp = [hilbert_from_numerator(oracle_numerator(lts)).hp_coeffs == target for lts in tried]
        assert hp == [False] * len(runs) + [True]
        accepted_at.add(len(runs))
    # each input set has a colon rejected, and every input one accepted
    assert accepted_at and max(accepted_at) >= 1


def _engine_basis(I):
    return groebner._reduced_basis(
        groebner._buchberger_terms([groebner._packed(g.terms) for g in I.gens]))


def _linear_form(k):
    """l_k = k*x0 + k^2*x1 + k^3*x2 + x3, the k-th form `saturate` tries."""
    return k * X0 + k * k * X1 + k ** 3 * X2 + X3


def _eliminations_agree(I, k):
    """The k >= 1 elimination of `saturate`, the signature run from the
    finished basis of I, against the Buchberger run that re-derives every
    pair within it. Only a t-free leading term divides a t-free monomial, so
    tail-reducing the t-free rows alone gives the t-free part of the reduced
    basis."""
    reduced = _engine_basis(I)
    rabinowitsch = {**groebner._extend(groebner._packed(_linear_form(k).terms)), 0: -1}
    unseeded = groebner._buchberger_terms(reduced + [rabinowitsch])
    oracle = groebner._t_free(groebner._reduced_basis(unseeded))
    assert groebner._reduced_basis(groebner._t_free(unseeded)) == oracle
    seeded = groebner._reduced_basis(
        groebner._t_free(groebner._signature_terms(reduced, rabinowitsch)))
    assert groebner._engine_ideal(seeded).groebner() == groebner._engine_ideal(oracle).groebner()


def test_seeded_elimination_matches_the_unseeded_run():
    cases = list(_random_ideals(25)) + random_saturation_cases()[:25]
    cases += [Ideal(oneform(row, 3, seed=1).one_form_coeffs()) for row in sorted(ROWS)]
    for I in cases:
        for k in (1, 2, 3):
            _eliminations_agree(I, k)


@saturation_inputs
def test_signature_run_reduces_nothing_to_zero(monkeypatch, ideals):
    # f = t*l - 1 is a non-zero-divisor modulo I, so F5's criterion against
    # the leading terms of I drops every syzygy, and no J-pair of the k >= 1
    # step reduces to zero; each input set runs that step at least once
    runs, forms = [], []
    run, regular_form = groebner._signature_terms, groebner._regular_form

    def counting_run(done, f):
        runs.append(f)
        return run(done, f)

    def recording_form(*args):
        forms.append(regular_form(*args))
        return forms[-1]

    monkeypatch.setattr(groebner, "_signature_terms", counting_run)
    monkeypatch.setattr(groebner, "_regular_form", recording_form)
    for I in ideals():
        saturate(I)
    assert runs and forms
    assert sum(not r for r in forms) == 0


def test_two_rejected_linear_forms(monkeypatch):
    # P*m for the prime P = (x3, x0 + x1 + x2): l_0 = x3 and l_1, whose
    # x3-free part is x0 + x1 + x2, lie in P, so the signature run from the
    # basis of I runs for k = 1 and for k = 2, which is accepted
    prime = Ideal((X3, X0 + X1 + X2))
    I = Ideal(tuple(g * v for g in prime.gens for v in (X0, X1, X2, X3)))
    calls = []
    engine, signature_run = groebner._buchberger_terms, groebner._signature_terms

    def counting(*args, **kwargs):
        calls.append(None)
        return engine(*args, **kwargs)

    def counting_run(done, f):
        calls.append(done)
        return signature_run(done, f)

    monkeypatch.setattr(groebner, "_buchberger_terms", counting)
    monkeypatch.setattr(groebner, "_signature_terms", counting_run)
    sat = saturate(I)
    monkeypatch.undo()
    assert sat == prime
    # one basis of I, then two eliminations that start from it
    assert len(calls) == 3 and calls[0] is None and calls[1] is calls[2] is not None
    for k in (1, 2):
        _eliminations_agree(I, k)


def _colon_by_x3(I):
    """The k = 0 step as a colon: each element of the basis of I divided by
    its largest power of x3, minimalized and tail-reduced, with its Hilbert
    data; and whether x3 divides any element."""
    reduced = _engine_basis(I)
    x3es = [groebner._pack((0, 0, 0, min(groebner._unpack(m)[3] for m in g))) for g in reduced]
    colon = groebner._reduced_basis(
        [{m - e: c for m, c in g.items()} for g, e in zip(reduced, x3es)])
    lts = [groebner._unpack(max(g)) for g in colon]
    return (groebner._engine_ideal(colon).groebner(),
            hilbert_from_numerator(oracle_numerator(lts)), any(x3es))


def test_x3_free_basis_returns_the_ideal():
    # when x3 divides no element of the basis, I : x3^inf = I: the early
    # return gives the colon route's basis, with whatever data I holds
    # (none, or I's own where it was read first), and its Hilbert data is
    # the colon route's
    fields = [corpus.load_vfield(name) for name in corpus.corpus_names()["vfields"]]
    rng = make_rng(109)
    fields += [random_linear_field(rng) for _ in range(40)]
    returned = 0
    for n, v in enumerate(fields):
        minors = minors_against_radial(v)
        if all(m.is_zero() for m in minors):
            continue
        I = Ideal(minors)
        basis, data, divides = _colon_by_x3(I)
        if n % 2:
            hilbert(I)
        sat = saturate(I)
        if not divides:
            returned += 1
            assert sat.groebner() == basis and I._hilbert is sat._hilbert
            assert hilbert(sat) == data
    assert returned >= 20


def test_no_poly_is_built_on_the_way_into_the_engine(monkeypatch):
    # a field's minors and a 1-form's coefficients reach the engine as
    # integer rows, and the saturated basis becomes Polys only when read.
    # x3 * (x1 dx0 - x0 dx1) and x3 * (x0, 2x1, 3x2, 4x3) have the plane x3
    # among their primes, so l_0 = x3 fails there and l_1 is built too.
    built, runs = [], []
    init, engine, signature_run = Poly.__init__, groebner._buchberger_terms, groebner._signature_terms

    def counting_init(self, terms=None):
        built.append(terms)
        init(self, terms)

    def counting_engine(*args, **kwargs):
        runs.append(None)
        return engine(*args, **kwargs)

    def counting_run(done, f):
        runs.append(done)
        return signature_run(done, f)

    fields = [corpus.load_vfield(name) for name in corpus.corpus_names()["vfields"]]
    fields.append(VField([X3 * X0, 2 * X3 * X1, 3 * X3 * X2, 4 * X3 * X3]))
    omegas = [corpus.load_oneform(name) for name in corpus.corpus_names()["oneforms"]]
    omegas.append(ExtForm.one_form(X1 * X3, -X0 * X3, Poly.zero(), Poly.zero()))
    monkeypatch.setattr(groebner, "_buchberger_terms", counting_engine)
    monkeypatch.setattr(groebner, "_signature_terms", counting_run)
    for scheme, inputs in ((foliation.sing_scheme_v, fields),
                           (distribution.singular_scheme, omegas)):
        for x in inputs:
            monkeypatch.setattr(Poly, "__init__", counting_init)
            sat = scheme(x)
            assert built == []
            assert sat.gens and built
            monkeypatch.setattr(Poly, "__init__", init)
            built.clear()
    assert sum(done is not None for done in runs) >= 2
    # saturate keeps the basis of the coefficient ideal on it
    runs.clear()
    for omega in omegas:
        coefficient_ideal(omega).leading_monomials()
    assert runs == []


def test_saturate_retries_linear_forms_in_associated_primes():
    L = X0 + X1 + X2 + X3
    I = Ideal(tuple(X3 * L * v for v in (X0, X1, X2, X3)))
    # l_0 = x3 and l_1 = L each lie in an associated prime: their colons
    # lose a component, so both must be rejected
    assert saturate_single(I, X3) == Ideal((L,))
    assert saturate_single(I, L) == Ideal((X3,))
    assert saturate(I) == Ideal((X3 * L,))


def test_intersect_with_principal_linear():
    I = intersect(Ideal((X1 - X2,)), Ideal((X0,)))
    assert I == Ideal((X0 * (X1 - X2),))


def _in_engine_form(row, p=None):
    """Monic mod p; over QQ integral and primitive with a positive leading
    coefficient."""
    lc = row[max(row)]
    if p:
        return lc == 1 and all(0 < c < p for c in row.values())
    return lc > 0 and all(type(c) is int for c in row.values()) and gcd(*row.values()) == 1


def test_every_kept_row_is_in_engine_form(monkeypatch):
    # the step leaves the content in, so each row the engine keeps is put in
    # its form where it is kept: the elements a run returns, over QQ, mod p
    # capped (the run of hilbert_numerator) and mod p in full (the --mod-p
    # check), and the basis of a saturation by either route
    runs = []
    engine = groebner._buchberger_terms

    def recording(gens, p=None, **kwargs):
        rows = engine(gens, p, **kwargs)
        runs.append((p, kwargs.get("cap"), rows))
        return rows

    monkeypatch.setattr(groebner, "_buchberger_terms", recording)
    # example2 saturates at k = 0 by dividing out x3, the two lines at k = 1
    forms = [corpus.load_oneform("example2")] + [oneform(row, 4, seed=1) for row in sorted(ROWS)]
    ideals = [Ideal(omega.one_form_coeffs()) for omega in forms] + [Ideal((X0 * X3, X1 * X3))]
    for I in ideals:
        sat = saturate(I)
        assert all(_in_engine_form(g) for g in sat._basis())
        leading_monomials_mod_p(I, 32003)
        leading_monomials_mod_p(sat, 32003)
    for omega in forms:
        omega = ExtForm.one_form(*omega.one_form_coeffs())
        groebner.hilbert_numerator(coefficient_ideal(omega), 2 * checked_oneform(omega)[0] + 2)
    assert {(p, cap is None) for p, cap, _ in runs} == {(None, True), (32003, False), (32003, True)}
    for p, _, rows in runs:
        assert rows and all(_in_engine_form(g, p) for g in rows)


def test_scaled_generators_give_the_same_basis():
    # content is divided out where a row is kept, so a common factor of
    # the generators, however large, leaves no trace in the basis
    for name in corpus.corpus_names()["oneforms"]:
        gens = corpus.load_oneform(name).one_form_coeffs()
        I, scaled = Ideal(gens), Ideal(tuple(3 * 2 ** 64 * g for g in gens))
        assert scaled._basis() == I._basis()
        assert scaled.groebner() == I.groebner()


def test_mod_p_leading_terms_agree():
    I = Ideal((P("x^2 - y*z"), P("x*y - z*w"), P("y^2 - x*w")))
    rational = tuple(sorted(I.leading_monomials(), key=grevlex_key))
    modular = leading_monomials_mod_p(I, 32003)
    assert modular == rational


def test_mod_p_denominator_blowup_raises():
    # given Fraction generators, and the monic basis of x0 + x1/32003
    # that the --mod-p check reads
    for I in (Ideal((Poly.constant(Fraction(1, 32003)) * X0,)),
              Ideal(saturate(Ideal((32003 * X0 + X1,))).groebner())):
        with pytest.raises(ZeroDivisionError):
            leading_monomials_mod_p(I, 32003)


def test_nontermination_guard():
    with pytest.raises(NonTermination):
        saturate_iterated_colon(Ideal((X0,)), X0, cap=0)


def test_mod_p_drops_coefficients_divisible_by_p():
    # 32003*x1*x3 is zero mod 32003; kept as a zero term it becomes a
    # leading term during reduction and cannot be made monic
    I = Ideal((X0 * X2 + 32003 * X1 * X3, X1 * X2 - X0 * X3, X2 ** 2))
    assert leading_monomials_mod_p(I, 32003) == leading_monomials_mod_p(
        Ideal((X0 * X2, X1 * X2 - X0 * X3, X2 ** 2)), 32003
    )
    assert leading_monomials_mod_p(Ideal((32003 * X0,)), 32003) == ()


def _random_ideals(count):
    rng = make_rng(71)
    for _ in range(count):
        yield Ideal(tuple(
            random_nonzero_poly(rng, rng.randint(1, 3), nterms=3)
            for _ in range(rng.randint(2, 3))
        ))


def test_buchberger_against_sympy():
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols("x0:4")

    def to_sympy(p):
        return sympy.Poly.from_dict(
            {m: sympy.Rational(c.numerator, c.denominator) for m, c in p.terms.items()},
            *xs, domain="QQ",
        ).as_expr()

    for I in _random_ideals(40):
        exprs = [to_sympy(g) for g in I.gens]
        expected = set()
        for g in sympy.groebner(exprs, *xs, order="grevlex").exprs:
            g = sympy.Poly(g, *xs, domain="QQ")
            lc = g.coeffs(order="grevlex")[0]
            expected.add(Poly({
                m: Fraction(int((c / lc).p), int((c / lc).q)) for m, c in g.terms()
            }))
        assert set(buchberger(I)) == expected

        modular = sympy.groebner(exprs, *xs, order="grevlex", modulus=32003)
        leading = [sympy.Poly(g, *xs, modulus=32003).monoms(order="grevlex")[0]
                   for g in modular.exprs]
        assert leading_monomials_mod_p(I, 32003) == tuple(sorted(leading, key=grevlex_key))


def _to_sympy(sympy, xs, p):
    return sympy.Poly.from_dict(
        {m: sympy.Rational(c.numerator, c.denominator) for m, c in p.terms.items()},
        *xs, domain="QQ",
    ).as_expr()


def _from_sympy(sympy, xs, expr):
    g = sympy.Poly(expr, *xs, domain="QQ")
    return Poly({m: Fraction(int(c.p), int(c.q)) for m, c in g.terms()})


def test_buchberger_against_sympy_rational_inhomogeneous():
    # coefficients with denominators and generators of mixed degree make
    # the fraction-free reduction clear denominators and meet every degree
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols("x0:4")
    rng = make_rng(73)
    for _ in range(30):
        gens = []
        for _ in range(rng.randint(2, 3)):
            g = Poly.zero()
            for deg in rng.sample(range(4), rng.randint(1, 3)):
                g = g + random_nonzero_poly(rng, deg, nterms=2) * Fraction(
                    rng.randint(1, 9), rng.randint(2, 9)
                )
            gens.append(g)
        I = Ideal(gens)
        expected = set()
        for g in sympy.groebner([_to_sympy(sympy, xs, g) for g in I.gens],
                                *xs, order="grevlex").exprs:
            g = _from_sympy(sympy, xs, g)
            expected.add(Poly({m: c / g.terms[max(g.terms, key=grevlex_key)]
                               for m, c in g.terms.items()}))
        assert set(buchberger(I)) == expected


def test_mod_p_small_primes_against_sympy():
    # at p = 2, 3, 5, 7 input coefficients and intermediate ones vanish
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols("x0:4")
    for prime in (2, 3, 5, 7):
        for I in _random_ideals(15):
            basis = sympy.groebner([_to_sympy(sympy, xs, g) for g in I.gens],
                                   *xs, order="grevlex", modulus=prime)
            leading = [sympy.Poly(g, *xs, modulus=prime).monoms(order="grevlex")[0]
                       for g in basis.exprs if g != 0]
            assert leading_monomials_mod_p(I, prime) == tuple(
                sorted(leading, key=grevlex_key)
            ), (prime, I)


def test_intersect_principal_against_sympy_lcm():
    # (f) meet (g) = (lcm(f, g)); common factors make the lcm proper
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols("x0:4")
    rng = make_rng(79)
    for _ in range(15):
        common = random_nonzero_poly(rng, rng.randint(0, 1), nterms=3)
        f = common * random_nonzero_poly(rng, rng.randint(1, 2), nterms=3)
        g = common * random_nonzero_poly(rng, 1, nterms=3)
        lcm = sympy.lcm(_to_sympy(sympy, xs, f), _to_sympy(sympy, xs, g))
        assert intersect(Ideal((f,)), Ideal((g,))) == Ideal((_from_sympy(sympy, xs, lcm),))


@pytest.fixture(scope="module")
def report_ideals():
    """The sat_ideal that `analyze`, `analyze-vf` and `log-audit` print for
    every corpus document, by name."""
    names = corpus.corpus_names()
    return {
        **{n: distribution.classify(corpus.load_oneform(n)).sing.sat_ideal
           for n in names["oneforms"]},
        **{n: foliation.analyze(corpus.load_vfield(n)).sing.sat_ideal for n in names["vfields"]},
        **{n: audit_log_form(corpus.load_logtype(n)).dist_report.sing.sat_ideal
           for n in names["logtypes"]},
    }


def test_reports_print_engine_made_ideals(report_ideals):
    # the report prints the reduced basis, which `gens` also gives only on an
    # ideal the engine made (else the given generators)
    assert len(report_ideals) == 10
    for name, ideal in report_ideals.items():
        assert ideal._rows is ideal._reduced, name


def test_basis_strings_print_the_monic_reduced_basis(report_ideals):
    ideals = list(report_ideals.values())
    ideals += [distribution.validate_oneform(oneform(row, d, 1))[1].sat_ideal
               for row in ROWS for d in (3, 4)]
    # leading coefficients other than 1, c/lc integral and not (-3/9 and 4/2
    # reduce by a gcd), negative leading and inner terms, +-1 with and without a
    # monomial, the unit ideal and the zero ideal
    for gens in (("2x0^2 - 3x1*x2 + x3^2", "x0*x1 - 5/3*x2^2"),
                 ("-2x0 - 4x1 + x2", "-3x1^2 + 6x2*x3 - 2x3^2"),
                 ("x0^2 - x1", "x1*x2 + 1", "x3 - 1"),
                 ("1",), ()):
        ideals.append(Ideal(tuple(map(P, gens))))
    for ideal in ideals:
        assert ideal.basis_strings() == [format_poly(g) for g in ideal.groebner()]
    assert ideals[-2].basis_strings() == ["1"] and ideals[-1].basis_strings() == []
    assert ideals[-5].basis_strings()[-1] == "x1^2*x2 - 10/9*x0*x2^2 - 1/3*x1*x3^2"


def _reduced_basis_oracle(G):
    """The reduced basis as `groebner._reduced_basis` built it before its
    ascending pass, kept as its oracle: minimalize by a quadratic scan,
    keeping the first row of a repeated leading term, then reduce each
    minimal row by all the others."""
    lts = [max(g) for g in G]
    minimal = sorted((
        (lt, g) for idx, (lt, g) in enumerate(zip(lts, G))
        if not any(
            not (lt2 - lt) & groebner._GUARDS and (lt2 != lt or jdx < idx)
            for jdx, lt2 in enumerate(lts) if jdx != idx
        )
    ), key=lambda t: t[0])
    return [groebner._engine_form(
                groebner._normal_form_terms(g, minimal[:pos] + minimal[pos + 1:], None), None)
            for pos, (_, g) in enumerate(minimal)]


def _same_leading_term(rows):
    """Another row with the largest leading term of the engine polys rows:
    that row plus a multiple of the row of least leading term whose leading
    term lies below it; None where there is none."""
    low, top = min(rows, key=max), max(rows, key=max)
    shift = groebner._degree(max(top)) - groebner._degree(max(low))
    for m in map(groebner._pack, monomials_of_degree(shift)):
        if m + max(low) < max(top):
            out = dict(top)
            for k, c in low.items():
                out[k + m] = out.get(k + m, 0) + c
            return {k: c for k, c in out.items() if c}
    return None


def test_reduced_basis_against_the_oracle(monkeypatch, report_ideals):
    # the ascending pass gives the oracle's rows on every call the engine
    # makes on these inputs: Ideal._basis, both routes of saturate and the
    # elimination of saturate_single
    real, inputs = groebner._reduced_basis, []

    def checked(G):
        rows = real(G)
        assert rows == _reduced_basis_oracle(G)
        inputs.append(G)
        return rows

    monkeypatch.setattr(groebner, "_reduced_basis", checked)
    cases = random_saturation_cases()
    cases += [coefficient_ideal(oneform(row, d, seed=1)) for row in sorted(ROWS) for d in (3, 4, 5)]
    for I in cases:
        saturate(I)
    for I in cases[:10]:
        saturate_single(I, X0 + X3)
    # the printed ideals, run again from their monic generators, and their
    # rows, already reduced, which the pass keeps as they are
    for ideal in report_ideals.values():
        assert Ideal(ideal.gens)._basis() == ideal._basis()
        assert checked(list(ideal._basis())) == ideal._basis()
    # a repeated leading term, the row that has it first or last: the
    # reduced basis is unique, so either row gives it
    repeated = 0
    for I in cases:
        minimal = groebner._buchberger_terms(list(I._rows))
        other = _same_leading_term(minimal)
        if other is not None:
            repeated += 1
            assert checked([other, *minimal]) == checked([*minimal, other]) == real(minimal)
    assert repeated > len(cases) // 2
    # the k = 0 step's shifted rows, a Groebner basis that need not be
    # minimal (their leading terms are distinct, as those of I's basis
    # divide none of one another)
    del inputs[:]
    for I in cases:
        _colon_by_x3(I)
    assert any(len(groebner._minimal(max(g) for g in G)) < len(G) for G in inputs)
