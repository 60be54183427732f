"""The Buchberger run against the run it replaced (`buchberger_oracle`):
the run enters every generator before forming a pair, Gauss-Jordan over
QQ, pushes no pair of a degree the bound already fills and tests the
Gebauer-Moller B criterion at pop. It reduces the same S-polynomials, so
on every input the leading terms, the count of normal forms and the count
of zero remainders are the oracle's, and over QQ so are the rows of the
reduced basis. The inputs are the random saturation cases, the
maximal-order rows at d = 3-5 over QQ and mod p capped at d + 2 and
2d + 2, the forty sections forms of seeds 1-10 as `compute_tF` runs them,
and every run the benchmark's ops make at seed 1."""

import json
import os
import sys
from fractions import Fraction

import pytest

import p3dist
from p3dist import groebner
from p3dist.exterior import coefficient_ideal
from p3dist.poly import Poly, monomials_of_degree, primitive_row

import buchberger_oracle
import echelon
import maxorder
from conftest import make_rng
from test_groebner import random_saturation_cases
from test_modular_run import sections_forms


@pytest.fixture
def reductions(monkeypatch):
    """The outcome of each `_normal_form_terms` call, True for a nonzero
    remainder, appended as the calls are made."""
    log, real = [], groebner._normal_form_terms

    def counting(f, basis, p):
        r = real(f, basis, p)
        log.append(bool(r))
        return r

    monkeypatch.setattr(groebner, "_normal_form_terms", counting)
    return log


def agree(reductions, rows, p=None, **kwargs):
    """Run the engine and the oracle on rows; both must give the same
    leading terms, normal forms and zero remainders, and over QQ the same
    reduced basis."""
    del reductions[:]
    got = groebner._buchberger_terms(rows, p, **kwargs)
    counts = len(reductions), reductions.count(False)
    del reductions[:]
    expected = buchberger_oracle.buchberger_terms(rows, p, **kwargs)
    assert sorted(map(max, got)) == sorted(map(max, expected))
    assert counts == (len(reductions), reductions.count(False))
    if p is None:
        assert groebner._reduced_basis(got) == groebner._reduced_basis(expected)
    return counts


def test_random_and_maxorder_runs_against_the_oracle(reductions):
    for I in random_saturation_cases():
        agree(reductions, list(I._rows))
    zeros = 0
    for row in sorted(maxorder.ROWS):
        for d in (3, 4, 5):
            I = coefficient_ideal(maxorder.oneform(row, d, seed=1))
            zeros += agree(reductions, I._rows, lower=I._lower)[1]
            modular = groebner._mod_p_rows(I._rows, groebner.PRIME)
            for cap in (d + 2, 2 * d + 2):
                agree(reductions, modular, groebner.PRIME, cap=cap, lower=I._lower)
    assert zeros  # the full runs reduce S-polynomials to zero


def test_sections_runs_against_the_oracle(reductions):
    for omega in sections_forms():
        I = coefficient_ideal(omega)
        agree(reductions, groebner._mod_p_rows(I._rows, groebner.PRIME), groebner.PRIME,
              cap=2 * 2 + 2, lower=I._lower)


def test_benchmark_runs_against_the_oracle(monkeypatch, reductions, benchmark_inputs):
    # every run that the worker's ops make on the seed-1 inputs of the four
    # workloads: the minors of the fields, coefficient ideals over QQ and
    # mod p, and the eliminations of the gcd
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                    os.pardir, "perfbench"))
    import worker

    runs, real = [], groebner._buchberger_terms

    def recording(gens, p=None, **kwargs):
        runs.append(([dict(g) for g in gens], p, kwargs))
        return real(gens, p, **kwargs)

    monkeypatch.setattr(groebner, "_buchberger_terms", recording)
    inputs = json.loads(benchmark_inputs.read_text(encoding="utf-8"))
    for workload, seeds in inputs.items():
        for kind, doc in seeds["1"]:
            try:
                worker.OPS[kind](json.dumps(doc), worker._NoTrace())
            except p3dist.P3DistError:
                pass
    monkeypatch.setattr(groebner, "_buchberger_terms", real)
    assert {p for _, p, _ in runs} == {None, groebner.PRIME} and len(runs) > 100
    for rows, p, kwargs in runs:
        agree(reductions, rows, p, **kwargs)


def _rref(rows):
    """The reduced row echelon form of packed rows of one degree, largest
    monomial first, each row primitive with a positive leading entry: the
    rows, made integer and keyed by -monomial, through the tests' own
    integer elimination."""
    pivots = echelon._pivot_rows([{-m: c for m, c in primitive_row(row).items()} for row in rows])
    return sorted((groebner._engine_form({-k: c for k, c in row.items()}, None)
                   for _, row in pivots), key=max)


def test_one_degree_generators_enter_as_their_rref():
    # generators of one degree come out of the Gauss-Jordan entry as their
    # RREF: no row holds another row's leading term, so the reduced basis
    # keeps them as they are. Later elements have higher degrees and leave
    # the rows of that degree alone
    rng = make_rng(54)
    for n in range(40):
        degree, count = 2 + n % 2, 3 + n % 5
        mons = monomials_of_degree(degree)
        gens = [Poly({m: rng.randint(-4, 4) for m in rng.sample(mons, rng.randint(3, 8))})
                for _ in range(count)]
        if n % 3 == 0:  # a dependent generator, and Fractions
            gens.append(gens[0] * 3 - gens[1] * Fraction(1, 2))
        rows = [groebner._packed(g.terms) for g in gens if not g.is_zero()]
        run = groebner._buchberger_terms(rows)
        low = sorted((g for g in run if groebner._degree(max(g)) == degree), key=max)
        lts = {max(g) for g in low}
        assert all(not lts & (g.keys() - {max(g)}) for g in low)
        assert low == _rref(rows)
        assert groebner._reduced_basis(run)[:len(low)] == low
