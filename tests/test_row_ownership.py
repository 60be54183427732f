"""The fraction-free step changes the row it is given
(`poly.fraction_free_step`), so each reduction steps a copy of its row that
it made on entry. No caller's rows may change: every entry point below runs
on inputs deep-copied beforehand and compared afterwards."""

from copy import deepcopy
from fractions import Fraction

import pytest

from p3dist import cli, corpus, foliation, groebner, linalg
from p3dist.distribution import classify
from p3dist.exterior import _rows_of, checked_oneform, coefficient_ideal
from p3dist.groebner import Ideal, normal_form
from p3dist.poly import X0, X1, X2, X3

from conftest import make_rng, random_nonzero_poly
from maxorder import ROWS, oneform


def unchanged(call, *args, **kwargs):
    """call(*args, **kwargs), asserting that it left its arguments as they were."""
    before = deepcopy((args, kwargs))
    result = call(*args, **kwargs)
    assert (args, kwargs) == before
    return result


def forms():
    """The corpus 1-forms and one maximal-order form of each row at d = 3."""
    return ([corpus.load_oneform(n) for n in corpus.corpus_names()["oneforms"]]
            + [oneform(row, 3, seed=1) for row in sorted(ROWS)])


def test_engine_leaves_its_inputs_unchanged():
    rng = make_rng(83)
    ideals = [coefficient_ideal(omega) for omega in forms()]
    # generators with Fraction coefficients enter the engine too
    ideals += [Ideal(tuple(random_nonzero_poly(rng, rng.randint(1, 2), nterms=3)
                           * Fraction(1, rng.randint(2, 5)) for _ in range(3)))
               for _ in range(10)]
    for I in ideals:
        rows = list(I._rows)
        minimal = unchanged(groebner._buchberger_terms, rows, lower=I._lower)
        unchanged(groebner._buchberger_terms, groebner._mod_p_rows(rows, groebner.PRIME),
                  groebner.PRIME, cap=6, lower=I._lower)
        reduced = unchanged(groebner._reduced_basis, minimal)
        for k in (1, 2):
            l_k = dict(zip(groebner._VARS, (k, k * k, k ** 3, 1)))
            unchanged(groebner._signature_terms, reduced, {**groebner._extend(l_k), 0: -1})
        kept = deepcopy(I._basis())
        for p in (X0 * X1 - X2 * X3, X3 ** 3 + 2 * X0 * X1 * X2):
            normal_form(p, I)
        assert I._basis() == kept


@pytest.mark.parametrize("omega", forms())
def test_analysis_leaves_the_checked_rows_unchanged(omega):
    d, coeffs = checked_oneform(omega)
    before = deepcopy((coeffs, coefficient_ideal(omega)._rows))
    for dprime in range(d + 2):
        unchanged(linalg._section, coeffs, d, dprime)
    classify(omega)
    assert (coeffs, coefficient_ideal(omega)._rows) == before


def test_analysis_leaves_the_parsed_rows_unchanged():
    # a parsed form or field keeps the rows its parse scaled, which every
    # analysis reads and none may change; the field of a minimal section
    # keeps the scan's rows, which the reports print
    names = corpus.corpus_names()
    for name in names["oneforms"]:
        omega = corpus.load_oneform(name)
        before = deepcopy(_rows_of(omega))
        report = classify(omega)
        section = deepcopy(_rows_of(report.minimal_section))
        cli.dist_report_doc(report)
        cli._subfoliation_doc(omega)
        assert (_rows_of(omega), _rows_of(report.minimal_section)) == (before, section)
    for name in names["vfields"]:
        v = corpus.load_vfield(name)
        before = deepcopy(_rows_of(v))
        cli.foliation_report_doc(foliation.analyze(v))
        foliation.contraction_check(v, corpus.load_oneform("example1"))
        assert _rows_of(v) == before
