"""Riemann-Roch behind the two Chern formulas, `distribution._chern` and
`distribution._section_chern`.

T_F = ker(T_P3 -> I_Z(d + 2)) and N* = ker(Omega^1 -> I_Z(d' - 1)) are both
F = ker(E -> I_Z(delta)) with c(E) = (1 + sH)^4. For a rank-2 sheaf on P3,
chi(F) = (c1^3 - 3 c1 c2 + 3 c3)/6 + c1^2 - 2 c2 + 11 c1/6 + 2, and F(k)
has the classes c1 + 2k, c2 + c1 k + k^2 and c3. The sequence gives
chi(F(k)) = 4R(k + s) - R(k) - R(k + delta) + HP(k + delta), R(n) =
C(n + 3, 3) as a polynomial in n and HP the Hilbert polynomial of Z,
degC*n + 1 - pa + lenU. A section of F(t - 1) vanishing on a curve Z gives
0 -> O -> F(t - 1) -> I_Z(c1 + 2t - 2) -> 0 and its own identity. The grids
check both identities on the formulas; the corpus and the maximal-order
forms check the first on printed triples, and the generic corpus log types
on the triple predicted from their degrees, where past the regularity chi
is the h0 that the section spaces count.
"""

from fractions import Fraction

import pytest

from p3dist import corpus
from p3dist import distribution as dist
from p3dist import foliation as fol
from p3dist import logarithmic as log
from p3dist.exterior import checked_oneform, coefficient_ideal
from p3dist.hilbert import hilbert
from p3dist.linalg import _dims

from maxorder import ROWS, oneform


def _binom3(n):
    """C(n + 3, 3) as a polynomial in n, so also for negative n."""
    return (n + 1) * (n + 2) * (n + 3) // 6


def _chi(chern, k):
    """chi(F(k)) of a rank-2 sheaf F on P3 with the Chern triple chern."""
    c1, c2, c3 = chern
    c1, c2 = c1 + 2 * k, c2 + c1 * k + k * k
    return (Fraction(c1 ** 3 - 3 * c1 * c2 + 3 * c3, 6) + c1 ** 2 - 2 * c2
            + Fraction(11 * c1, 6) + 2)


def test_chern_formula_satisfies_riemann_roch():
    cases = 0
    for s in (1, -1):
        for delta in range(-1, 14):
            for degc in range(8):
                for pa in range(-3, 6):
                    chern = dist._chern(s, delta, degc, pa)
                    for k in range(-5, 8):
                        hp = degc * (k + delta) + 1 - pa + chern.c3
                        assert _chi(chern, k) == (4 * _binom3(k + s) - _binom3(k)
                                                  - _binom3(k + delta) + hp)
                        cases += 1
    assert cases == 28080


def test_section_chern_satisfies_riemann_roch():
    # 0 -> O -> F(t - 1) -> I_Z(m) -> 0, m = c1 + 2t - 2, twisted by k:
    # chi(F(t - 1 + k)) = R(k) + R(m + k) - HP_Z(m + k), HP_Z(n) = degZ*n + 1 - pa
    cases = 0
    for c1 in range(-12, 5):
        for t in range(7):
            m = c1 + 2 * t - 2
            for degz in range(7):
                for pa in range(-3, 6):
                    chern = dist._section_chern(c1, t, degz, pa)
                    for k in range(-5, 8):
                        assert _chi(chern, t - 1 + k) == (_binom3(k) + _binom3(m + k)
                                                          - (degz * (m + k) + 1 - pa))
                        cases += 1
    assert cases == 97461


def _assert_form_chi(omega, chern):
    """chi(T_F(t - 1)) of the triple against the h0 that `linalg._dims`
    reads at twist t, four twists past the degree of the numerator of R/I."""
    d, _ = checked_oneform(omega)
    numerator = hilbert(coefficient_ideal(omega)).numerator
    t = len(numerator) + 3
    assert _chi(chern, t - 1) == _dims(numerator, 1, d + 2, t).h0


@pytest.mark.parametrize("name", corpus.corpus_names()["oneforms"])
def test_printed_form_triples_give_h0(name):
    omega = corpus.load_oneform(name)
    _assert_form_chi(omega, dist.classify(omega).chern)


@pytest.mark.parametrize("name", corpus.corpus_names()["logtypes"])
def test_log_triples_give_h0(name):
    # on a generic type the printed curve is `_curve`'s, and the triple
    # predicted from it gives h0 too; the tangent pencil is not generic
    log_type = corpus.load_logtype(name)
    omega = log.build_log_form(log_type)
    report = dist.classify(omega)
    _assert_form_chi(omega, report.chern)
    curve = log._curve(log_type.degrees)
    if name == "quadric_pencil_tangent":
        assert (report.sing.degC, report.sing.pa) == (6, 3) != curve
    else:
        assert (report.sing.degC, report.sing.pa) == curve
        _assert_form_chi(omega, dist._chern(1, sum(log_type.degrees), *curve))


@pytest.mark.parametrize("d", (3, 4))
@pytest.mark.parametrize("row", sorted(ROWS))
def test_maximal_order_triples_give_h0(row, d):
    # `classify` prints the triple that `_oneform_numbers` reads; the
    # saturation, which it does not need, is left out
    omega = oneform(row, d, seed=1)
    _assert_form_chi(omega, dist._oneform_numbers(omega)[2])


@pytest.mark.parametrize("name", corpus.corpus_names()["vfields"])
def test_printed_field_triples_give_h0(name):
    # h0(N*(s)) = h0(Omega^1(s)) - dim J_(s + d' - 1), J the saturated ideal
    # of Z, once s is past the regularity: `_dims` at (-1, d' - 1), t = s + 1
    report = fol.analyze(corpus.load_vfield(name))
    numerator = hilbert(report.sing.sat_ideal).numerator
    s = len(numerator) + 3
    assert _chi(report.chern, s) == _dims(numerator, -1, report.degree - 1, s + 1).h0
