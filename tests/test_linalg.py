from fractions import Fraction
from itertools import combinations
from math import comb
import os
import sys
import time

import pytest

from p3dist import cli, corpus, distribution, groebner, linalg
from p3dist.distribution import common_factor
from p3dist.errors import InternalInconsistency, InvalidForm
from p3dist.exterior import (
    ExtForm,
    VField,
    _koszul_numerator,
    checked_oneform,
    coefficient_ideal,
    contract,
    field_degree,
    minors_against_radial,
    radial_field,
)
from p3dist.grammar import parse_poly
from p3dist.hilbert import hilbert, hilbert_function
from p3dist.linalg import compute_tF, h0_tangent_twist, minimal_section
from p3dist.poly import (
    Poly, X0, X1, X2, X3, dim_graded_piece, integer_multiples, mon_mul, monomials_of_degree,
    primitive_row,
)

import maxorder
from conftest import make_rng, random_nonzero_poly
from echelon import _kernel, _pivot_rows

# the sections workload's forms, read from perfbench/run.py
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "perfbench"))
import run as perfbench_run  # noqa: E402


def fraction_rref(rows):
    """Plain Fraction Gauss-Jordan; independent of the integer elimination.
    Returns (nonzero RREF rows, pivot columns)."""
    m = [[Fraction(c) for c in r] for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        piv = next((r for r in range(rank, nrows) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pr = m[rank]
        pr[:] = [c / pr[col] for c in pr]
        support = [j for j, c in enumerate(pr) if c]
        for r in range(nrows):
            if r != rank and m[r][col]:
                f, row = m[r][col], m[r]
                for j in support:
                    row[j] -= f * pr[j]
        pivots.append(col)
    return m[:len(pivots)], pivots


def gauss_rank(rows):
    return len(fraction_rref(rows)[1])


def fraction_kernel(rows, ncols):
    """RREF kernel basis: one vector per free column, v[free] = 1."""
    m, pivots = fraction_rref(rows)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in zip(m, pivots):
            v[pc] = -r[fc]
        basis.append(v)
    return basis


def sparse_rows(rows):
    """Dense rational rows as the primitive integer sparse rows the
    elimination takes; zero rows stay empty."""
    out = []
    for r in rows:
        row = {j: Fraction(c) for j, c in enumerate(r) if c}
        out.append(primitive_row(row) if row else {})
    return out


def dense(v, ncols):
    return [v.get(j, Fraction(0)) for j in range(ncols)]


def random_matrices(seed, count):
    """Seeded sparse rational matrices, some with dependent or zero rows,
    plus the edge shapes: zero matrix, 1 x n, n x 1."""
    rng = make_rng(seed)
    mats = [[[0, 0, 0], [0, 0, 0]], [[0, 3, -1, 0, 2]], [[2], [0], [Fraction(-1, 3)]],
            [[0]], [[Fraction(5, 7)]]]
    for _ in range(count):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.6 else 0
                 for _ in range(ncols)] for _ in range(nrows)]
        if nrows > 1 and rng.random() < 0.5:
            a, b = rng.randint(-2, 2), Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
        if rng.random() < 0.2:
            rows[rng.randrange(nrows)] = [0] * ncols
        mats.append(rows)
    return mats


def test_rank_against_gaussian_oracle():
    for rows in random_matrices(83, 150):
        assert len(_pivot_rows(sparse_rows(rows))) == gauss_rank(rows)


def test_pivot_rows_are_rref_up_to_scale():
    for rows in random_matrices(79, 100):
        ncols = len(rows[0])
        m, pivots = fraction_rref(rows)
        echelon = _pivot_rows(sparse_rows(rows))
        assert [pc for pc, _ in echelon] == pivots
        for (pc, r), expected in zip(echelon, m):
            assert [Fraction(c, r[pc]) for c in dense(r, ncols)] == expected


def test_kernel_basis_against_fraction_oracle():
    for rows in random_matrices(73, 150):
        ncols = len(rows[0])
        basis = _kernel(_pivot_rows(sparse_rows(rows)), ncols)
        assert [dense(v, ncols) for v in basis] == fraction_kernel(rows, ncols)


def test_kernel_vectors_annihilate():
    rng = make_rng(89)
    for _ in range(50):
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(5)] for _ in range(3)]
        basis = _kernel(_pivot_rows(sparse_rows(rows)), 5)
        assert len(basis) == 5 - gauss_rank(rows)
        for v in basis:
            for r in rows:
                assert sum(a * b for a, b in zip(r, dense(v, 5))) == 0


def test_rref_shape():
    echelon = _pivot_rows(sparse_rows([[2, 4], [1, 2]]))
    assert len(echelon) == 1
    pc, row = echelon[0]
    assert pc == 0 and row == {0: 1, 1: 2}
    assert _kernel(echelon, 2) == [{1: 1, 0: -2}]


def test_nullcorrelation_sections(nullcorrelation):
    s = h0_tangent_twist(nullcorrelation, 1)
    assert (s.raw_kernel_dim, s.radial_dim, s.h0) == (6, 1, 5)
    assert h0_tangent_twist(nullcorrelation, 0).h0 == 0
    tF, section, sdim = compute_tF(nullcorrelation)
    assert tF == 1 and sdim.h0 == 5
    assert contract(section, nullcorrelation).is_zero()


def test_pencil_tF_zero(pencil_of_planes):
    tF, section, sdim = compute_tF(pencil_of_planes)
    assert tF == 0
    assert field_degree(section) == 0
    assert contract(section, pencil_of_planes).is_zero()


def test_minimal_section_is_not_radial(example1):
    tF, section, sdim = compute_tF(example1)
    assert tF == 1 and sdim.h0 == 1
    # the section must not be a polynomial multiple of the radial field
    comps = section.components
    assert any(comps[i] * Poly.variable(j) != comps[j] * Poly.variable(i)
               for i in range(4) for j in range(i + 1, 4))
    assert contract(section, example1).is_zero()


RADIAL = VField([X0, X1, X2, X3])
NOT_IN_KERNEL = VField([X0, Poly.zero(), Poly.zero(), Poly.zero()])


def section_at_one(omega):
    return minimal_section(omega, 1)


# below t_F = d + 1 compute_tF takes its section from minimal_section's
# scan; at d + 1 from the Koszul field; each route passes the certificate
@pytest.mark.parametrize("run, form, route, bad, message", [
    pytest.param(compute_tF, "example1", "_section", RADIAL, "is radial", id="bad0"),
    pytest.param(compute_tF, "example1", "_section", NOT_IN_KERNEL, "does not annihilate",
                 id="bad1"),
    pytest.param(section_at_one, "nullcorrelation", "_section", RADIAL, "is radial",
                 id="minimal_section-bad0"),
    pytest.param(section_at_one, "nullcorrelation", "_section", NOT_IN_KERNEL,
                 "does not annihilate", id="minimal_section-bad1"),
    pytest.param(compute_tF, "nullcorrelation", "_koszul_section", RADIAL, "is radial",
                 id="koszul-bad0"),
    pytest.param(compute_tF, "nullcorrelation", "_koszul_section", NOT_IN_KERNEL,
                 "does not annihilate", id="koszul-bad1"),
])
def test_section_certificate(request, monkeypatch, run, form, route, bad, message):
    # t_F = 1 on example1 (d = 3) and on the null-correlation form (d = 0)
    def section_at(coeffs, d, *dprime):
        return integer_multiples(bad.components)[1]

    omega = request.getfixturevalue(form)
    monkeypatch.setattr(linalg, route, section_at)
    with pytest.raises(InternalInconsistency, match=message):
        run(omega)


def test_invalid_form_rejected():
    bad = ExtForm.one_form(X0, X1, X2, X3)  # contract(R, .) = sum x_i^2 != 0
    with pytest.raises(InvalidForm):
        h0_tangent_twist(bad, 1)


def test_negative_twist():
    s = h0_tangent_twist(ExtForm.one_form(X1, -X0, X3, -X2), -1)
    assert s.h0 == 0


def test_no_section_below_tF(example1):
    assert compute_tF(example1)[0] == 1
    assert minimal_section(example1, 0) is None


def test_minimal_section_deterministic(example1):
    a = minimal_section(example1, 1)
    b = minimal_section(example1, 1)
    assert a == b


def random_dense_form(rng, d, denominators=None):
    """i_R(eta) for a 2-form eta whose coefficients of degree d have every
    monomial, with nonzero numerators in [-3, 3], each over a denominator
    drawn from the given ones if there are any."""
    def coeff():
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        return Fraction(c, rng.choice(denominators)) if denominators else c

    eta = ExtForm(2, {
        ij: Poly({m: coeff() for m in monomials_of_degree(d)})
        for ij in combinations(range(4), 2)
    })
    return contract(radial_field(), eta)


def contraction_matrix(omega, dprime):
    """Dense rows of (F_0, ..., F_3) -> sum A_i F_i on degree-dprime
    quadruples, built from polynomial products, and the column count."""
    cols = [a * Poly.monomial(m) for a in omega.one_form_coeffs()
            for m in monomials_of_degree(dprime)]
    targets = sorted({m for p in cols for m in p.terms})
    return [[p.terms.get(t, 0) for p in cols] for t in targets], len(cols)


def sweep_forms(example1, example2, nullcorrelation, pencil_of_planes):
    """The paper's examples, the null-correlation form (h0 = 5), the pencil
    (t_F = 0), and seeded dense forms of degree 1 and 2 with integer and with
    rational coefficients."""
    rng = make_rng(97)
    forms = ([example1, example2, nullcorrelation, pencil_of_planes]
             + [random_dense_form(rng, 1) for _ in range(3)]
             + [random_dense_form(rng, 2) for _ in range(2)])
    return forms + [random_dense_form(rng, d, (1, 2, 3, 5, 7)) for d in (1, 1, 2)]


def test_compute_tF_matches_step_by_step_sweep(example1, example2, nullcorrelation,
                                                pencil_of_planes):
    forms = sweep_forms(example1, example2, nullcorrelation, pencil_of_planes)
    # coefficients over different denominators, and rational multiples: the
    # sections are built from one integer multiple of the coefficients
    forms += [omega * Fraction(-7, 3) for omega in forms[:2] + forms[-3:]]
    for omega in forms:
        tF, section, sdim = compute_tF(omega)
        assert compute_tF(omega * Fraction(5, 2)) == (tF, section, sdim)
        twist = 0
        while (step := h0_tangent_twist(omega, twist)).h0 == 0:
            twist += 1
        assert (tF, section, sdim) == (twist, minimal_section(omega, twist), step)
        assert contract(section, omega).is_zero()
        # reduced modulo the radial span, whose pivots are the x0*f in F_0
        assert all(m[0] == 0 for m in section.components[0].terms)


def oracle_section(kernel, dprime):
    """The first vector of the RREF kernel basis of the contraction matrix
    at a twist that is not in the radial span, reduced modulo that span, as
    a vector field with primitive integer components; or None."""
    mons = monomials_of_degree(dprime)
    n = len(mons)
    index = {m: k for k, m in enumerate(mons)}
    for v in kernel:
        # the radial row of f is 1 at x_i*f in F_i: clear each x0*f in F_0
        for f in monomials_of_degree(dprime - 1):
            c = v[index[(f[0] + 1,) + f[1:]]]
            for i in range(4):
                v[i * n + index[f[:i] + (f[i] + 1,) + f[i + 1:]]] -= c
        if any(v):
            v = primitive_row({j: c for j, c in enumerate(v) if c})
            return VField([Poly({mons[j % n]: c for j, c in v.items() if j // n == i})
                           for i in range(4)])
    return None


def a0_zero_form():
    """A form with A_0 = 0: eta without dx0, so d/dx0 is a section at twist 0."""
    rng = make_rng(103)
    eta = ExtForm(2, {ij: Poly({m: rng.choice((-2, -1, 1, 3)) for m in monomials_of_degree(1)})
                      for ij in combinations(range(1, 4), 2)})
    return contract(radial_field(), eta)


def test_sections_against_fraction_oracle(example1, example2, nullcorrelation,
                                           pencil_of_planes):
    """h0 at every twist from -1 to d + 2, and the section at t_F and t_F + 1,
    against a Fraction elimination of the contraction matrix, on the forms of
    `sweep_forms`, a form with A_0 = 0, the maximal-order rows at d = 3, and
    a rational multiple of each, whose matrix has the same kernel. The
    section's F_0 has no monomial divisible by x0, as each class modulo the
    radial multiples has one such representative."""
    no_dx0 = a0_zero_form()
    assert no_dx0.one_form_coeffs()[0].is_zero()
    forms = sweep_forms(example1, example2, nullcorrelation, pencil_of_planes) + [no_dx0]
    for omega in forms + [maxorder.oneform(row, 3, 1) for row in sorted(maxorder.ROWS)]:
        d = field_degree(VField(omega.one_form_coeffs())) - 1
        tF, _, _ = compute_tF(omega)
        # on the degree-3 examples only to t_F + 1: a matrix past that takes
        # seconds to eliminate with Fractions
        for dprime in range(-1, (d if d < 3 else tF - 1) + 3):
            rows, ncols = contraction_matrix(omega, dprime)
            # one vector per free column: ncols - gauss_rank(rows) of them
            kernel = fraction_kernel(rows, ncols)
            h0 = len(kernel) - comb(dprime + 2, 3)
            scan = dprime in (tF, tF + 1)
            section = oracle_section(kernel, dprime) if scan else None
            assert section is not None or not scan
            assert not scan or not any(m[0] for m in section.components[0].terms)
            for form in (omega, omega * Fraction(-7, 3)):
                assert h0_tangent_twist(form, dprime).h0 == h0
                if scan:
                    assert minimal_section(form, dprime) == section


def test_h0_at_a_high_twist_builds_no_matrix(nullcorrelation):
    start = time.perf_counter()
    s = h0_tangent_twist(nullcorrelation, 10 ** 4)
    assert time.perf_counter() - start < 1
    # the raw kernel minus the radial multiples stays nonnegative
    assert s.twist == 10 ** 4 and s.h0 >= 0 and s.radial_dim == comb(10 ** 4 + 2, 3)


def fresh(omega):
    """The same 1-form with nothing kept on it yet."""
    return ExtForm.one_form(*omega.one_form_coeffs())


def test_classify_shares_the_coefficient_basis(monkeypatch, example1, nullcorrelation,
                                               pencil_of_planes):
    # a classify reads the saturated data, so it runs no Buchberger beyond
    # validation's, and compute_tF scans for one section when t_F <= d and
    # for none at t_F = d + 1
    calls, sections = [], []
    buchberger, section_at = groebner._buchberger_terms, linalg._section

    def counting_buchberger(*args, **kwargs):
        calls.append(None)
        return buchberger(*args, **kwargs)

    def counting_section(*args):
        sections.append(args)
        return section_at(*args)

    monkeypatch.setattr(groebner, "_buchberger_terms", counting_buchberger)
    monkeypatch.setattr(linalg, "_section", counting_section)
    forms = [example1, nullcorrelation, pencil_of_planes, random_dense_form(make_rng(101), 2)]
    for omega in forms:
        calls.clear()
        distribution.validate_oneform(fresh(omega))
        validated = len(calls)
        calls.clear()
        distribution.classify(fresh(omega))
        assert len(calls) == validated
        sections.clear()
        tF = compute_tF(fresh(omega))[0]
        assert len(sections) == (tF <= checked_oneform(omega)[0])


def test_koszul_section_is_the_scan_at_d_plus_one(monkeypatch, example1, example2,
                                                 nullcorrelation, pencil_of_planes):
    # the theorem of the linalg docstring, against the scan: at twist d + 1
    # the reduced Koszul field (A_1, -A_0, 0, 0) is the scan's section
    # exactly when gcd(A_0, A_1) = 1, which a form with A_0 = 0 breaks, and
    # so do the rows whose v scales x2 and x3 alike (x2*v3 = x3*v2: the
    # skew-line rows, jordan2-line and jordan3-same), where A_0 and A_1 are
    # two linear multiples of one form of degree d; minimal_section scans
    # there all the same. On every
    # form with t_F = d + 1 the scan finds no section at twist d, and
    # compute_tF returns the scan's section with no scan run
    no_dx0 = a0_zero_form()
    forms = sweep_forms(example1, example2, nullcorrelation, pencil_of_planes) + [no_dx0]
    forms += [corpus.load_oneform(name) for name in corpus.corpus_names()["oneforms"]]
    rows = [(row, d) for row in sorted(maxorder.ROWS) for d in (3, 4)]
    forms += [maxorder.oneform(row, d, 1) for row, d in rows]
    shared = [maxorder.oneform(row, d, 1) for row, d in rows
              if row.startswith("skew") or row in ("jordan2-line", "jordan3-same")]
    section_at, scans = linalg._section, []

    def counting_section(*args):
        scans.append(args)
        return section_at(*args)

    monkeypatch.setattr(linalg, "_section", counting_section)
    coprime, top = [], 0
    for omega in forms:
        d, coeffs = checked_oneform(omega)
        scan = section_at(coeffs, d, d + 1)
        koszul = linalg._koszul_section(coeffs, d)
        coprime.append(common_factor(omega.one_form_coeffs()[:2]).is_constant())
        assert (koszul == scan) == coprime[-1], omega
        assert minimal_section(omega, d + 1) == VField([Poly(f) for f in scan])
        scans.clear()
        tF, section, _ = compute_tF(fresh(omega))
        if tF == d + 1:
            top += 1
            assert scans == [] and section_at(coeffs, d, d) is None
            assert section == minimal_section(omega, d + 1)
    assert [omega for omega, ok in zip(forms, coprime) if not ok] == [no_dx0] + shared
    # the null-correlation form, twice, and the eight dense forms
    assert top == 10


def times(g, omega):
    """The 1-form g * omega."""
    return ExtForm.one_form(*(g * a for a in omega.one_form_coeffs()))


def radial_multiples(nullcorrelation, pencil_of_planes):
    """The forms g * i_R(C~), C~ a constant 2-form and deg g = 0, 1, 2: the
    null-correlation form and the pencil, alone and times g1 and g2."""
    g1, g2 = X0 + 2 * X1 - X3, X0 * X0 - 3 * X1 * X2 + X3 * X3
    forms = [nullcorrelation, pencil_of_planes]
    return forms + [times(g, omega) for g in (g1, g2) for omega in forms]


def test_capped_numerator_gives_every_dimension(example1, example2, nullcorrelation,
                                                pencil_of_planes):
    # the numerator hilbert_numerator gives for degree n, K_d where the run
    # mod PRIME capped at n pins it, else the ideal's own, gives the Hilbert
    # function up to n, so every twist t <= n - d - 1 reads the same
    # dimensions as from the full basis of the coefficient ideal. The
    # numerator K_d of the radial and Koszul sections only moves where the
    # full run stops: bounded and unbounded runs return the same elements,
    # on forms with t_F = d + 1, on the maximal-order rows (t_F = 1 <= d, so
    # the bound is not met below 2d + 2), on forms with a zero coefficient,
    # on the pencil (d = 0) and on the forms g * i_R(C~), whose Koszul rank
    # is 5, not 6
    rng = make_rng(113)
    forms = sweep_forms(example1, example2, nullcorrelation, pencil_of_planes)
    forms += [random_dense_form(rng, d) for d in (1, 2, 3)] + [a0_zero_form()]
    forms += [maxorder.oneform(row, 3, 1) for row in ("distinct", "line", "skew-lines")]
    forms += [maxorder.pullback(2, 1)] + radial_multiples(nullcorrelation, pencil_of_planes)[2:]
    for omega in forms:
        d, _ = checked_oneform(omega)
        full = hilbert(groebner.Ideal(omega.one_form_coeffs())).numerator
        swept = groebner.hilbert_numerator(coefficient_ideal(fresh(omega)), 2 * d + 2)
        rows = coefficient_ideal(fresh(omega))._rows
        bounded = groebner._buchberger_terms(rows, lower=_koszul_numerator(d))
        assert bounded == groebner._buchberger_terms(rows)
        for t in range(-1, d + 2):
            expected = linalg._dims(full, 1, d + 2, t)
            assert linalg._dims(swept, 1, d + 2, t) == expected
            # the run mod PRIME capped at t + d + 1
            assert h0_tangent_twist(fresh(omega), t) == expected


def koszul_fields(coeffs, d):
    """The rows of the radial multiples and of the six Koszul fields at
    twist d + 1, column i * n + (index of m) for x^m e_i."""
    mons = monomials_of_degree(d + 1)
    n, index = len(mons), {m: k for k, m in enumerate(mons)}
    radial = []
    for f in monomials_of_degree(d):
        radial.append({i * n + index[f[:i] + (f[i] + 1,) + f[i + 1:]]: 1 for i in range(4)})
    koszul = []
    for i, j in combinations(range(4), 2):
        v = {i * n + index[m]: c for m, c in coeffs[j].items()}
        v.update({j * n + index[m]: -c for m, c in coeffs[i].items()})
        koszul.append(v)
    return radial, koszul


def test_koszul_rank_against_echelon(example1, example2, nullcorrelation, pencil_of_planes):
    # the rank beyond the radial multiples, from the integer elimination of
    # all the rows, is the one the bound of K_d at 2d + 2 takes off; the
    # pencil and forms with a zero coefficient have dependent or zero
    # Koszul fields
    ranks = set()
    forms = sweep_forms(example1, example2, nullcorrelation, pencil_of_planes)
    forms += [a0_zero_form(), maxorder.pullback(1, 1), maxorder.pullback(2, 2),
              maxorder.oneform("line", 3, 1)]
    for omega in forms:
        d, coeffs = checked_oneform(omega)
        radial, koszul = koszul_fields(coeffs, d)
        expected = len(_pivot_rows(radial + koszul)) - len(_pivot_rows(radial))
        n = 2 * d + 2
        assert dim_graded_piece(n) - hilbert_function(_koszul_numerator(d), n) == (
            4 * dim_graded_piece(d + 1) - dim_graded_piece(d) - expected), (d, omega)
        ranks.add(expected)
    assert 6 in ranks and len(ranks) > 1


def test_koszul_rank_closed_form(example1, example2, nullcorrelation, pencil_of_planes):
    # for a constant bivector C and its dual constant 2-form C~, C.A lies in
    # R_d.x iff i_omega(C) ^ R = i_omega(C ^ R) = 0, as omega(R) = 0, iff
    # omega ^ i_R(C~) = 0; i_R(C~) has coprime linear coefficients, so iff
    # omega = g.i_R(C~) with deg g = d. So the rank of the Koszul fields
    # beyond the radial multiples, from the integer elimination of all the
    # rows, is 5 on the forms of degree 0 and their polynomial multiples,
    # and 6 on every other form, forms with a zero coefficient included.
    # K_d takes it as 6 - [d = 0], and its bound still bounds dim I_{2d+2}
    # on the multiples, where I = g.J, J linear
    five = radial_multiples(nullcorrelation, pencil_of_planes)
    six = sweep_forms(example1, example2, nullcorrelation, pencil_of_planes)[4:]
    six += [example1, example2, times(X0 + 2 * X1 - X3, example1), a0_zero_form()]
    six += [maxorder.pullback(1, 1), maxorder.pullback(2, 1), maxorder.pullback(2, 2)]
    six += [maxorder.oneform(row, 3, 1) for row in maxorder.ROWS]
    for kappa, forms in ((5, five), (6, six)):
        for omega in forms:
            d, coeffs = checked_oneform(omega)
            radial, koszul = koszul_fields(coeffs, d)
            rank = len(_pivot_rows(radial + koszul)) - len(_pivot_rows(radial))
            assert rank == kappa, (d, omega)
            n = 2 * d + 2
            hf = hilbert_function(hilbert(groebner.Ideal(omega.one_form_coeffs())).numerator, n)
            assert hilbert_function(_koszul_numerator(d), n) <= hf, (d, omega)
    assert {checked_oneform(omega)[0] for omega in five} == {0, 1, 2}


def test_bound_below_the_leading_terms_raises(example1):
    # a forged numerator whose bound is below the monomials that the leading
    # terms already span on entering a degree is an engine fault, in the
    # capped run mod PRIME and in the full one
    rng = make_rng(131)
    for omega in (example1, random_dense_form(rng, 1), random_dense_form(rng, 2)):
        d, coeffs = checked_oneform(omega)
        rows = coefficient_ideal(fresh(omega))._rows
        k_d = _koszul_numerator(d)
        bound = dim_graded_piece(d + 2) - hilbert_function(k_d, d + 2)
        # the interreduced generators' leading terms times the variables
        lead = [max(g) for g in groebner._buchberger_terms(rows, cap=d + 1)]
        spanned = len(groebner._lt_piece(lead, d + 2, set(), None))
        assert spanned <= bound
        forged = k_d[:d + 2] + (k_d[d + 2] + bound - spanned + 1,) + k_d[d + 3:]
        for run in (lambda I: groebner.hilbert_numerator(I, 2 * d + 2), groebner.Ideal._basis):
            with pytest.raises(InternalInconsistency, match="above the bound"):
                run(groebner.Ideal._of_rows(coeffs, forged))


def test_full_top_degree_drops_its_zero_reductions(monkeypatch):
    # on a dense degree-2 form the radial and Koszul sections fill degree
    # 2d + 2 after one new element, and compute_tF proves fewer S-pairs
    # zero there than the run without the bound
    degrees = []
    normal_form = groebner._normal_form_terms

    def counting(f, basis, p):
        degrees.append(groebner._degree(max(f)))
        return normal_form(f, basis, p)

    monkeypatch.setattr(groebner, "_normal_form_terms", counting)
    omega = random_dense_form(make_rng(137), 2)
    assert compute_tF(fresh(omega))[0] == 3
    bounded = degrees.count(6)
    degrees.clear()
    groebner._buchberger_terms(coefficient_ideal(fresh(omega))._rows, cap=6)
    assert bounded < degrees.count(6)


def test_classify_tells_the_full_run_its_numerator(monkeypatch):
    # classify reads the Hilbert data of the coefficient ideal from its
    # full reduced basis: that run is told K_1 too, so on a sparse form of
    # degree 1 it proves fewer S-pairs zero than the run without it
    runs, zeros = [], []
    engine, normal_form = groebner._buchberger_terms, groebner._normal_form_terms

    def counting(f, basis, p):
        r = normal_form(f, basis, p)
        zeros.append(not r)
        return r

    def recording(gens, *args, **kwargs):
        start = len(zeros)
        basis = engine(gens, *args, **kwargs)
        runs.append((kwargs, zeros[start:].count(True)))
        return basis

    monkeypatch.setattr(groebner, "_normal_form_terms", counting)
    monkeypatch.setattr(groebner, "_buchberger_terms", recording)
    rng = make_rng(139)
    eta = ExtForm(2, {ij: Poly({m: rng.choice((-3, -2, -1, 1, 2, 3))
                                for m in rng.sample(monomials_of_degree(1), 2)})
                      for ij in combinations(range(4), 2)})
    omega = contract(radial_field(), eta)
    distribution.classify(omega)
    (kwargs, bounded), *_ = runs
    assert kwargs == {"lower": _koszul_numerator(1)}
    groebner._buchberger_terms(coefficient_ideal(fresh(omega))._rows)
    assert runs[-1][0] == {} and bounded < runs[-1][1]


def test_compute_tF_keeps_the_fallback_data(monkeypatch, example1, nullcorrelation,
                                            pencil_of_planes):
    # where the run mod PRIME does not pin K_d, a bare compute_tF reads the
    # coefficient ideal's own Hilbert data from its full run and keeps it,
    # the reduced basis and data of the ideal of the coefficients; a later
    # classify of the same form makes no Buchberger run, as its saturation
    # starts from that basis, and reports what it reports on a fresh form.
    # Where the run mod PRIME pins K_d, nothing is kept
    engine, runs = groebner._buchberger_terms, []

    def recording(gens, p=None, **kwargs):
        runs.append(gens)
        return engine(gens, p, **kwargs)

    for omega in (example1, maxorder.oneform("line", 3, 1), pencil_of_planes):
        bare = fresh(omega)
        compute_tF(bare)
        ideal, own = coefficient_ideal(bare), groebner.Ideal(omega.one_form_coeffs())
        assert ideal._reduced == own._basis() and ideal._hilbert == hilbert(own)
        monkeypatch.setattr(groebner, "_buchberger_terms", recording)
        runs.clear()
        report = cli.dist_report_doc(distribution.classify(bare))
        assert runs == []
        monkeypatch.undo()
        assert report == cli.dist_report_doc(distribution.classify(fresh(omega)))
    for omega in (nullcorrelation, random_dense_form(make_rng(127), 2)):
        bare = fresh(omega)
        compute_tF(bare)
        ideal = coefficient_ideal(bare)
        assert ideal._hilbert is None and ideal._reduced is None
        assert (cli.dist_report_doc(distribution.classify(bare))
                == cli.dist_report_doc(distribution.classify(fresh(omega))))


def recorded_primes(monkeypatch):
    """The list to which every later Buchberger run appends its prime, None
    over QQ."""
    primes, engine = [], groebner._buchberger_terms

    def recording(gens, p=None, **kwargs):
        primes.append(p)
        return engine(gens, p, **kwargs)

    monkeypatch.setattr(groebner, "_buchberger_terms", recording)
    return primes


def qq_tF(omega):
    """(t_F, section, h0) read from the numerator of the ideal of the
    coefficients, with no bound and no prime: the oracle of the modular
    route."""
    d, _ = checked_oneform(omega)
    numerator = hilbert(groebner.Ideal(omega.one_form_coeffs())).numerator
    for dprime in range(d + 2):
        s = linalg._dims(numerator, 1, d + 2, dprime)
        if s.h0 > 0:
            return dprime, minimal_section(fresh(omega), dprime), s


def split_mod_p_form(rng, d):
    """A form valid over QQ whose coefficients are, mod PRIME, those of the
    split form g * (x1 dx0 - x0 dx1), deg g = d: that form plus PRIME times a
    dense one."""
    g = Poly({m: rng.choice((-2, -1, 1, 3)) for m in monomials_of_degree(d)})
    split = (g * X1, -g * X0, Poly({}), Poly({}))
    dense = random_dense_form(rng, d).one_form_coeffs()
    return ExtForm.one_form(*(a + groebner.PRIME * b for a, b in zip(split, dense)))


def test_modular_route(monkeypatch, example1):
    # dense forms and the forty sections forms of seeds 1-10 meet K_d over
    # GF(PRIME), so compute_tF makes no run over QQ; example1 and the
    # maximal-order rows (t_F = 1 <= d), and a form that splits mod PRIME
    # alone, fall back to the full run over QQ. Either way t_F, the section
    # and h0 are those of the QQ numerator
    rng = make_rng(137)
    dense = [random_dense_form(rng, d) for d in (1, 2, 3)]
    dense += [ExtForm.one_form(*map(parse_poly, item["doc"]["coeffs"]))
              for seed in range(1, 11) for item in perfbench_run.build_items("sections", seed)]
    fallback = [example1, split_mod_p_form(rng, 2)]
    fallback += [maxorder.oneform(row, d, 1) for row in sorted(maxorder.ROWS) for d in (3, 4)]
    assert qq_tF(fallback[1])[0] == 3  # over QQ the split form is generic
    primes = recorded_primes(monkeypatch)
    for omega, route in [(o, [groebner.PRIME]) for o in dense] + [
            (o, [groebner.PRIME, None]) for o in fallback]:
        expected = qq_tF(omega)
        primes.clear()
        assert compute_tF(fresh(omega)) == expected
        assert primes == route, omega
    # on the rows, h0(1) > 0 shows first in degree d + 2, where the run mod
    # PRIME, capped and told K_d, stops short: hilbert_numerator reads only
    # its leading terms, and they are those of the run capped there
    monkeypatch.undo()
    for omega in fallback[2:]:
        d, _ = checked_oneform(omega)
        ideal = coefficient_ideal(fresh(omega))
        rows = groebner._mod_p_rows(ideal._rows, groebner.PRIME)

        def run(**kwargs):
            return sorted(max(g) for g in groebner._buchberger_terms(rows, groebner.PRIME, **kwargs))

        assert run(cap=2 * d + 2, lower=ideal._lower) == run(cap=d + 2)


def test_qq_numerator_above_the_modular_one_raises(monkeypatch, example1):
    # HF_{R/I} <= HF_p in every degree whatever the prime, so a QQ run that
    # drops a generator, raising HF_{R/I}(d + 1) above HF_p(d + 1), is an
    # engine fault; the data that failed is not kept, so a second call on
    # the same form makes the check again and raises again
    engine = groebner._buchberger_terms

    def dropping(gens, p=None, **kwargs):
        rows = engine(gens, p, **kwargs)
        return rows if p else rows[1:]

    monkeypatch.setattr(groebner, "_buchberger_terms", dropping)
    for omega in (example1, maxorder.oneform("line", 3, 1)):
        bare = fresh(omega)
        for _ in range(2):
            with pytest.raises(InternalInconsistency, match="over QQ is above"):
                compute_tF(bare)
            ideal = coefficient_ideal(bare)
            assert ideal._hilbert is None and ideal._reduced is None


def conormal_kernel_dim(v, t):
    """dim of {omega : i_R omega = i_v omega = 0}, coefficients of degree
    t - 2, from the echelon kernel: the sections of N*(t - 1)."""
    _, fs = integer_multiples(v.components)
    mons = monomials_of_degree(t - 2)
    rows = {}
    for i, x_i in enumerate(monomials_of_degree(1)):
        for k, m in enumerate(mons):
            col = i * len(mons) + k
            rows.setdefault(("R", mon_mul(x_i, m)), {})[col] = 1
            for vm, c in fs[i].items():
                rows.setdefault(("v", mon_mul(vm, m)), {})[col] = c
    return len(_kernel(_pivot_rows(list(rows.values())), 4 * len(mons)))


def test_conormal_dims_against_the_echelon_kernel():
    # `_dims` at (s, delta) = (-1, d' - 1) on the numerator of the ideal J
    # of the minors against R counts h0(N*(t - 1)) for t - 1 = 1 ... d' + 3,
    # on the corpus fields, the maximal-order linear fields and seeded
    # sparse fields of degree 2 and 3
    fields = [corpus.load_vfield(name) for name in corpus.corpus_names()["vfields"]]
    fields += [maxorder.linear_field(row) for row in sorted(maxorder.ROWS)]
    for seed in (1, 2, 3):
        rng = make_rng(seed)
        fields += [VField([random_nonzero_poly(rng, e) for _ in range(4)]) for e in (2, 3)]
    cases = 0
    for v in fields:
        e = field_degree(v)
        numerator = hilbert(groebner.Ideal(minors_against_radial(v))).numerator
        for t in range(2, e + 5):
            assert linalg._dims(numerator, -1, e - 1, t).h0 == conormal_kernel_dim(v, t), (v, t)
            cases += 1
    assert cases == 16 * 4 + 3 * (5 + 6)
