from fractions import Fraction
from itertools import combinations
from math import comb
import time

import pytest

from p3dist import cli, distribution, groebner, linalg
from p3dist.errors import InternalInconsistency, InvalidForm
from p3dist.exterior import (
    ExtForm,
    VField,
    checked_oneform,
    coefficient_ideal,
    contract,
    field_degree,
    radial_field,
)
from p3dist.hilbert import hilbert
from p3dist.linalg import compute_tF, h0_tangent_twist, minimal_section
from p3dist.poly import (
    Poly, X0, X1, X2, X3, integer_multiples, monomials_of_degree, primitive_row,
)

import maxorder
from conftest import make_rng
from echelon import _kernel, _pivot_rows


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


# compute_tF takes its section from minimal_section, which certifies it
@pytest.mark.parametrize("run, bad, message", [
    pytest.param(compute_tF, RADIAL, "is radial", id="bad0"),
    pytest.param(compute_tF, NOT_IN_KERNEL, "does not annihilate", id="bad1"),
    pytest.param(section_at_one, RADIAL, "is radial", id="minimal_section-bad0"),
    pytest.param(section_at_one, NOT_IN_KERNEL, "does not annihilate", id="minimal_section-bad1"),
])
def test_section_certificate(nullcorrelation, monkeypatch, run, bad, message):
    def section_at(coeffs, d, dprime):
        return integer_multiples(bad.components)[1]

    monkeypatch.setattr(linalg, "_section", section_at)
    with pytest.raises(InternalInconsistency, match=message):
        run(nullcorrelation)


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
    `sweep_forms`, a form with A_0 = 0, and a rational multiple of each,
    whose matrix has the same kernel."""
    no_dx0 = a0_zero_form()
    assert no_dx0.one_form_coeffs()[0].is_zero()
    for omega in sweep_forms(example1, example2, nullcorrelation, pencil_of_planes) + [no_dx0]:
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
    # the bounds of the capped run are computed only for that run, so a
    # classify, which reads the saturated data, never ranks the Koszul fields
    calls, sections, ranks = [], [], []
    buchberger, section_at = groebner._buchberger_terms, linalg._section
    koszul_rank = linalg._koszul_rank

    def counting_buchberger(*args, **kwargs):
        calls.append(None)
        return buchberger(*args, **kwargs)

    def counting_section(*args):
        sections.append(args)
        return section_at(*args)

    def counting_rank(*args):
        ranks.append(args)
        return koszul_rank(*args)

    monkeypatch.setattr(groebner, "_buchberger_terms", counting_buchberger)
    monkeypatch.setattr(linalg, "_section", counting_section)
    monkeypatch.setattr(linalg, "_koszul_rank", counting_rank)
    forms = [example1, nullcorrelation, pencil_of_planes, random_dense_form(make_rng(101), 2)]
    for omega in forms:
        calls.clear()
        distribution.validate_oneform(fresh(omega))
        validated = len(calls)
        calls.clear()
        distribution.classify(fresh(omega))
        assert len(calls) == validated and ranks == []
        sections.clear()
        compute_tF(fresh(omega))
        assert len(sections) == 1 and len(ranks) == 1
        ranks.clear()


def test_capped_numerator_gives_every_dimension(example1, example2, nullcorrelation,
                                                pencil_of_planes):
    # a Buchberger run that stops at degree n gives the Hilbert function up
    # to n, so every twist t <= n - d - 1 reads the same dimensions as from
    # the full basis of the coefficient ideal. The bounds of the radial and
    # Koszul sections only move where the run stops: bounded and unbounded
    # runs return the same elements, on forms with t_F = d + 1, on the
    # maximal-order rows (t_F = 1 <= d, so the bound is not met below
    # 2d + 2), on forms with a zero coefficient and on the pencil (d = 0)
    rng = make_rng(113)
    forms = sweep_forms(example1, example2, nullcorrelation, pencil_of_planes)
    forms += [random_dense_form(rng, d) for d in (1, 2, 3)] + [a0_zero_form()]
    forms += [maxorder.oneform(row, 3, 1) for row in ("distinct", "line", "skew-lines")]
    forms += [maxorder.pullback(2, 1)]
    for omega in forms:
        d, coeffs = checked_oneform(omega)
        full = hilbert(groebner.Ideal(omega.one_form_coeffs())).numerator
        swept = groebner.hilbert_numerator(coefficient_ideal(fresh(omega)), 2 * d + 2)
        rows = coefficient_ideal(fresh(omega))._rows
        for top in range(d + 1, 2 * d + 3):
            bounded = groebner._buchberger_terms(
                rows, cap=top, bound=linalg._dim_bounds(coeffs, d, top))
            assert bounded == groebner._buchberger_terms(rows, cap=top)
        for t in range(-1, d + 2):
            expected = linalg._dims(full, d, t)
            assert linalg._dims(swept, d, t) == expected
            # capped at t + d + 1
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
    # the rank beyond the radial multiples, against the integer elimination
    # of all the rows; the pencil and forms with a zero coefficient have
    # dependent or zero Koszul fields
    ranks = set()
    forms = sweep_forms(example1, example2, nullcorrelation, pencil_of_planes)
    forms += [a0_zero_form(), maxorder.pullback(1, 1), maxorder.pullback(2, 2),
              maxorder.oneform("line", 3, 1)]
    for omega in forms:
        d, coeffs = checked_oneform(omega)
        radial, koszul = koszul_fields(coeffs, d)
        expected = len(_pivot_rows(radial + koszul)) - len(_pivot_rows(radial))
        assert linalg._koszul_rank(coeffs, d) == expected
        ranks.add(expected)
    assert 6 in ranks and len(ranks) > 1


def test_koszul_rank_closed_form(example1, example2, nullcorrelation, pencil_of_planes):
    # for a constant bivector C and its dual constant 2-form C~, C.A lies in
    # R_d.x iff i_omega(C) ^ R = i_omega(C ^ R) = 0, as omega(R) = 0, iff
    # omega ^ i_R(C~) = 0; i_R(C~) has coprime linear coefficients, so iff
    # omega = g.i_R(C~) with deg g = d. So kappa is 5 on the forms of
    # degree 0 and their polynomial multiples, and 6 on every other form
    def times(g, omega):
        return ExtForm.one_form(*(g * a for a in omega.one_form_coeffs()))

    g1, g2 = X0 + 2 * X1 - X3, X0 * X0 - 3 * X1 * X2 + X3 * X3
    five = [nullcorrelation, pencil_of_planes]
    five += [times(g, omega) for g in (g1, g2) for omega in (nullcorrelation, pencil_of_planes)]
    six = [example1, example2, times(g1, example1), maxorder.pullback(2, 1)]
    six += [maxorder.oneform(row, 3, 1) for row in maxorder.ROWS]
    for kappa, forms in ((5, five), (6, six)):
        for omega in forms:
            d, coeffs = checked_oneform(omega)
            assert linalg._koszul_rank(coeffs, d) == kappa, (d, omega)
    assert {checked_oneform(omega)[0] for omega in five} == {0, 1, 2}


def test_bound_below_the_leading_terms_raises(example1):
    # a forged bound below the monomials that the leading terms already
    # span on entering a degree is an engine fault
    rng = make_rng(131)
    for omega in (example1, random_dense_form(rng, 1), random_dense_form(rng, 2)):
        d, coeffs = checked_oneform(omega)
        rows = coefficient_ideal(fresh(omega))._rows
        bounds = linalg._dim_bounds(coeffs, d, 2 * d + 2)
        # the interreduced generators' leading terms times the variables
        lead = [max(g) for g in groebner._buchberger_terms(rows, cap=d + 1)]
        spanned = len(groebner._lt_piece(lead, d + 2, set(), None))
        assert spanned <= bounds[d + 2]
        with pytest.raises(InternalInconsistency, match="above the bound"):
            groebner._buchberger_terms(rows, cap=2 * d + 2,
                                       bound={**bounds, d + 2: spanned - 1})


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


def test_compute_tF_keeps_no_capped_data(example1, nullcorrelation):
    # the capped numerator is not the ideal's own above the cap, so a bare
    # compute_tF leaves nothing on the coefficient ideal, and a later
    # classify of the same form reports what it reports on a fresh one
    for omega in (example1, nullcorrelation, random_dense_form(make_rng(127), 2)):
        bare = fresh(omega)
        compute_tF(bare)
        ideal = coefficient_ideal(bare)
        assert ideal._hilbert is None and ideal._reduced is None
        assert (cli.dist_report_doc(distribution.classify(bare))
                == cli.dist_report_doc(distribution.classify(fresh(omega))))
