from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from p3dist import linalg
from p3dist.errors import InternalInconsistency, InvalidForm
from p3dist.exterior import ExtForm, VField, contract, field_degree, radial_field
from p3dist.linalg import (
    _kernel,
    _pivot_rows,
    compute_tF,
    h0_tangent_twist,
    minimal_section,
)
from p3dist.poly import Poly, X0, X1, X2, X3, monomials_of_degree, primitive_row

from conftest import make_rng


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


@pytest.mark.parametrize("bad", [
    VField([X0, X1, X2, X3]),             # radial
    VField([X0, Poly.zero(), Poly.zero(), Poly.zero()]),  # not in the kernel
])
def test_section_certificate(nullcorrelation, monkeypatch, bad):
    def section_at(echelon, dprime, src_mons):
        return bad

    monkeypatch.setattr(linalg, "_section", section_at)
    with pytest.raises(InternalInconsistency):
        compute_tF(nullcorrelation)


def test_invalid_form_rejected():
    bad = ExtForm.one_form(X0, X1, X2, X3)  # contract(R, .) = sum x_i^2 != 0
    with pytest.raises(InvalidForm):
        h0_tangent_twist(bad, 1)


def test_negative_twist():
    s = h0_tangent_twist(ExtForm.one_form(X1, -X0, X3, -X2), -1)
    assert s.h0 == 0


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


def test_compute_tF_matches_step_by_step_sweep(example1, example2, nullcorrelation,
                                                pencil_of_planes):
    rng = make_rng(97)
    forms = ([example1, example2, nullcorrelation, pencil_of_planes]
             + [random_dense_form(rng, 1) for _ in range(3)]
             + [random_dense_form(rng, 2) for _ in range(2)])
    # coefficients over different denominators, and rational multiples: the
    # rows are built from one integer multiple of the coefficients
    forms += [random_dense_form(rng, d, (1, 2, 3, 5, 7)) for d in (1, 1, 2)]
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
        for dprime in range(tF + 1):
            rows, ncols = contraction_matrix(omega, dprime)
            radial = comb(dprime + 2, 3)
            assert h0_tangent_twist(omega, dprime).h0 == ncols - gauss_rank(rows) - radial


def test_compute_tF_eliminates_each_twist_once(monkeypatch, example1, nullcorrelation,
                                               pencil_of_planes):
    built, eliminated = [], []
    rows_at, pivot_rows = linalg._contraction_rows, linalg._pivot_rows

    def counting_rows(coeffs, dprime):
        rows, src_mons = rows_at(coeffs, dprime)
        built.append((dprime, rows))
        return rows, src_mons

    def counting_pivots(rows):
        eliminated.append(rows)
        return pivot_rows(rows)

    monkeypatch.setattr(linalg, "_contraction_rows", counting_rows)
    monkeypatch.setattr(linalg, "_pivot_rows", counting_pivots)
    forms = [example1, nullcorrelation, pencil_of_planes, random_dense_form(make_rng(101), 2)]
    for omega in forms:
        built.clear()
        eliminated.clear()
        tF, _, _ = compute_tF(omega)
        assert [dprime for dprime, _ in built] == list(range(tF + 1))
        contraction = [r for r in eliminated if any(r is rows for _, rows in built)]
        assert len(contraction) == tF + 1
