"""Exact linear algebra for the section spaces of the tangent sheaf.

One routine, `_pivot_rows`, runs integer Gauss-Jordan elimination on sparse
rows. Each step is fraction-free in the sense of Bareiss: a*row - b*pivot,
divided by its content. Its pivot rows are the reduced row echelon form of
the row space up to one nonzero scale per row, which gives the rank, the
canonical RREF kernel basis, and reduction modulo a subspace. Built on top
of it: the dimension h0 of twisted section spaces of the tangent sheaf of a
codimension-one distribution, and the minimal twist t_F admitting a section.
`compute_tF` builds the contraction rows of each twist once, from integer
multiples of the form's coefficients, and eliminates them: the echelon of
the first twist with h0 > 0 also gives the minimal section, whose two
certificates run on integer dicts too. Each public function first
checks its 1-form with `exterior.checked_oneform`, so a form that defines
no distribution raises InvalidForm.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush

from .errors import BoundViolated, InternalInconsistency
from .exterior import VField, annihilates, checked_oneform, is_radial_multiple
from .poly import (
    NVARS,
    Poly,
    dim_graded_piece,
    fraction_free_step,
    mon_mul,
    monomials_of_degree,
    primitive_row,
)


def _pivot_rows(rows):
    """Integer Gauss-Jordan elimination on sparse rows (column -> nonzero int).

    Returns [(pivot_col, row)] in increasing pivot column: the reduced row
    echelon form of the row space, each row a nonzero integer multiple of
    its RREF row. The length is the rank. The input rows are not modified.
    """
    by_lead = {}
    for r in rows:
        if r:
            by_lead.setdefault(min(r), []).append(r)
    leads = list(by_lead)
    heapify(leads)
    echelon = []
    while leads:
        col = heappop(leads)
        here = by_lead.pop(col)
        # the shortest candidate causes the least fill-in; RREF is unique,
        # so the choice cannot change the result
        pivot = min(here, key=len)
        for r in here:
            if r is pivot:
                continue
            r = fraction_free_step(r, pivot, col)
            if r:
                lead = min(r)
                if lead not in by_lead:
                    by_lead[lead] = []
                    heappush(leads, lead)
                by_lead[lead].append(r)
        echelon.append((col, pivot))
    # back substitution: row i is final once every later row has cleared it
    for i in range(len(echelon) - 1, 0, -1):
        pc, pr = echelon[i]
        for j in range(i):
            qc, qr = echelon[j]
            if pc in qr:
                echelon[j] = (qc, fraction_free_step(qr, pr, pc))
    return echelon


def _kernel(echelon, ncols):
    """Canonical RREF basis of the right kernel: for each free column fc in
    increasing order, the vector (column -> Fraction) with v[fc] = 1."""
    pivots = {pc for pc, _ in echelon}
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = {fc: Fraction(1)}
        for pc, r in echelon:
            if fc in r:
                v[pc] = Fraction(-r[fc], r[pc])
        basis.append(v)
    return basis


@dataclass(frozen=True)
class SectionSpaceDim:
    """Dimension bookkeeping for sections of the tangent sheaf at a twist."""

    twist: int
    raw_kernel_dim: int
    radial_dim: int
    h0: int


def _contraction_rows(coeffs, dprime):
    """Rows of (F_0..F_3) -> sum A_i F_i on degree-dprime quadruples, for
    integer dicts A_i: a common integer multiple of the coefficients.

    Columns: component-major over the degree-dprime monomial basis. One
    integer row per monomial of the target degree that is hit.
    """
    src_mons = monomials_of_degree(dprime)
    rows = {}
    col = 0
    for ai in coeffs:
        for m in src_mons:
            for am, ac in ai.items():
                rows.setdefault(mon_mul(am, m), {})[col] = ac
            col += 1
    return list(rows.values()), src_mons


def _twist(coeffs, dprime):
    """Build and eliminate the contraction rows at one twist, for integer
    multiples of the coefficients of a 1-form that `checked_oneform` has
    accepted. Returns the SectionSpaceDim, the echelon of the rows and the
    source monomials; no rows below twist 0."""
    rows, src_mons = _contraction_rows(coeffs, dprime)
    echelon = _pivot_rows(rows)
    nullity = NVARS * len(src_mons) - len(echelon)
    radial = dim_graded_piece(dprime - 1)
    return SectionSpaceDim(dprime, nullity, radial, nullity - radial), echelon, src_mons


def _vector_to_vfield(vec, src_mons):
    """Vector field of a nonzero vector, printed the same for every multiple."""
    n = len(src_mons)
    comps = [{} for _ in range(NVARS)]
    for col, c in sorted(primitive_row(vec).items()):
        comps[col // n][src_mons[col % n]] = c
    return VField([Poly(t) for t in comps])


def _section(echelon, dprime, src_mons):
    """Canonical non-radial section from the echelon `_twist` returns, or
    None: the first RREF kernel vector not in the radial span, reduced modulo
    it. The radial rows (x_0*f, ..., x_3*f), f of degree dprime-1, are in
    RREF already: each has its pivot at x_0*f, a column no other row has."""
    n = len(src_mons)
    index = {m: i for i, m in enumerate(src_mons)}
    radial = []
    for f in monomials_of_degree(dprime - 1):
        r = {i * n + index[mon_mul(f, x)]: 1 for i, x in enumerate(monomials_of_degree(1))}
        radial.append((min(r), r))
    for v in _kernel(echelon, NVARS * n):
        v = primitive_row(v)
        for pc, r in radial:
            if pc in v:
                v = fraction_free_step(v, r, pc)
        if v:
            return _vector_to_vfield(v, src_mons)
    return None


def h0_tangent_twist(omega, dprime):
    """h0 of the twist of the tangent sheaf whose sections are degree-dprime
    vector fields annihilated by the 1-form, modulo radial multiples."""
    return _twist(checked_oneform(omega)[1], dprime)[0]


def minimal_section(omega, dprime):
    """Canonical non-radial section at the given twist, or None."""
    _, echelon, src_mons = _twist(checked_oneform(omega)[1], dprime)
    return _section(echelon, dprime, src_mons)


def compute_tF(omega):
    """Minimal twist with a section, and a canonical minimal section.

    `checked_oneform` checks the form and gives its degree d. The sweep
    stops by dprime = d + 1; hitting that cap without a section is an
    internal bug, since a section is guaranteed to exist by then. The
    section is certified before it is returned, on integer multiples of
    its components and of the coefficients: it must annihilate the 1-form
    (`exterior.annihilates`) and must not be a multiple of the radial
    field (`exterior.is_radial_multiple`); a failed certificate raises
    InternalInconsistency.
    """
    d, coeffs = checked_oneform(omega)
    for dprime in range(d + 2):
        s, echelon, src_mons = _twist(coeffs, dprime)
        if s.h0 > 0:
            section = _section(echelon, dprime, src_mons)
            if section is None:
                raise BoundViolated(
                    "positive h0 but no non-radial kernel vector found"
                )
            if not annihilates(section, omega):
                raise InternalInconsistency(
                    f"minimal section at twist {dprime} does not annihilate the 1-form"
                )
            if is_radial_multiple(section):
                raise InternalInconsistency(
                    f"minimal section at twist {dprime} is radial"
                )
            return dprime, section, s
    raise BoundViolated(
        f"no section of the tangent sheaf found up to twist {d + 1}"
    )
