"""Exact section spaces of the tangent sheaf of a codimension-one distribution.

A section at twist t is a degree-t vector field F with sum A_i F_i = 0,
modulo the radial multiples f*R, f of degree t - 1. The contraction map
(F_0, ..., F_3) -> sum A_i F_i from R_t^4 to R_{t+d+1} has image I_{t+d+1},
I = (A_0, ..., A_3), so its rank is read in closed form from the Hilbert
series numerator N of R/I (the Macaulay-matrix view of D. Lazard, EUROCAL
1983): the raw kernel at twist t is 4 dim R_t - dim R_{t+d+1} + HF(t+d+1),
with HF(n) = sum_k N_k dim R_{n-k}. The coefficient ideal is kept on the
form (`exterior.coefficient_ideal`) and `hilbert.hilbert` keeps its data
there, so once the invariants are read h0 costs no Groebner basis. On a
form whose data was not read, `groebner.hilbert_numerator` runs Buchberger
only up to the largest degree t+d+1 read, 2d+2 for `compute_tF`, takes
the numerator of the leading terms found, and keeps nothing on the form.
That run is told a bound on dim I_n for each n = t+d+1 <= 2d+2, from the
sections known in advance: the radial multiples f*R, f of degree t-1, and
at t = d+1 the six Koszul fields A_j*e_i - A_i*e_j, lie in the kernel, so
dim I_n <= 4 dim R_t - dim R_{t-1} - [t = d+1]*kappa, kappa the rank of
the Koszul fields modulo the radial rows (`_koszul_rank`, one small
fraction-free elimination, its pivots kept primitive). Where the leading
terms fill the bound the run stops proving S-pairs zero; its result is
the same.

The section comes from one scan of the columns x^m*A_i of the contraction
map, in the order i*n + (index of m). Each column is keyed by the grevlex
rank of its target monomials, with a tag key per column that records the
combination, and is top-reduced against the earlier pivot columns by
`poly.fraction_free_step`, which only cancels: a column that becomes a
pivot is stored as its `primitive_row`, and no other column's content is
divided out. Every earlier column is a pivot or a free column, so the tag
of a column that reduces to zero is the RREF kernel vector of that free
column, up to scale; the first one not in the radial span,
reduced modulo it, is the canonical section. The scan returns it as
primitive integer components; `minimal_section` certifies those integers
and builds the `VField` once, and `compute_tF` calls it at the first twist
with h0 > 0.
Each public function first checks its 1-form with `exterior.checked_oneform`:
InvalidForm unless it defines a distribution.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .errors import BoundViolated, InternalInconsistency
from .exterior import (
    VField,
    _contraction,
    _radial_minors,
    checked_oneform,
    coefficient_ideal,
)
from .groebner import hilbert_numerator
from .poly import (
    NVARS,
    Poly,
    dim_graded_piece,
    fraction_free_step,
    mon_mul,
    monomials_of_degree,
    primitive_row,
)


class SectionSpaceDim(NamedTuple):
    """Dimension bookkeeping for sections of the tangent sheaf at a twist."""

    twist: int
    raw_kernel_dim: int
    radial_dim: int
    h0: int


def _dims(numerator, d, dprime):
    """SectionSpaceDim at one twist, from the Hilbert series numerator of
    the coefficient ideal of a 1-form of degree d."""
    n = dprime + d + 1
    hf = sum(c * dim_graded_piece(n - k) for k, c in enumerate(numerator))
    raw = NVARS * dim_graded_piece(dprime) - dim_graded_piece(n) + hf
    radial = dim_graded_piece(dprime - 1)
    return SectionSpaceDim(dprime, raw, radial, raw - radial)


def _radial_rows(dprime, src_mons, base):
    """The radial rows (x_0*f, ..., x_3*f), f of degree dprime - 1, each the
    tuple of its columns x^m*e_i, keyed base + i*n + (index of m), pivot
    x_0*f first. They are in RREF already: each row is 1 at its columns
    and has its pivot at a column no other row has."""
    n = len(src_mons)
    index = {m: i for i, m in enumerate(src_mons)}
    units = monomials_of_degree(1)
    return [tuple(base + i * n + index[mon_mul(f, x)] for i, x in enumerate(units))
            for f in monomials_of_degree(dprime - 1)]


def _clear_radial(v, radial):
    """The integer row v reduced in place modulo the radial rows: v minus
    its entry at each pivot times that row, which clears the pivot and
    keeps v integral, as the row is 1 at each of its columns."""
    for pc, *rest in radial:
        c = v.pop(pc, 0)
        if c:
            for k in rest:
                v[k] = v.get(k, 0) - c
                if not v[k]:
                    del v[k]
    return v


def _koszul_rank(coeffs, d):
    """The rank of the six Koszul fields A_j*e_i - A_i*e_j of a 1-form of
    degree d modulo the radial multiples, sections at twist d + 1: each is
    reduced modulo the radial rows, then against the others."""
    src_mons = monomials_of_degree(d + 1)
    n = len(src_mons)
    index = {m: i for i, m in enumerate(src_mons)}
    radial = _radial_rows(d + 1, src_mons, 0)
    pivots = {}
    for i, j in combinations(range(NVARS), 2):
        v = {i * n + index[m]: c for m, c in coeffs[j].items()}
        v.update({j * n + index[m]: -c for m, c in coeffs[i].items()})
        _clear_radial(v, radial)
        lead = min(v, default=None)
        while lead in pivots:
            v = fraction_free_step(v, pivots[lead], lead)
            lead = min(v, default=None)
        if v:
            pivots[lead] = primitive_row(v)
    return len(pivots)


def _dim_bounds(coeffs, d, degree):
    """Upper bounds on dim I_n for the coefficient ideal I, n = t + d + 1
    up to min(degree, 2d + 2): the kernel of the contraction map at twist
    t holds the radial multiples, and at t = d + 1 the Koszul fields, so
    dim I_n <= 4 dim R_t - dim R_{t-1} - [t = d + 1] * (their rank beyond
    the radial multiples)."""
    bounds = {t + d + 1: NVARS * dim_graded_piece(t) - dim_graded_piece(t - 1)
              for t in range(min(degree, 2 * d + 2) - d)}
    if 2 * d + 2 in bounds:
        bounds[2 * d + 2] -= _koszul_rank(coeffs, d)
    return bounds


def _numerator(omega, degree):
    """The Hilbert series numerator of the coefficient ideal, exact up to
    `degree`, with the bounds of `_dim_bounds` for a Buchberger run."""
    d, coeffs = checked_oneform(omega)
    return hilbert_numerator(coefficient_ideal(omega), degree,
                             lambda: _dim_bounds(coeffs, d, degree))


def _section(coeffs, d, dprime):
    """Canonical non-radial section at a twist, or None, for integer
    multiples of the coefficients of a 1-form of degree d: the first RREF
    kernel vector of the contraction map not in the radial span, reduced
    modulo it, as four integer dicts, primitive together and positive at
    the first column, so that every multiple prints the same."""
    src_mons = monomials_of_degree(dprime)
    n = len(src_mons)
    rank = {m: k for k, m in enumerate(monomials_of_degree(dprime + d + 1))}
    tag = len(rank)  # tag keys follow the target keys, so a target key leads
    radial = _radial_rows(dprime, src_mons, tag)
    pivots = {}
    for col in range(NVARS * n):
        m = src_mons[col % n]
        v = {rank[mon_mul(am, m)]: c for am, c in coeffs[col // n].items()}
        v[tag + col] = 1
        lead = min(v)
        while lead in pivots:
            v = fraction_free_step(v, pivots[lead], lead)
            lead = min(v)
        if lead < tag:
            pivots[lead] = primitive_row(v)
            continue
        if _clear_radial(v, radial):
            comps = [{} for _ in range(NVARS)]
            for col, c in primitive_row({k - tag: c for k, c in v.items()}).items():
                comps[col // n][src_mons[col % n]] = c
            return comps
    return None


def h0_tangent_twist(omega, dprime):
    """h0 of the twist of the tangent sheaf whose sections are degree-dprime
    vector fields annihilated by the 1-form, modulo radial multiples."""
    d, _ = checked_oneform(omega)
    return _dims(_numerator(omega, dprime + d + 1), d, dprime)


def minimal_section(omega, dprime):
    """Canonical non-radial section at the given twist, or None. The scan's
    integer components are certified against the form's integer
    coefficients before the field is built: they must annihilate the
    1-form and must not be radial; a failed certificate raises
    InternalInconsistency."""
    d, coeffs = checked_oneform(omega)
    fs = _section(coeffs, d, dprime)
    if fs is None:
        return None
    if _contraction(fs, coeffs):
        raise InternalInconsistency(
            f"minimal section at twist {dprime} does not annihilate the 1-form"
        )
    if not any(_radial_minors(fs)):
        raise InternalInconsistency(f"minimal section at twist {dprime} is radial")
    return VField([Poly(f) for f in fs])


def compute_tF(omega):
    """Minimal twist with a section, and a canonical minimal section.

    `checked_oneform` checks the form and gives its degree d. The sweep
    stops by dprime = d + 1; hitting that cap without a section is an
    internal bug, since a section is guaranteed to exist by then. The
    section comes certified from `minimal_section`.
    """
    d, _ = checked_oneform(omega)
    # the sweep reads the Hilbert function up to degree (d + 1) + d + 1
    numerator = _numerator(omega, 2 * d + 2)
    for dprime in range(d + 2):
        s = _dims(numerator, d, dprime)
        if s.h0 > 0:
            section = minimal_section(omega, dprime)
            if section is None:
                raise BoundViolated(
                    "positive h0 but no non-radial kernel vector found"
                )
            return dprime, section, s
    raise BoundViolated(
        f"no section of the tangent sheaf found up to twist {d + 1}"
    )
