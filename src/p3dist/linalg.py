"""Exact section spaces of the tangent sheaf of a codimension-one distribution.

A section at twist t is a degree-t vector field F with sum A_i F_i = 0,
modulo the radial multiples f*R, f of degree t - 1. The contraction map
(F_0, ..., F_3) -> sum A_i F_i from R_t^4 to R_{t+d+1} has image I_{t+d+1},
I = (A_0, ..., A_3), so its rank is read in closed form from the Hilbert
series numerator N of R/I (the Macaulay-matrix view of D. Lazard, EUROCAL
1983): the raw kernel at twist t is 4 dim R_t - dim R_{t+d+1} + HF(t+d+1),
with HF(n) = sum_k N_k dim R_{n-k}. The count is one for every kernel
sheaf F = ker(E -> I_Z(delta)) with c(E) = (1 + sH)^4 whose map sends the
sections of E(k) onto the graded piece I_{k+delta} of an ideal I of Z. The
Euler sequence gives h0(E(k)) = 4R(k + s) - R(k), R(n) = dim R_n, so
h0(F(t - 1)) = 4R(t - 1 + s) - R(t - 1) - R(t - 1 + delta) + HF(t - 1 + delta),
which `_dims` reads. T_F of a 1-form of degree d is (s, delta) = (1, d + 2)
on the coefficient ideal; the conormal sheaf N* of a field of degree d' is
(-1, d' - 1) on the ideal of its minors against R, for t >= 2, as
h0(Omega^1) = 0 where the count gives -1. The coefficient ideal is kept on the
form (`exterior.coefficient_ideal`) and `hilbert.hilbert` keeps its data
there, so once the invariants are read h0 costs no Groebner basis.
The ideal carries a numerator K_d (`exterior._koszul_numerator`), a lower
bound on HF_{R/I}(n) for n <= 2d+2 (proved below). The integer A_i reduced
mod p give an upper one: HF_{K_d}(n) <= HF_{R/I}(n) <= HF_{R/I_p}(n), as
the rank of I_n only drops mod p. So on a form whose data was not read,
`groebner.hilbert_numerator` runs Buchberger over GF(32003) up to the
largest degree t+d+1 read, 2d+2 for `compute_tF`, and where it meets K_d
up to that degree, K_d is the Hilbert function there: a generic form,
t_F = d + 1 with h0 = kappa, makes no run over QQ and keeps nothing on
the form. Where it does not meet K_d, as when t_F <= d, the full run over
QQ follows, and its data is kept on the form. K_d's bound on dim I_n,
n = t+d+1 <= 2d+2, comes from the sections known in advance: the radial
multiples f*R, f of degree t-1, and at t = d+1 the six Koszul fields
A_j*e_i - A_i*e_j, lie in the kernel, so
dim I_n <= 4 dim R_t - dim R_{t-1} - [t = d+1]*kappa, kappa their rank
modulo the radial multiples. That rank is a theorem: for a constant
bivector C and its dual 2-form C~, C.A is radial iff omega ^ i_R(C~) = 0,
iff omega = g*i_R(C~), so kappa is 5 on those forms and 6 on every
other. Every form of degree 0 is some i_R(C~); at d >= 1 the bound takes
kappa = 6, certified also where it is 5, as there I = g*J, J generated by
linear forms, and dim I_{2d+2} <= dim R_{d+2} < 4 dim R_{d+1} - dim R_d - 6.
So K_d = 1 - 4t^(d+1) + t^(d+2) + (6 - [d = 0])t^(2d+2). Every run of I,
mod p or over QQ, stops proving S-pairs zero where its leading terms fill
the bound; the full run's result is the same.

The section comes from one scan of the columns x^m*A_i of the contraction
map, in the order i*n + (index of m). The form's coefficients arrive as
packed integer rows, packed at parse (`exterior.checked_oneform`), so a
target monomial is a sum a + m of packed keys, looked up in a table of
grevlex ranks. Each column is keyed by the grevlex rank of its target
monomials, with a tag key per column that records the
combination, and is top-reduced against the earlier pivot columns by
`poly.fraction_free_step`, which cancels in place in the column, a fresh
dict that the scan owns, and divides out no content: a column that
becomes a pivot is stored as its `primitive_ints`, and no other column's
content is divided out. Every earlier column is a pivot or a free
column, so the tag of a column that reduces to zero is the RREF kernel
vector of that free column, up to scale. A radial multiple f*R is 1 at
x_i*f in each F_i, so each class modulo them has one representative
whose F_0 has no monomial divisible by x_0: the first kernel vector F not
in the radial span, reduced by clearing each x_0*f of F_0 with f*R, is
the canonical section. The scan returns it as primitive packed integer
rows; `minimal_section` certifies them and returns the `VField` that keeps
them, which the report prints from its rows, and `compute_tF` calls it at
the first twist t_F with h0 > 0 when t_F <= d.

At t_F = d + 1 no column is scanned. Theorem: if h0(t) = 0 for every
t <= d, which the sweep has read, the scan at twist d + 1 returns the
Koszul field K = (A_1, -A_0, 0, 0), reduced as above. Proof: A_0 != 0
and A_1 != 0, or e_0 or e_1 is a section at twist 0. gcd(A_0, A_1) = 1,
or with g that gcd, (A_1/g, -A_0/g, 0, 0) is a section at twist
d + 1 - deg g <= d, not radial as its F_3 is 0 while f*R has F_3 = x_3*f.
So A_0 F_0 + A_1 F_1 = 0 with deg F_i = d + 1 forces
(F_0, F_1) = c*(A_1, -A_0), c constant: the kernel vectors supported on
the F_0 and F_1 columns are exactly the multiples of K, and none ends
before K's last column. The scan's first free column is then that
column, its RREF kernel vector is K up to scale, and K is not radial, so
the scan returns the reduced K. More generally the scan at d + 1 returns
the reduced K exactly when gcd(A_0, A_1) = 1. `_koszul_section` builds
it in closed form, and it passes the same certificate as the scan's
section.

Each public function first checks its 1-form with `exterior.checked_oneform`:
InvalidForm unless it defines a distribution.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import BoundViolated, InternalInconsistency
from .exterior import (
    VField,
    _contraction,
    _of_rows,
    _radial_minors,
    checked_oneform,
    coefficient_ideal,
)
from .groebner import _pack, hilbert_numerator
from .hilbert import hilbert_function
from .poly import (
    _VARS,
    NVARS,
    dim_graded_piece,
    fraction_free_step,
    monomials_of_degree,
    primitive_ints,
)


class SectionSpaceDim(NamedTuple):
    """Dimension bookkeeping for the sections of F(t - 1), F the kernel sheaf
    of (s, delta) and I the ideal E maps onto: raw_kernel_dim =
    4R(t - 1 + s) - dim I_{t-1+delta}, radial_dim = R(t - 1), the Euler
    sequence's O(t - 1), and h0 their difference. For T_F, (s, delta) =
    (1, d + 2), they count the degree-t fields with sum A_i F_i = 0 and the
    radial multiples among them."""

    twist: int
    raw_kernel_dim: int
    radial_dim: int
    h0: int


def _dims(numerator, s, delta, t):
    """SectionSpaceDim of F(t - 1) for the kernel sheaf of (s, delta), from
    the Hilbert series numerator of the ideal that E maps onto."""
    n = t - 1 + delta
    raw = NVARS * dim_graded_piece(t - 1 + s) - dim_graded_piece(n) + hilbert_function(numerator, n)
    radial = dim_graded_piece(t - 1)
    return SectionSpaceDim(t, raw, radial, raw - radial)


def _reduced(v, mons, index):
    """The class of a kernel vector v of the contraction map at the twist
    whose packed monomials are mons, keyed i*n + (index of m) for x^m*e_i,
    modulo the radial span: each x_0*f of F_0 cleared with f*R, as four
    packed integer rows, primitive together and positive at the first
    column, so that every multiple prints the same; None if v is radial."""
    n = len(mons)
    # m = x_0*f (the x_0 field of m is nonzero): f*R is 1 at m in F_0 and
    # at x_i*f in F_i
    for k in [k for k in v if k < n and -mons[k] & 0xFFFF]:
        c, m = v.pop(k), mons[k]
        for i in range(1, NVARS):
            j = i * n + index[m - _VARS[0] + _VARS[i]]
            v[j] = v.get(j, 0) - c
            if not v[j]:
                del v[j]
    if not v:
        return None
    comps = [{} for _ in range(NVARS)]
    for col, c in primitive_ints(v).items():
        comps[col // n][mons[col % n]] = c
    return comps


def _section(coeffs, d, dprime):
    """Canonical non-radial section at a twist, or None, for the packed
    integer rows of the coefficients of a 1-form of degree d: the first RREF
    kernel vector F of the contraction map not in the radial span, as
    `_reduced` gives it."""
    src_mons = [_pack(m) for m in monomials_of_degree(dprime)]
    n = len(src_mons)
    index = {m: k for k, m in enumerate(src_mons)}
    rank = {_pack(m): k for k, m in enumerate(monomials_of_degree(dprime + d + 1))}
    tag = len(rank)  # tag keys follow the target keys, so a target key leads
    pivots = {}
    for col in range(NVARS * n):
        m = src_mons[col % n]
        v = {rank[a + m]: c for a, c in coeffs[col // n].items()}
        v[tag + col] = 1
        lead = min(v)
        while lead in pivots:
            fraction_free_step(v, pivots[lead], lead)
            lead = min(v)
        if lead < tag:
            pivots[lead] = primitive_ints(v)
            continue
        comps = _reduced({k - tag: c for k, c in v.items()}, src_mons, index)
        if comps is not None:
            return comps
    return None


def _koszul_section(coeffs, d):
    """The canonical section at twist d + 1 of a form with no section at a
    lower twist, in closed form: the Koszul field (A_1, -A_0, 0, 0) as
    `_reduced` gives it, which is `_section(coeffs, d, d + 1)` by the
    theorem of the module docstring."""
    mons = [_pack(m) for m in monomials_of_degree(d + 1)]
    n = len(mons)
    index = {m: k for k, m in enumerate(mons)}
    v = {index[m]: c for m, c in coeffs[1].items()}
    v.update({n + index[m]: -c for m, c in coeffs[0].items()})
    return _reduced(v, mons, index)


def h0_tangent_twist(omega, dprime):
    """h0 of the twist of the tangent sheaf whose sections are degree-dprime
    vector fields annihilated by the 1-form, modulo radial multiples."""
    d, _ = checked_oneform(omega)
    return _dims(hilbert_numerator(coefficient_ideal(omega), dprime + d + 1), 1, d + 2, dprime)


def _certified(fs, coeffs, dprime):
    """The field that keeps a section's primitive packed integer rows, or
    None for no section, once they are certified against the form's rows:
    they must annihilate the 1-form and must not be radial; a failed
    certificate raises InternalInconsistency."""
    if fs is None:
        return None
    if _contraction(fs, coeffs):
        raise InternalInconsistency(
            f"minimal section at twist {dprime} does not annihilate the 1-form"
        )
    if not any(_radial_minors(fs)):
        raise InternalInconsistency(f"minimal section at twist {dprime} is radial")
    return _of_rows(VField, 1, tuple(fs))


def minimal_section(omega, dprime):
    """Canonical non-radial section at the given twist, or None, from the
    scan, certified by `_certified`, which returns the field."""
    d, coeffs = checked_oneform(omega)
    return _certified(_section(coeffs, d, dprime), coeffs, dprime)


def compute_tF(omega):
    """Minimal twist with a section, and a canonical minimal section.

    `checked_oneform` checks the form and gives its degree d. The sweep
    stops by dprime = d + 1; hitting that cap without a section is an
    internal bug, since a section is guaranteed to exist by then. Below
    d + 1 the section comes from `minimal_section`'s scan; at d + 1, where
    the sweep has read that no lower twist has a section, it is the
    reduced Koszul field (A_1, -A_0, 0, 0), and no column is scanned. Both
    pass the same certificate. The Hilbert function of the sweep is K_d's
    where the capped run over GF(32003) meets K_d, as then
    HF_{K_d} <= HF_{R/I} <= HF_{R/I_p} pins it, and is the coefficient
    ideal's own otherwise, kept on it for a later `classify`
    (`groebner.hilbert_numerator`).
    """
    d, coeffs = checked_oneform(omega)
    # the sweep reads the Hilbert function up to degree (d + 1) + d + 1
    numerator = hilbert_numerator(coefficient_ideal(omega), 2 * d + 2)
    for dprime in range(d + 2):
        s = _dims(numerator, 1, d + 2, dprime)
        if s.h0 > 0:
            if dprime <= d:
                section = minimal_section(omega, dprime)
            else:
                section = _certified(_koszul_section(coeffs, d), coeffs, dprime)
            if section is None:
                raise BoundViolated(
                    "positive h0 but no non-radial kernel vector found"
                )
            return dprime, section, s
    raise BoundViolated(
        f"no section of the tangent sheaf found up to twist {d + 1}"
    )
