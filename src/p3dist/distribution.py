"""End-to-end analysis of codimension-one distributions given by a 1-form.

Validation, singular scheme, numerical invariants, integrability, the
minimal twist with a section, split detection, stability class with order
of nonstability, and matching against the two maximal-order families.
The tangent sheaf T_F = ker(T_P3 -> I_Z(d + 2)) and the conormal sheaf of
a field (`foliation`) are one kernel sheaf, whose Chern triple `_chern`
gives from the sheaf's (s, delta) and the curve's degree and genus; a sheaf
with a section that vanishes on a curve has the triple `_section_chern`
gives. The results are immutable records, named tuples read by field.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .errors import (
    DivisorialSingularity,
    DomainError,
    InconsistentInvariants,
    InternalInconsistency,
    NumericContradiction,
)
from .exterior import VField, checked_oneform, coefficient_ideal
from .groebner import Ideal, divide_exact, intersect, saturate
from .hilbert import hilbert
from .linalg import _dims, compute_tF
from .poly import NVARS, Poly, add_row_product, diff_row, dim_graded_piece


# largest d_max that table1 accepts
TABLE1_DMAX = 100

# the two maximal-order families: family -> (degZ, pa) of the curve Z on which
# the section at t_F = 1 vanishes: a line, or two skew lines or a double line
FAMILY_CURVE = {1: (1, 0), 2: (2, -1)}


class ChernTriple(NamedTuple):
    c1: int
    c2: int
    c3: int

    def as_tuple(self):
        return tuple(self)


class SingInvariants(NamedTuple):
    degC: int
    pa: int
    lenU: int
    sat_ideal: Ideal


class StabilityVerdict(NamedTuple):
    epsilon: int
    klass: str          # split | stable | strictly-semistable | unstable
    order: int
    max_order_flag: bool
    family: int | None


class DistReport(NamedTuple):
    degree: int
    integrable: bool
    regular: bool
    sing: SingInvariants
    chern: ChernTriple
    tF: int
    h0_at_tF: int
    minimal_section: VField
    stability: StabilityVerdict
    split_type: tuple | None
    notes: tuple = ()


def poly_gcd(f, g):
    """gcd of two polynomials via lcm = generator of (f) meet (g)."""
    if f.is_zero():
        return g
    if g.is_zero():
        return f
    inter = intersect(Ideal((f,)), Ideal((g,)))
    if len(inter.gens) != 1:
        raise InconsistentInvariants("intersection of principal ideals not principal")
    lcm = inter.gens[0]
    return divide_exact(f * g, lcm).primitive_integer()


def common_factor(polys):
    """gcd of a list of polynomials, primitive with a positive leading
    coefficient; a constant result means no common factor."""
    acc = Poly.zero()
    for p in polys:
        acc = poly_gcd(acc, p)
        if acc.is_constant() and not acc.is_zero():
            break
    return acc.primitive_integer()


def singular_scheme(omega):
    """Saturated vanishing ideal of the coefficients of a 1-form that
    defines a distribution (`checked_oneform` raises otherwise). The
    coefficient ideal stays on the form with its Hilbert data, which
    `compute_tF` reads."""
    return saturate(coefficient_ideal(omega))


def _chern(s, delta, degc, pa):
    """The Chern triple of F = ker(E -> I_Z(delta)), c(E) = (1 + sH)^4, when Z
    is a curve of degree degC and arithmetic genus pa plus c3 points: the
    tangent sheaf of a 1-form of degree d (E = T_P3, s = 1, delta = d + 2)
    or the conormal sheaf of a field of degree d' (E = Omega^1, s = -1,
    delta = d' - 1). c(F) c(I_Z(delta)) = c(E) gives c1 and c2, and
    Riemann-Roch, chi(F(k)) = chi(E(k)) - chi(I_Z(k + delta)) for every k,
    gives c3 = base + 2*pa (Hartshorne, Math. Ann. 254, 1980, Sec. 2)."""
    base = (delta ** 3 - 4 * s * delta ** 2 + 6 * delta - 2 - 4 * s
            - (3 * delta - 4 * s - 4) * degc)
    return ChernTriple(4 * s - delta, delta ** 2 - 4 * s * delta + 6 - degc, base + 2 * pa)


def _section_chern(c1, t, degz, pa):
    """The Chern triple of a rank-2 reflexive F with c1(F) = c1 whose twist
    F(t - 1) has a section vanishing exactly on a curve Z of degree degZ and
    arithmetic genus pa; no curve is degree 0 and genus 1. With k = t - 1,
    0 -> O -> F(k) -> I_Z(c1 + 2k) -> 0 gives c2(F(k)) = degZ and
    c3 = 2pa - 2 + degZ*(4 - c1(F(k))) (Hartshorne, Math. Ann. 254, 1980,
    Thm 4.1)."""
    k = t - 1
    return ChernTriple(c1, degz - c1 * k - k * k, 2 * pa - 2 + degz * (4 - c1 - 2 * k))


def _oneform_numbers(omega):
    """(d, (degC, pa, lenU), chern) of a checked 1-form, from the Hilbert data
    of its coefficient ideal, which stays there for `compute_tF`."""
    d, _ = checked_oneform(omega)
    return d, *curve_invariants(coefficient_ideal(omega), 1, d + 2)


def validate_oneform(omega):
    """Check the 1-form defines a distribution and read its singular scheme.

    `checked_oneform` checks the form; the Hilbert data of its coefficient
    ideal gives the numbers and rejects a scheme that contains a surface
    before any elimination runs, and the saturation only fills `sat_ideal`.
    Returns (d, sing, chern): the degree, the singular-scheme invariants
    and the Chern triple of the tangent sheaf.
    """
    d, numbers, chern = _oneform_numbers(omega)
    return d, SingInvariants(*numbers, singular_scheme(omega)), chern


def is_integrable(omega):
    """Frobenius condition for a 1-form: omega wedge d(omega) = 0.

    `checked_oneform` checks the form, the Euler relation i_R omega = 0
    among its checks. The check runs on the form's packed integer rows
    A_i: d(omega) has the dx_i^dx_j coefficient
    B_ij = d_i A_j - d_j A_i (i < j). By Euler, i_R d(omega) = L_R omega =
    (d + 2)*omega, so i_R(omega ^ d(omega)) = -(d + 2)*omega ^ omega = 0,
    and as the Koszul complex of R is exact at 3-forms, omega ^ d(omega)
    = i_R(h*dx0^dx1^dx2^dx3), whose dx1^dx2^dx3 coefficient is x0*h. So
    omega ^ d(omega) = 0 iff A_1 B_23 - A_2 B_13 + A_3 B_12 = 0.
    """
    _, a = checked_oneform(omega)
    b = {}
    for i, j in combinations(range(1, NVARS), 2):
        b[i, j] = diff_row(a[j], i)
        add_row_product(b[i, j], diff_row(a[i], j), {0: 1}, -1)
    out = {}
    add_row_product(out, a[1], b[2, 3])
    add_row_product(out, a[2], b[1, 3], -1)
    add_row_product(out, a[3], b[1, 2])
    return not out


def invariants(omega):
    """Singular-scheme invariants and Chern triple of the tangent sheaf."""
    _, sing, chern = validate_oneform(omega)
    return sing, chern


def curve_invariants(ideal, s, delta, gens_name="coefficients"):
    """((degC, pa, lenU), chern) of a singular scheme Z made of a curve C and
    lenU points, for the sheaf F = ker(E -> I_Z(delta)) of `_chern`.

    `ideal` is generated by the polynomials whose vanishing defines the
    scheme (the coefficients of a 1-form, or the 2x2 minors of a vector
    field against the radial field), or is its saturation: the two agree in
    high degree, so `hilbert(ideal)` gives their one Hilbert polynomial
    HP(t) = degC*t + 1 - pa + lenU. With lenU = c3 = base + 2*pa, pa is
    solved from the constant term; points alone are a curve of degree 0,
    whose pa must be 1. Height-one primes of a UFD are principal: a scheme
    of dimension 2 is exactly a common factor g of those polynomials,
    rejected naming g and the generators by `gens_name`. They generate g*J,
    J of codimension >= 2, so I^sat = g*J^sat, and g is the gcd of the gens
    of either.
    """
    h = hilbert(ideal)
    dim = h.projective_dimension
    if dim == 2:
        g = common_factor(ideal.gens)
        if g.is_constant():
            raise InconsistentInvariants("surface in the singular scheme without a common factor")
        raise DivisorialSingularity(f"{gens_name} share the factor {g}")
    degc = h.degree if dim > 0 else 0
    k = h.constant_term
    if k.denominator != 1:
        raise InconsistentInvariants("non-integral Hilbert constant term")
    pa = int(k) - 1 - _chern(s, delta, degc, 0).c3
    if dim <= 0 and pa != 1:
        raise InconsistentInvariants(f"isolated length {h.degree} contradicts the invariant count")
    chern = _chern(s, delta, degc, pa)
    if chern.c3 < 0:
        raise InconsistentInvariants(f"negative isolated length {chern.c3}")
    return (degc, pa, chern.c3), chern


def _split_type(c1, t):
    """O(1 - t) + O(c1 + t - 1), the split sheaf with c1 whose first twist
    with a section is F(t - 1), as (1 - t, c1 + t - 1); None when
    c1 + 2t > 2, where c1 + t - 1 > 1 - t gives a section at a lower twist."""
    return None if c1 + 2 * t > 2 else (1 - t, c1 + t - 1)


def split_test(t, chern):
    """Split type (a, b) when the first section, of F(t - 1), vanishes on no
    curve: c2 is that of `_section_chern` on degree 0 and genus 1."""
    if chern.c2 != _section_chern(chern.c1, t, 0, 1).c2:
        return None
    split = _split_type(chern.c1, t)
    if split is None:
        raise NumericContradiction(f"split test passed with c1={chern.c1} > 2 - 2t={2 - 2 * t}")
    return split


def _check_split(split, numerator, d):
    """A split T_F = O(a) + O(b) has h0(T_F(t - 1)) = R(a + t - 1) + R(b + t - 1),
    R(n) = dim R_n; the numerator of the coefficient ideal must give that
    h0 at every twist t <= d + 1, or InternalInconsistency is raised."""
    a, b = split
    for t in range(d + 2):
        h0 = _dims(numerator, 1, d + 2, t).h0
        expected = dim_graded_piece(a + t - 1) + dim_graded_piece(b + t - 1)
        if h0 != expected:
            raise InternalInconsistency(
                f"h0 at twist {t} is {h0}, not {expected} as the split type {split} gives")


def _stability(t, split, chern):
    """The class read from the order of nonstability (eps - c1)/2 - (t - 1),
    eps = c1 mod 2, when F(t - 1) is the first twist with a section; for
    T_F, c1 = 2 - d, that is (d + eps)/2 - t_F."""
    c1, eps = chern.c1, chern.c1 % 2
    if split is not None:
        return StabilityVerdict(eps, "split", 0, False, None)
    order = (eps - c1) // 2 - (t - 1)
    if order == 0 and eps == 0:
        return StabilityVerdict(eps, "strictly-semistable", 0, False, None)
    if order <= 0:
        return StabilityVerdict(eps, "stable", 0, False, None)
    if c1 >= 0 or t < 1:
        raise InconsistentInvariants(
            f"nonsplit sheaf with c1={c1}, t={t} fits no stability class"
        )
    family = next((f for f, curve in FAMILY_CURVE.items()
                   if t == 1 and chern == _section_chern(c1, 1, *curve)), None)
    return StabilityVerdict(eps, "unstable", order, t == 1, family)


def classify(omega):
    """Full analysis pipeline producing a DistReport. `validate_oneform`
    checks the form; `compute_tF` and `is_integrable` reuse the check."""
    d, sing, chern = validate_oneform(omega)
    tF, section, sdim = compute_tF(omega)
    split = split_test(tF, chern)
    if split is not None:
        _check_split(split, hilbert(coefficient_ideal(omega)).numerator, d)
    verdict = _stability(tF, split, chern)
    notes = []
    if chern.c2 < 0:
        notes.append("negative c2: no nonempty minimal-section curve exists")
    regular = sing.sat_ideal.is_unit()
    return DistReport(
        degree=d,
        integrable=is_integrable(omega),
        regular=regular,
        sing=sing,
        chern=chern,
        tF=tF,
        h0_at_tF=sdim.h0,
        minimal_section=section,
        stability=verdict,
        split_type=split,
        notes=tuple(notes),
    )


def table1(d_max):
    """Split types O(1-t) + O(1+t-d) for 0 <= d <= d_max; impossible cells None.

    The table has (d_max + 1) * (d_max // 2 + 1) cells, so d_max is capped
    at TABLE1_DMAX."""
    if d_max < 0:
        raise DomainError("d_max must be non-negative")
    if d_max > TABLE1_DMAX:
        raise DomainError(f"d_max must be at most TABLE1_DMAX = {TABLE1_DMAX}, got {d_max}")
    return [[_split_type(2 - d, t) for t in range(d_max // 2 + 1)] for d in range(d_max + 1)]


def splitruim_invariants(t):
    """Curve degree and genus of the semistable split family at twist t: the
    (degC, pa) of the singular curve of a 1-form of degree d = 2t whose
    T_F is O(1 - t)^2, which has a section at t vanishing nowhere."""
    if t < 0:
        raise DomainError("t must be non-negative")
    split, delta = _section_chern(2 - 2 * t, t, 0, 1), 2 * t + 2
    degc = _chern(1, delta, 0, 0).c2 - split.c2
    return degc, (split.c3 - _chern(1, delta, degc, 0).c3) // 2


def line_family_invariants(d, t):
    """Chern triple when the minimal section vanishes exactly on a line."""
    if d < 2 * (t - 1):
        raise DomainError(f"requires d >= 2(t-1), got d={d}, t={t}")
    return _section_chern(2 - d, t, 1, 0)
