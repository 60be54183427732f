"""End-to-end analysis of codimension-one distributions given by a 1-form.

Validation, singular scheme, numerical invariants, integrability, the
minimal twist with a section, split detection, stability class with order
of nonstability, and matching against the two maximal-order families.
The results are immutable records, named tuples read by field.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .errors import (
    DivisorialSingularity,
    DomainError,
    InconsistentInvariants,
    NumericContradiction,
)
from .exterior import VField, checked_oneform, coefficient_ideal
from .groebner import Ideal, divide_exact, intersect, saturate
from .hilbert import hilbert
from .linalg import compute_tF
from .poly import NVARS, ZERO_MON, Poly, add_product, diff_row


# largest d_max that table1 accepts
TABLE1_DMAX = 100

# the two maximal-order families: family -> its Chern triple at degree d
FAMILY_CHERN = {
    1: lambda d: (2 - d, 1, d),
    2: lambda d: (2 - d, 2, 2 * d),
}


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


def _oneform_numbers(omega):
    """(d, (degC, pa, lenU), chern) of a checked 1-form, from the Hilbert data
    of its coefficient ideal, which stays there for `compute_tF`."""
    d, _ = checked_oneform(omega)
    degc, pa, lenu = curve_invariants(
        coefficient_ideal(omega),
        lambda degc: d ** 3 + 2 * d ** 2 + 2 * d - degc * (3 * d - 2) - 2,
    )
    return d, (degc, pa, lenu), ChernTriple(2 - d, d ** 2 + 2 - degc, lenu)


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

    `checked_oneform` checks the form first. The check runs on integer
    multiples A_i of the coefficients: d(omega) has the dx_i^dx_j
    coefficient B_ij = d_i A_j - d_j A_i (i < j), and the dx_i^dx_j^dx_k
    coefficient of omega ^ d(omega) (i < j < k) is
    A_i B_jk - A_j B_ik + A_k B_ij.
    """
    _, a = checked_oneform(omega)
    b = {}
    for i, j in combinations(range(NVARS), 2):
        b[i, j] = diff_row(a[j], i)
        add_product(b[i, j], diff_row(a[i], j), {ZERO_MON: 1}, -1)
    for i, j, k in combinations(range(NVARS), 3):
        out = {}
        add_product(out, a[i], b[j, k])
        add_product(out, a[j], b[i, k], -1)
        add_product(out, a[k], b[i, j])
        if out:
            return False
    return True


def invariants(omega):
    """Singular-scheme invariants and Chern triple of the tangent sheaf."""
    _, sing, chern = validate_oneform(omega)
    return sing, chern


def curve_invariants(ideal, c3_base):
    """(degC, pa, lenU) of a singular scheme made of a curve C and lenU points.

    `ideal` is generated by the polynomials whose vanishing defines the
    scheme (the coefficients of a 1-form, or the 2x2 minors of a vector
    field against the radial field), or is its saturation: the two agree in
    high degree, so `hilbert(ideal)` gives their one Hilbert polynomial
    HP(t) = degC*t + 1 - pa + lenU. With c3 = lenU = c3_base(degC) + 2*pa,
    pa is solved from the constant term. Height-one primes of a UFD are
    principal: a scheme of dimension 2 is exactly a common factor g of
    those polynomials, rejected naming g. They generate g*J, J of
    codimension >= 2, so I^sat = g*J^sat, and g is the gcd of the gens of either.
    """
    h = hilbert(ideal)
    dim = h.projective_dimension
    if dim == 2:
        g = common_factor(ideal.gens)
        if g.is_constant():
            raise InconsistentInvariants("surface in the singular scheme without a common factor")
        raise DivisorialSingularity(f"coefficients share the factor {g}")
    if dim <= 0:
        # no curve (degC = 0, pa = 1): the points alone must give c3
        if h.degree != c3_base(0) + 2:
            raise InconsistentInvariants(
                f"isolated length {h.degree} contradicts the invariant count"
            )
        return 0, 1, h.degree
    degc = h.degree
    k = h.constant_term
    if k.denominator != 1:
        raise InconsistentInvariants("non-integral Hilbert constant term")
    pa = int(k) - 1 - c3_base(degc)
    lenu = c3_base(degc) + 2 * pa
    if lenu < 0:
        raise InconsistentInvariants(f"negative isolated length {lenu}")
    return degc, pa, lenu


def _split_type(d, t):
    """O(1 - t) + O(1 + t - d) as (1 - t, 1 + t - d); None when d < 2t."""
    return None if d < 2 * t else (1 - t, 1 + t - d)


def split_test(tF, chern, degree):
    """Split type (a, b) when the twisted second Chern class vanishes."""
    c2_twisted = chern.c2 + chern.c1 * (tF - 1) + (tF - 1) ** 2
    if c2_twisted != 0:
        return None
    split = _split_type(degree, tF)
    if split is None:
        raise NumericContradiction(
            f"split test passed with d={degree} < 2*tF={2 * tF}"
        )
    return split


def _stability(degree, tF, split, chern):
    """The class read from the order of nonstability (d + eps)/2 - tF."""
    eps = degree % 2
    if split is not None:
        return StabilityVerdict(eps, "split", 0, False, None)
    order = (degree + eps) // 2 - tF
    if order == 0 and eps == 0:
        return StabilityVerdict(eps, "strictly-semistable", 0, False, None)
    if order <= 0:
        return StabilityVerdict(eps, "stable", 0, False, None)
    if degree < 3 or tF < 1:
        raise InconsistentInvariants(
            f"nonsplit sheaf with d={degree}, tF={tF} fits no stability class"
        )
    family = next((f for f, triple in FAMILY_CHERN.items()
                   if tF == 1 and chern == triple(degree)), None)
    return StabilityVerdict(eps, "unstable", order, tF == 1, family)


def classify(omega):
    """Full analysis pipeline producing a DistReport. `validate_oneform`
    checks the form; `compute_tF` and `is_integrable` reuse the check."""
    d, sing, chern = validate_oneform(omega)
    tF, section, sdim = compute_tF(omega)
    split = split_test(tF, chern, d)
    verdict = _stability(d, tF, split, chern)
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
    return [[_split_type(d, t) for t in range(d_max // 2 + 1)] for d in range(d_max + 1)]


def splitruim_invariants(t):
    """Curve degree and genus of the semistable split family at twist t."""
    if t < 0:
        raise DomainError("t must be non-negative")
    return (3 * t * t + 2 * t + 1, t * (5 * t * t - t - 1))


def line_family_invariants(d, t):
    """Chern triple when the minimal section vanishes exactly on a line."""
    if d < 2 * (t - 1):
        raise DomainError(f"requires d >= 2(t-1), got d={d}, t={t}")
    return ChernTriple(2 - d, -t * t + d * (t - 1) + 2, d - 2 * (t - 1))


def family_dim(family, d):
    """Dimension of the parameter variety of each maximal-order family."""
    if d < 3:
        raise DomainError("families require degree at least 3")
    if family == 1:
        return d + 4
    if family == 2:
        return 2 * d + 7
    raise DomainError(f"unknown family {family}")
