"""Exterior calculus on the homogeneous cone over P^3.

Forms are graded-antisymmetric tables indexed by strictly increasing index
tuples from {0,1,2,3} with polynomial coefficients. Grade-1 forms with
coefficients (A0..A3) represent A0*dx0 + ... + A3*dx3.

`wedge`, `exterior_derivative`, `contract` and `minors_against_radial`
build forms with Fraction coefficients. The checks that such a product
vanishes run on integer multiples of the coefficients instead: sum F_i A_i
through `_contraction` and the field minors through `_radial_minors`. A
checked 1-form keeps its degree, those multiples and the ideal they generate,
which carries the numerator K_d of its radial and Koszul syzygies for every
Buchberger run of it; the singular scheme and the section spaces read it.
"""

from __future__ import annotations

from itertools import combinations

from .errors import EulerViolation, GradeOverflow, InvalidForm
from .groebner import Ideal
from .hilbert import numerator_from_terms
from .poly import NVARS, Poly, add_product, integer_multiples

_INDEX_SETS = {g: tuple(combinations(range(NVARS), g)) for g in range(NVARS + 1)}
# the components x0..x3 of the radial field, as integer dicts
_RADIAL = tuple({tuple(int(i == j) for j in range(NVARS)): 1} for i in range(NVARS))


def _merge_sign(a, b):
    """Sign of sorting a+b into increasing order; 0 if a repeated index."""
    if set(a) & set(b):
        return None, 0
    merged = a + b
    inv = 0
    for i in range(len(merged)):
        for j in range(i + 1, len(merged)):
            if merged[i] > merged[j]:
                inv += 1
    return tuple(sorted(merged)), (-1) ** inv


class ExtForm:
    """Exterior differential form of grade g with Poly coefficients."""

    __slots__ = ("grade", "coeffs", "_checked")

    def __init__(self, grade, coeffs=None):
        if grade not in range(NVARS + 1):
            raise ValueError(f"grade must be 0..{NVARS}, got {grade}")
        table = {idx: Poly.zero() for idx in _INDEX_SETS[grade]}
        if coeffs:
            for idx, p in coeffs.items():
                idx = tuple(idx)
                if idx not in table:
                    raise ValueError(f"bad index tuple {idx} for grade {grade}")
                table[idx] = p if isinstance(p, Poly) else Poly.constant(p)
        object.__setattr__(self, "grade", grade)
        object.__setattr__(self, "coeffs", table)
        object.__setattr__(self, "_checked", None)

    def __setattr__(self, name, value):
        raise AttributeError("ExtForm is immutable")

    @staticmethod
    def from_function(f):
        """Grade-0 form from a polynomial."""
        return ExtForm(0, {(): f})

    @staticmethod
    def one_form(a0, a1, a2, a3):
        return ExtForm(1, {(0,): a0, (1,): a1, (2,): a2, (3,): a3})

    def one_form_coeffs(self):
        if self.grade != 1:
            raise InvalidForm("expected a grade-1 form")
        return tuple(self.coeffs[(i,)] for i in range(NVARS))

    def is_zero(self):
        return all(p.is_zero() for p in self.coeffs.values())

    def __add__(self, other):
        if self.grade != other.grade:
            raise ValueError("cannot add forms of different grade")
        return ExtForm(
            self.grade,
            {idx: self.coeffs[idx] + other.coeffs[idx] for idx in self.coeffs},
        )

    def __neg__(self):
        return ExtForm(self.grade, {idx: -p for idx, p in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        return ExtForm(self.grade, {idx: p * scalar for idx, p in self.coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, ExtForm):
            return NotImplemented
        return self.grade == other.grade and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.grade, frozenset(self.coeffs.items())))

    def __repr__(self):
        nz = {idx: str(p) for idx, p in self.coeffs.items() if not p.is_zero()}
        return f"ExtForm(grade={self.grade}, {nz})"


def _common_degree(polys):
    """Homogeneous degree shared by the nonzero polys; None if there is
    none, or if all are zero."""
    degs = {p.homogeneous_degree() for p in polys if not p.is_zero()}
    return degs.pop() if len(degs) == 1 and None not in degs else None


def oneform_degree(omega):
    """(d, A): the degree d of the distribution the 1-form defines and integer
    multiples A of its coefficients, which are homogeneous of degree d + 1 >= 1,
    not all zero, with sum x_i A_i = 0. Raises InvalidForm (or EulerViolation)."""
    coeffs = omega.one_form_coeffs()
    if all(p.is_zero() for p in coeffs):
        raise InvalidForm("zero 1-form")
    dega = _common_degree(coeffs)
    if dega is None:
        raise InvalidForm("coefficients must be homogeneous of a common degree")
    if dega < 1:
        raise InvalidForm("coefficient degree must be at least 1")
    _, a = integer_multiples(coeffs)
    if _contraction(_RADIAL, a):
        raise EulerViolation("coefficients do not satisfy the Euler relation")
    return dega - 1, a


def _koszul_numerator(d):
    """K_d = 1 - 4t^(d+1) + t^(d+2) + (6 - [d = 0])t^(2d+2): the coefficient
    ideal I of every 1-form of degree d has HF_{R/I}(n) >= HF_{K_d}(n) for
    n <= 2d + 2, as the `linalg` module docstring proves."""
    return numerator_from_terms(((0, 1), (d + 1, -4), (d + 2, 1), (2 * d + 2, 6 - (d == 0))))


def checked_oneform(omega):
    """(d, A) of `oneform_degree`, kept on the form after the first call
    together with the form's coefficient ideal, which carries K_d."""
    if omega._checked is None:
        d, a = oneform_degree(omega)
        object.__setattr__(omega, "_checked", ((d, a), Ideal._of_rows(a, _koszul_numerator(d))))
    return omega._checked[0]


def coefficient_ideal(omega):
    """The ideal (A_0, ..., A_3) of a 1-form that `checked_oneform` accepts,
    kept with its check, so that its reduced basis and Hilbert data are
    computed once per form."""
    checked_oneform(omega)
    return omega._checked[1]


def wedge(a, b):
    """Exterior product, with dx_i ^ dx_j = -dx_j ^ dx_i."""
    g = a.grade + b.grade
    if g > NVARS:
        raise GradeOverflow(f"wedge of grades {a.grade} and {b.grade} exceeds {NVARS}")
    out = {idx: Poly.zero() for idx in _INDEX_SETS[g]}
    for ia, pa in a.coeffs.items():
        if pa.is_zero():
            continue
        for ib, pb in b.coeffs.items():
            if pb.is_zero():
                continue
            idx, sign = _merge_sign(ia, ib)
            if sign:
                out[idx] = out[idx] + sign * (pa * pb)
    return ExtForm(g, out)


def exterior_derivative(a):
    """d operator; raises grade by one."""
    if a.grade >= NVARS:
        raise ValueError("cannot differentiate a top-grade form")
    out = {idx: Poly.zero() for idx in _INDEX_SETS[a.grade + 1]}
    for idx, p in a.coeffs.items():
        for i in range(NVARS):
            dp = p.diff(i)
            if dp.is_zero():
                continue
            new, sign = _merge_sign((i,), idx)
            if sign:
                out[new] = out[new] + sign * dp
    return ExtForm(a.grade + 1, out)


class VField:
    """Polynomial vector field F0*d/dx0 + ... + F3*d/dx3. `_minors` keeps
    the ideal of its minors against the radial field once
    `foliation.sing_scheme_v` has built it."""

    __slots__ = ("components", "_minors")

    def __init__(self, components):
        comps = tuple(
            p if isinstance(p, Poly) else Poly.constant(p) for p in components
        )
        if len(comps) != NVARS:
            raise ValueError(f"need {NVARS} components")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "_minors", None)

    def __setattr__(self, name, value):
        raise AttributeError("VField is immutable")

    def is_zero(self):
        return all(p.is_zero() for p in self.components)

    def __eq__(self, other):
        if not isinstance(other, VField):
            return NotImplemented
        return self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __repr__(self):
        return f"VField({', '.join(str(p) for p in self.components)})"


def field_degree(v):
    """Degree d of the foliation by curves the field defines, whose
    components are homogeneous of one degree d, not all zero. Raises
    InvalidForm."""
    d = _common_degree(v.components)
    if d is None:
        raise InvalidForm(
            "components must be homogeneous of a common degree and not all zero"
        )
    return d


def radial_field():
    """The distinguished Euler field (x0, x1, x2, x3)."""
    return VField(tuple(Poly.variable(i) for i in range(NVARS)))


def minors_against_radial(v):
    """The six 2x2 minors F_i*x_j - F_j*x_i of the field against the radial
    field; they define its singular scheme, and all vanish exactly when the
    field is a polynomial multiple of the radial field."""
    out = []
    for i in range(NVARS):
        for j in range(i + 1, NVARS):
            out.append(
                v.components[i] * Poly.variable(j)
                - v.components[j] * Poly.variable(i)
            )
    return out


def contract(v, a):
    """Interior product i_v(a); lowers grade by one."""
    if a.grade < 1:
        raise ValueError("cannot contract a grade-0 form")
    out = {idx: Poly.zero() for idx in _INDEX_SETS[a.grade - 1]}
    for idx, p in a.coeffs.items():
        if p.is_zero():
            continue
        for pos, i in enumerate(idx):
            f = v.components[i]
            if f.is_zero():
                continue
            rest = idx[:pos] + idx[pos + 1:]
            out[rest] = out[rest] + ((-1) ** pos) * (f * p)
    return ExtForm(a.grade - 1, out)


def _contraction(fs, a):
    """sum F_i A_i of integer dicts."""
    out = {}
    for f, c in zip(fs, a):
        add_product(out, f, c)
    return out


def _radial_minors(fs):
    """The six minors F_i*x_j - F_j*x_i of `minors_against_radial` as integer
    dicts, for integer multiples fs of the components F_i of a field."""
    minors = []
    for i, j in combinations(range(NVARS), 2):
        minor = {}
        add_product(minor, fs[i], _RADIAL[j])
        add_product(minor, fs[j], _RADIAL[i], -1)
        minors.append(minor)
    return minors
