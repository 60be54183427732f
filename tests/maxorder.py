"""The paper's maximal-order distributions: 1-forms of degree d whose tangent
sheaf has a section of degree 1, the linear field v.

The 1-forms omega = sum A_i dx_i with coefficients of degree d + 1 and
i_R omega = i_v omega = 0 are the kernel of one integer matrix; a seeded
combination of its RREF kernel basis, with coefficients in [-3, 3], is one
form. Rows that zero every coefficient monomial outside the ideal of a line
of Sing(v) put that line into Sing(omega).

`pullback` gives the 1-forms pulled back from P^2, which have no x3 and no
dx3.
"""

import random

from p3dist.exterior import ExtForm, VField
from p3dist.poly import X0, X1, X2, Poly, mon_mul, monomials_of_degree, primitive_row

from echelon import _kernel, _pivot_rows


def _matrix(blocks):
    """Block-diagonal 4x4 matrix of Jordan blocks, given as (eigenvalue, size)."""
    m = [[0] * 4 for _ in range(4)]
    i = 0
    for value, size in blocks:
        for k in range(size):
            m[i + k][i + k] = value
            if k + 1 < size:
                m[i + k][i + k + 1] = 1
        i += size
    return m


# name -> (v as Jordan blocks, lines of Sing(v) put into Sing(omega) as the
# pairs of variables that cut them out, the verdict: class, family, the
# Chern triple as a function of d, and v's degree-1 case). Up to the radial
# field, the rows' fields run over the 11 Segre symbols of a linear field
# whose eigenspaces have dimension at most 2: [1111], [211], [(11)11],
# [31], [22], [(11)(11)], [(21)1], [2(11)], [(31)], [4] and [(22)]
ROWS = {
    "distinct": ([(1, 1), (3, 1), (5, 1), (7, 1)], (), "split", None,
                 lambda d: (2 - d, 0, 0), "stable-points"),
    "jordan2": ([(1, 2), (3, 1), (5, 1)], (), "split", None,
                lambda d: (2 - d, 0, 0), "stable-points"),
    "jordan3": ([(1, 3), (3, 1)], (), "split", None,
                lambda d: (2 - d, 0, 0), "stable-points"),
    "jordan2x2": ([(1, 2), (3, 2)], (), "split", None,
                  lambda d: (2 - d, 0, 0), "stable-points"),
    "line": ([(1, 1), (1, 1), (3, 1), (5, 1)], (), "unstable", 1,
             lambda d: (2 - d, 1, d), "semistable-line"),
    "line-in-sing": ([(1, 1), (1, 1), (3, 1), (5, 1)], ((2, 3),), "split", None,
                     lambda d: (2 - d, 0, 0), "semistable-line"),
    "skew-lines": ([(1, 1), (1, 1), (3, 1), (3, 1)], (), "unstable", 2,
                   lambda d: (2 - d, 2, 2 * d), "split-skew-or-double"),
    "skew-line-in-sing": ([(1, 1), (1, 1), (3, 1), (3, 1)], ((2, 3),), "unstable", 1,
                          lambda d: (2 - d, 1, d), "split-skew-or-double"),
    "jordan2-same": ([(1, 2), (1, 1), (3, 1)], (), "unstable", 1,
                     lambda d: (2 - d, 1, d), "semistable-line"),
    "jordan2-line": ([(1, 2), (3, 1), (3, 1)], (), "unstable", 1,
                     lambda d: (2 - d, 1, d), "semistable-line"),
    "jordan3-same": ([(1, 3), (1, 1)], (), "unstable", 1,
                     lambda d: (2 - d, 1, d), "semistable-line"),
    "jordan4": ([(1, 4)], (), "split", None,
                lambda d: (2 - d, 0, 0), "stable-points"),
    "double-line": ([(1, 2), (1, 2)], (), "unstable", 2,
                    lambda d: (2 - d, 2, 2 * d), "split-skew-or-double"),
}


def linear_field(row):
    """The row's field v, v_i = sum_j M_ij x_j."""
    m = _matrix(ROWS[row][0])
    units = monomials_of_degree(1)  # x0, x1, x2, x3
    return VField([Poly({units[j]: c for j, c in enumerate(r) if c}) for r in m])


def oneform(row, d, seed):
    """The seeded 1-form of degree d of a row, as an ExtForm."""
    blocks, lines = ROWS[row][:2]
    m = _matrix(blocks)
    mons = monomials_of_degree(d + 1)
    units = monomials_of_degree(1)
    rows = {}
    for i in range(4):
        for k, mon in enumerate(mons):
            col = i * len(mons) + k
            # i_R omega: x_i A_i; i_v omega: v_i A_i
            rows.setdefault(("R", mon_mul(units[i], mon)), {})[col] = 1
            for j, c in enumerate(m[i]):
                if c:
                    rows.setdefault(("v", mon_mul(units[j], mon)), {})[col] = c
            if any(mon[a] == 0 and mon[b] == 0 for a, b in lines):
                rows[("line", col)] = {col: 1}
    basis = _kernel(_pivot_rows(list(rows.values())), 4 * len(mons))
    rng = random.Random(f"{seed}:{row}:{d}")
    vec = {}
    for v in basis:
        c = rng.randint(-3, 3)
        for col, x in v.items():
            vec[col] = vec.get(col, 0) + c * x
    vec = primitive_row({col: x for col, x in vec.items() if x})
    coeffs = [{} for _ in range(4)]
    for col, c in vec.items():
        coeffs[col // len(mons)][mons[col % len(mons)]] = c
    return ExtForm.one_form(*(Poly(t) for t in coeffs))


def pullback(d, seed):
    """The seeded 1-form of degree d pulled back from P^2: the contraction by
    x0 d/dx0 + x1 d/dx1 + x2 d/dx2 of B01 dx0^dx1 + B02 dx0^dx2 + B12 dx1^dx2,
    each B_ij of degree d in x0, x1, x2 with coefficients in [-3, 3]."""
    rng = random.Random(f"{seed}:pullback:{d}")
    mons = [m for m in monomials_of_degree(d) if m[3] == 0]
    b01, b02, b12 = (Poly({m: rng.randint(-3, 3) for m in mons}) for _ in range(3))
    return ExtForm.one_form(-X1 * b01 - X2 * b02, X0 * b01 - X2 * b12,
                            X0 * b02 + X1 * b12, Poly.zero())
