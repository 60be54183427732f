"""Seeded input generators for the benchmark workloads.

Inputs are JSON documents of the kinds the p3dist CLI reads.  They are
built here with plain dict polynomials (monomial exponent tuple -> int),
so generation does not depend on the code being measured.  Inputs the
program must reject are screened out here, with sympy as the independent
judge of common factors.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from pathlib import Path

NVARS = 4

# ---------------------------------------------------------------------------
# dict polynomials


def monomials(degree):
    out = []
    for combo in combinations_with_replacement(range(NVARS), degree):
        m = [0] * NVARS
        for i in combo:
            m[i] += 1
        out.append(tuple(m))
    return sorted(out, reverse=True)


def var(i):
    return {tuple(1 if j == i else 0 for j in range(NVARS)): 1}


def padd(*ps):
    out = {}
    for p in ps:
        for m, c in p.items():
            out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def pmul(p, q):
    out = {}
    for ma, ca in p.items():
        for mb, cb in q.items():
            m = tuple(a + b for a, b in zip(ma, mb))
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def pscale(p, c):
    return {m: v * c for m, v in p.items() if v * c}


def pdiff(p, i):
    out = {}
    for m, c in p.items():
        if m[i]:
            mm = list(m)
            mm[i] -= 1
            out[tuple(mm)] = out.get(tuple(mm), 0) + c * m[i]
    return {m: c for m, c in out.items() if c}


def pstr(p):
    """Render in the p3dist grammar: `3*x0^2*x1 - 1/2*x3`, `0` for zero."""
    if not p:
        return "0"
    chunks = []
    for m in sorted(p, reverse=True):
        c = Fraction(p[m])
        mon = "*".join(
            f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(m) if e
        )
        body = str(abs(c)) if not mon else (mon if abs(c) == 1 else f"{abs(c)}*{mon}")
        if not chunks:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f"{'+' if c > 0 else '-'} {body}")
    return " ".join(chunks)


def random_dense(rng, degree):
    """Every monomial of the degree, each with a coefficient in +-{1..5}."""
    return {m: rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)) for m in monomials(degree)}


def radial_contraction(eta):
    """Coefficients of i_R(eta) for eta = sum_{i<j} eta[(i,j)] dx_i ^ dx_j."""
    coeffs = [{} for _ in range(NVARS)]
    for (i, j), p in eta.items():
        coeffs[j] = padd(coeffs[j], pmul(var(i), p))
        coeffs[i] = padd(coeffs[i], pscale(pmul(var(j), p), -1))
    return coeffs


def has_common_factor(coeffs):
    """True when the nonzero coefficients share a non-constant factor."""
    import sympy

    xs = sympy.symbols("x0:4")
    g = sympy.Integer(0)
    for p in coeffs:
        if p:
            g = sympy.gcd(g, sympy.Poly.from_dict(
                {m: Fraction(c) for m, c in p.items()}, *xs, domain="QQ"
            ).as_expr())
            if g.is_number:
                return False
    return True


def acceptable_oneform(coeffs):
    """A valid distribution that avoids the known x0-coefficient fault.

    Forms whose x0-coefficient is 0 crash `compute_tF` with a TypeError
    (it reads the degree from that coefficient), so they are left out.
    """
    return bool(coeffs[0]) and not has_common_factor(coeffs)


def oneform_doc(coeffs):
    return {"kind": "oneform", "coeffs": [pstr(p) for p in coeffs]}


# ---------------------------------------------------------------------------
# degree-1 vector fields


def field_doc(matrix):
    comps = [padd(*(pscale(var(j), c) for j, c in enumerate(row))) for row in matrix]
    return {"kind": "vfield", "components": [pstr(p) for p in comps]}


def matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(NVARS)) for j in range(NVARS)]
            for i in range(NVARS)]


def charpoly_squarefree(matrix):
    import sympy

    lam = sympy.Symbol("lam")
    p = sympy.Matrix(matrix).charpoly(lam)
    return sympy.discriminant(p.as_expr(), lam) != 0


def unimodular_pair(rng, steps):
    """A random P in SL4(Z) with its inverse, from elementary row operations."""
    eye = [[int(i == j) for j in range(NVARS)] for i in range(NVARS)]
    p = [row[:] for row in eye]
    pinv = [row[:] for row in eye]
    for _ in range(steps):
        i, j = rng.sample(range(NVARS), 2)
        k = rng.choice((-2, -1, 1, 2))
        e = [row[:] for row in eye]
        e[i][j] = k
        einv = [row[:] for row in eye]
        einv[i][j] = -k
        p = matmul(e, p)
        pinv = matmul(pinv, einv)
    return p, pinv


# Jordan types beyond the squarefree case, with the degree-1 case each fixes:
# a double eigenvalue with a 2-dimensional eigenspace gives a line plus two
# points; two such eigenvalues give two skew lines; J2+J2 gives a double line.
JORDAN_CASES = {
    "aabc": "semistable-line",
    "aabb": "split-skew-or-double",
    "j2j2": "split-skew-or-double",
}


def jordan_matrix(rng, jtype):
    if jtype == "j2j2":
        d = [[0] * NVARS for _ in range(NVARS)]
        d[2][0] = d[3][1] = 1
        return d
    a, b, c = rng.sample(range(-3, 4), 3)
    diag = (a, a, b, c) if jtype == "aabc" else (a, a, b, b)
    return [[diag[i] if i == j else 0 for j in range(NVARS)] for i in range(NVARS)]


def gen_vfields(rng, n_random, n_per_jordan):
    """Criterion-4 style random fields with a squarefree characteristic
    polynomial, plus unimodular conjugates of each non-generic Jordan type."""
    items = []
    while len(items) < n_random:
        m = [[rng.randint(-3, 3) for _ in range(NVARS)] for _ in range(NVARS)]
        if charpoly_squarefree(m):
            items.append({"kind": "vfield", "doc": field_doc(m),
                          "expect": {"case": "stable-points"}})
    for jtype, case in JORDAN_CASES.items():
        for _ in range(n_per_jordan):
            p, pinv = unimodular_pair(rng, steps=3)
            m = matmul(matmul(p, jordan_matrix(rng, jtype)), pinv)
            items.append({"kind": "vfield", "doc": field_doc(m),
                          "expect": {"case": case, "jordan": jtype}})
    return items


# ---------------------------------------------------------------------------
# 1-forms


def two_terms(rng, degree):
    """Two distinct monomials of the degree, coefficients nonzero in [-3, 3]."""
    return {m: rng.choice((-3, -2, -1, 1, 2, 3)) for m in rng.sample(monomials(degree), 2)}


def gen_sparse_forms(rng, degrees):
    """The criterion-8 generator, omega = i_R(eta), with exactly two terms in
    every coefficient of eta where the test suite allows up to two.  The
    exact count makes the cost per form vary less between seeds (coefficient
    of variation 0.29 against 0.42 on 60 forms).  One form per entry of
    `degrees`."""
    items = []
    for d in degrees:
        while True:
            eta = {ij: two_terms(rng, d) for ij in combinations(range(NVARS), 2)}
            coeffs = radial_contraction(eta)
            if acceptable_oneform(coeffs):
                break
        items.append({"kind": "oneform", "doc": oneform_doc(coeffs),
                      "coeffs": coeffs, "expect": {"degree": d}})
    return items


def gen_dense_forms(rng, degrees):
    """Generic dense forms i_R(eta), every coefficient monomial present, for
    the section sweep of `compute_tF`."""
    items = []
    for d in degrees:
        while True:
            eta = {ij: random_dense(rng, d) for ij in combinations(range(NVARS), 2)}
            coeffs = radial_contraction(eta)
            if acceptable_oneform(coeffs):
                break
        items.append({"kind": "sections", "doc": oneform_doc(coeffs),
                      "coeffs": coeffs, "expect": {"degree": d}})
    return items


LOG_TYPES = ((2, 2), (1, 3), (1, 1, 2), (1, 1, 1, 1), (1, 2), (1, 1, 1))


def log_form_coeffs(polys, weights):
    coeffs = [{} for _ in range(NVARS)]
    for i, (w, f) in enumerate(zip(weights, polys)):
        rest = {(0,) * NVARS: 1}
        for j, g in enumerate(polys):
            if j != i:
                rest = pmul(rest, g)
        scaled = pscale(rest, w)
        for k in range(NVARS):
            coeffs[k] = padd(coeffs[k], pmul(scaled, pdiff(f, k)))
    return coeffs


def gen_log_types(rng, per_type):
    """Generic logarithmic types: dense hypersurfaces, nonzero weights with
    sum(lambda_i * d_i) = 0."""
    items = []
    for degrees in LOG_TYPES:
        for _ in range(per_type):
            while True:
                polys = [random_dense(rng, d) for d in degrees]
                weights = [Fraction(rng.choice((-3, -2, -1, 1, 2, 3))) for _ in degrees[:-1]]
                last = -sum(w * d for w, d in zip(weights, degrees)) / degrees[-1]
                if not last:
                    continue
                weights.append(last)
                coeffs = log_form_coeffs(polys, weights)
                if acceptable_oneform(coeffs):
                    break
            items.append({
                "kind": "logtype",
                "coeffs": coeffs,
                "doc": {"kind": "logtype", "polys": [pstr(f) for f in polys],
                        "lambdas": [str(w) for w in weights]},
                "expect": {"degrees": list(degrees)},
            })
    return items


def corpus_oneforms(root):
    """The bundled corpus 1-forms, read from the checkout's data file."""
    path = Path(root) / "src" / "p3dist" / "data" / "corpus.json"
    raw = json.loads(path.read_text(encoding="utf-8"))["oneforms"]
    return [{"kind": "oneform", "doc": {"kind": "oneform", "coeffs": raw[name]["coeffs"]},
             "expect": {"corpus": name}} for name in sorted(raw)]
