"""Output checks made apart from the program.

Each check reads a report the program printed and tests it against a
computation of the benchmark's own or a property the method must have.
None compares against a stored copy of earlier output.  A check returns
None when the output passes, or a message saying what is wrong.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations
from math import comb

from inputs import NVARS, monomials

PRIMES = (2147483647, 2147483629, 2147483587)


# ---------------------------------------------------------------------------
# polynomials in the program's printed form


def parse_printed(text):
    """`3/2*x0^2*x1 - x3` -> {(2, 1, 0, 0): 3/2, (0, 0, 0, 1): -1}."""
    text = text.strip()
    if text == "0":
        return {}
    out = {}
    sign = 1
    for k, tok in enumerate(text.split(" ")):
        if k % 2:
            if tok not in "+-":
                raise ValueError(f"bad operator {tok!r} in {text!r}")
            sign = 1 if tok == "+" else -1
            continue
        if tok.startswith("-"):
            sign, tok = -sign, tok[1:]
        coeff = Fraction(sign)
        mon = [0] * NVARS
        for factor in tok.split("*"):
            if factor.startswith("x"):
                name, _, exp = factor.partition("^")
                mon[int(name[1:])] += int(exp or 1)
            else:
                coeff *= Fraction(factor)
        out[tuple(mon)] = out.get(tuple(mon), 0) + coeff
    return {m: c for m, c in out.items() if c}


def parse_source(text):
    """Input-document polynomial (x y z w aliases, implicit products) via sympy."""
    import sympy
    from sympy.parsing.sympy_parser import (
        convert_xor,
        implicit_multiplication_application,
        parse_expr,
        standard_transformations,
    )

    xs = sympy.symbols("x0:4")
    names = {f"x{i}": x for i, x in enumerate(xs)}
    names.update(dict(zip("xyzw", xs)))
    expr = parse_expr(
        text, local_dict=names,
        transformations=standard_transformations
        + (implicit_multiplication_application, convert_xor),
    )
    poly = sympy.Poly(expr, *xs)
    return {m: Fraction(int(c.p), int(c.q)) for m, c in poly.terms() if c}


def evaluate(p, point):
    total = Fraction(0)
    for m, c in p.items():
        term = Fraction(c)
        for x, e in zip(point, m):
            term *= x ** e
        total += term
    return total


def degree_of(p):
    degs = {sum(m) for m in p}
    return degs.pop() if len(degs) == 1 else None


def rational_points(seed):
    """Three seeded test points with small rational coordinates."""
    rng = random.Random(f"points:{seed}")
    return [
        tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 7)) for _ in range(NVARS))
        for _ in range(3)
    ]


# ---------------------------------------------------------------------------
# sections of the tangent sheaf


def modp_h0(coeffs, dprime, prime):
    """h0 at a twist from the rank mod p of the contraction matrix
    (F_0..F_3) -> sum A_i F_i, minus the radial fields (x_0 f, .., x_3 f).

    Nullity mod p is at least the rational nullity, so a result of 0
    certifies that the rational h0 is 0 too.
    """
    if dprime < 0:
        return 0
    dega = max(degree_of(a) for a in coeffs if a)
    src = monomials(dprime)
    row_of = {m: r for r, m in enumerate(monomials(dprime + dega))}
    rows = [[0] * (NVARS * len(src)) for _ in row_of]
    for i, a in enumerate(coeffs):
        for k, m in enumerate(src):
            for am, c in a.items():
                c = Fraction(c)
                rows[row_of[tuple(x + y for x, y in zip(am, m))]][i * len(src) + k] = (
                    c.numerator * pow(c.denominator, -1, prime) % prime
                )
    rank = 0
    ncols = NVARS * len(src)
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, prime)
        top = [v * inv % prime for v in rows[rank]]
        rows[rank] = top
        for r in range(rank + 1, len(rows)):
            f = rows[r][col]
            if f:
                rows[r] = [(v - f * t) % prime for v, t in zip(rows[r], top)]
        rank += 1
    radial = comb(dprime + 2, 3)  # dim of the degree dprime-1 forms
    return ncols - rank - radial


def certified_h0_zero(coeffs, dprime):
    """True when some prime shows h0 = 0 at the twist."""
    return any(modp_h0(coeffs, dprime, p) == 0 for p in PRIMES)


def check_section(coeffs, tF, h0_at_tF, section, points):
    """The printed minimal section at twist tF, and minimality of tF."""
    comps = [parse_printed(s) for s in section]
    if not any(comps):
        return "minimal section is zero"
    if any(c and degree_of(c) != tF for c in comps):
        return f"minimal section is not homogeneous of degree tF={tF}"
    non_radial = False
    for pt in points:
        vals = [evaluate(c, pt) for c in comps]
        if sum(evaluate(a, pt) * v for a, v in zip(coeffs, vals)):
            return "sum A_i F_i is not 0 at a test point"
        if any(vals[i] * pt[j] != vals[j] * pt[i] for i, j in combinations(range(NVARS), 2)):
            non_radial = True
    if not non_radial:
        return "F wedge R vanishes at every test point"
    if h0_at_tF < 1 or h0_at_tF > modp_h0(coeffs, tF, PRIMES[0]):
        return f"h0 at tF = {h0_at_tF} exceeds the mod-p bound"
    if not certified_h0_zero(coeffs, tF - 1):
        return f"h0 at twist tF - 1 = {tF - 1} is not certified 0"
    return None


# ---------------------------------------------------------------------------
# closed forms for logarithmic types


def log_predictions(degrees):
    """(e2(degrees), h^3 coefficient of (1 - h)^4 / prod(1 - d_i h))."""
    e2 = sum(a * b for a, b in combinations(degrees, 2))
    series = [1, -4, 6, -4]
    for d in degrees:
        geometric = [d ** k for k in range(4)]
        series = [sum(series[j] * geometric[k - j] for j in range(k + 1)) for k in range(4)]
    return e2, series[3]


# ---------------------------------------------------------------------------
# facts about the bundled 1-forms that the method must reproduce

CORPUS_FACTS = {
    # the paper's two degree-3 examples of maximal order of nonstability
    "example1": {"degree": 3, "chern": (-1, 1, 3), "tF": 1, "family": 1,
                 "class": "unstable", "order": 1},
    "example2": {"degree": 3, "chern": (-1, 2, 6), "tF": 1, "family": 2,
                 "class": "unstable", "order": 1},
    # null-correlation distribution: stable, regular, five sections at tF = 1
    "nullcorrelation": {"degree": 0, "chern": (2, 2, 0), "tF": 1, "h0": 5,
                        "class": "stable", "regular": True, "integrable": False},
    # pencil of planes through a line: T_F = O(1) + O(1)
    "pencil_of_planes": {"degree": 0, "chern": (2, 1, 0), "tF": 0,
                         "split": [1, 1], "integrable": True},
}


def _corpus_fact_errors(name, doc):
    facts = CORPUS_FACTS[name]
    chern = doc["chern"]
    got = {
        "degree": doc["degree"],
        "chern": (chern["c1"], chern["c2"], chern["c3"]),
        "tF": doc["tF"],
        "h0": doc["h0_at_tF"],
        "family": doc["stability"]["family"],
        "class": doc["stability"]["class"],
        "order": doc["stability"]["order"],
        "regular": doc["regular"],
        "integrable": doc["integrable"],
        "split": doc["split_type"],
    }
    bad = [f"{k}={got[k]!r}, expected {v!r}" for k, v in facts.items() if got[k] != v]
    return f"{name}: " + "; ".join(bad) if bad else None


def check_distribution(doc, coeffs, points, expect):
    if "degree" in expect and doc["degree"] != expect["degree"]:
        return f"degree {doc['degree']}, expected {expect['degree']}"
    d = doc["degree"]
    if doc["chern"]["c1"] != 2 - d:
        return f"c1 = {doc['chern']['c1']}, expected 2 - d = {2 - d}"
    if not 0 <= doc["tF"] <= d + 1:
        return f"tF = {doc['tF']} outside 0..d+1"
    if "corpus" in expect:
        err = _corpus_fact_errors(expect["corpus"], doc)
        if err:
            return err
    return check_section(coeffs, doc["tF"], doc["h0_at_tF"], doc["minimal_section"], points)


def check_output(kind, output, item, points):
    """Check one printed report against the item it was computed from."""
    doc = json.loads(output)
    expect = item["expect"]
    if kind == "vfield":
        if doc["degree"] != 1 or doc["degree1_case"] != expect["case"]:
            return f"degree-1 case {doc['degree1_case']!r}, expected {expect['case']!r}"
        return None
    if kind == "oneform":
        return check_distribution(doc, item["coeffs"], points, expect)
    if kind == "logtype":
        e2, h3 = log_predictions(expect["degrees"])
        if not doc["integrable"]:
            return "logarithmic form reported non-integrable"
        if (doc["actual"]["degC"], doc["actual"]["lenU"]) != (e2, h3):
            return f"(degC, lenU) = ({doc['actual']['degC']}, {doc['actual']['lenU']}), expected ({e2}, {h3})"
        if (doc["expected"]["degC"], doc["expected"]["lenU"]) != (e2, h3) or doc["non_generic"]:
            return "reported predictions disagree with the closed forms"
        return check_distribution(doc["distribution"], item["coeffs"], points, {})
    if kind == "sections":
        d = expect["degree"]
        if not 0 <= doc["tF"] <= d + 1:
            return f"tF = {doc['tF']} outside 0..d+1"
        return check_section(item["coeffs"], doc["tF"], doc["h0_at_tF"], doc["section"], points)
    raise ValueError(f"unknown kind {kind!r}")
