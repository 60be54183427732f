"""Groebner engine and ideal toolbox.

Buchberger with the product and chain criteria, reduced grevlex bases,
and the ideal operations the analysis pipeline needs: membership and the
saturation by the irrelevant ideal, one certified colon by a linear form
(Bayer-Stillman reverse-lex division, checked by the Hilbert polynomial).
Intersection (which also gives the gcd that names a common factor),
colon and the saturation by one polynomial eliminate an auxiliary
variable; the tests compare the saturation against them.
Coefficients are exact rationals, or residues mod a prime p for the
modular cross-check.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import NonTermination
from .hilbert import hilbert_from_lt
from .poly import (
    NVARS,
    Poly,
    grevlex_key,
    mon_div,
    mon_divides,
    mon_lcm,
    mon_mul,
)

# ---------------------------------------------------------------------------
# engine core: polynomials as dict monomial -> coefficient (monic where noted),
# coefficients in QQ when p is None, else in GF(p)


def _lead(t, keyf):
    return max(t, key=keyf)


def _make_monic(t, keyf, p):
    lc = t[_lead(t, keyf)]
    if p is None:
        if lc == 1:
            return t
        return {m: c / lc for m, c in t.items()}
    inv = pow(lc, -1, p)
    return {m: c * inv % p for m, c in t.items()}


def _normal_form_terms(f, basis, keyf, p):
    """Fully reduce dict-poly f by a list of (lt, monic terms)."""
    work = dict(f)
    remainder = {}
    while work:
        m = _lead(work, keyf)
        c = work.pop(m)
        for lt, g in basis:
            if mon_divides(lt, m):
                shift = mon_div(m, lt)
                for gm, gc in g.items():
                    if gm == lt:
                        continue
                    mm = mon_mul(gm, shift)
                    v = work.get(mm, 0) - c * gc
                    if p is not None:
                        v %= p
                    if v:
                        work[mm] = v
                    else:
                        work.pop(mm, None)
                break
        else:
            remainder[m] = c
    return remainder


def _spoly(g1, lt1, g2, lt2, p):
    lcm = mon_lcm(lt1, lt2)
    s1, s2 = mon_div(lcm, lt1), mon_div(lcm, lt2)
    out = {}
    for m, c in g1.items():
        out[mon_mul(m, s1)] = c
    for m, c in g2.items():
        mm = mon_mul(m, s2)
        v = out.get(mm, 0) - c
        if p is not None:
            v %= p
        if v:
            out[mm] = v
        else:
            out.pop(mm, None)
    return out


def _buchberger_terms(gens, keyf, p=None):
    """Reduced monic Groebner basis of dict-polys, sorted by leading term."""
    G = []
    for g in gens:
        if g:
            G.append(_make_monic(dict(g), keyf, p))
    basis = [(_lead(g, keyf), g) for g in G]

    pairs = set()
    for i in range(len(basis)):
        for j in range(i):
            pairs.add((j, i))

    def lcm_of(i, j):
        return mon_lcm(basis[i][0], basis[j][0])

    while pairs:
        i, j = min(pairs, key=lambda ij: (sum(lcm_of(*ij)), keyf(lcm_of(*ij))))
        pairs.discard((i, j))
        lti, ltj = basis[i][0], basis[j][0]
        lcm = mon_lcm(lti, ltj)
        # product criterion
        if lcm == mon_mul(lti, ltj):
            continue
        # chain criterion
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if mon_divides(basis[k][0], lcm):
                p1 = (min(i, k), max(i, k))
                p2 = (min(j, k), max(j, k))
                if p1 not in pairs and p2 not in pairs:
                    skip = True
                    break
        if skip:
            continue
        s = _spoly(basis[i][1], lti, basis[j][1], ltj, p)
        r = _normal_form_terms(s, basis, keyf, p)
        if r:
            r = _make_monic(r, keyf, p)
            new = len(basis)
            basis.append((_lead(r, keyf), r))
            for k in range(new):
                pairs.add((k, new))

    # minimalize
    minimal = []
    for idx, (lt, g) in enumerate(basis):
        if any(
            mon_divides(lt2, lt) and (lt2 != lt or jdx < idx)
            for jdx, (lt2, _) in enumerate(basis)
            if jdx != idx
        ):
            continue
        minimal.append((lt, g))
    # tail-reduce
    reduced = []
    for pos, (lt, g) in enumerate(minimal):
        others = minimal[:pos] + minimal[pos + 1:]
        r = _normal_form_terms(g, others, keyf, p)
        reduced.append((lt, _make_monic(r, keyf, p)))
    reduced.sort(key=lambda t: keyf(t[0]))
    return [g for _, g in reduced]


# ---------------------------------------------------------------------------
# public types


class GroebnerBasis:
    """Reduced grevlex basis; unique for the ideal."""

    __slots__ = ("basis", "_lt_basis")

    def __init__(self, basis):
        self.basis = tuple(basis)
        self._lt_basis = tuple(
            (max(p.terms, key=grevlex_key), p.terms) for p in self.basis
        )

    def leading_monomials(self):
        return tuple(lt for lt, _ in self._lt_basis)

    def is_unit(self):
        return len(self.basis) == 1 and self.basis[0].is_constant() and bool(self.basis[0])

    def is_zero(self):
        return not self.basis

    def __iter__(self):
        return iter(self.basis)

    def __len__(self):
        return len(self.basis)

    def __eq__(self, other):
        if not isinstance(other, GroebnerBasis):
            return NotImplemented
        return self.basis == other.basis

    def __hash__(self):
        return hash(self.basis)

    def __repr__(self):
        return f"GroebnerBasis({len(self.basis)} elements)"


class Ideal:
    """Homogeneous ideal given by generators, with its reduced basis cached."""

    __slots__ = ("gens", "_gb")

    def __init__(self, gens):
        clean = tuple(g for g in gens if not g.is_zero())
        object.__setattr__(self, "gens", clean)
        object.__setattr__(self, "_gb", None)

    def __setattr__(self, name, value):
        raise AttributeError("Ideal generators are immutable")

    def groebner(self):
        if self._gb is None:
            object.__setattr__(self, "_gb", buchberger(self))
        return self._gb

    def contains(self, p):
        return normal_form(p, self.groebner()).is_zero()

    def contains_ideal(self, other):
        return all(self.contains(g) for g in other.gens)

    def is_zero(self):
        return not self.gens

    def is_unit(self):
        return self.groebner().is_unit()

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        return self.groebner().basis == other.groebner().basis

    def __hash__(self):
        return hash(self.groebner().basis)

    def __repr__(self):
        return f"Ideal({', '.join(str(g) for g in self.gens)})"


# ---------------------------------------------------------------------------
# conversions between Poly and engine dicts


def _poly_to_terms(p):
    return dict(p.terms)


def _terms_to_poly(t):
    return Poly({m: (c if isinstance(c, Fraction) else Fraction(c)) for m, c in t.items()})


# ---------------------------------------------------------------------------
# operations


def buchberger(ideal):
    """Reduced Groebner basis of an ideal. Idempotent."""
    gens = [_poly_to_terms(g) for g in ideal.gens]
    reduced = _buchberger_terms(gens, grevlex_key)
    return GroebnerBasis([_terms_to_poly(g) for g in reduced])


def normal_form(p, gb):
    """Remainder of multivariate division by a reduced basis."""
    r = _normal_form_terms(_poly_to_terms(p), gb._lt_basis, grevlex_key, None)
    return _terms_to_poly(r)


def leading_monomials_mod_p(ideal, prime):
    """Leading monomials of the reduced basis over GF(prime).

    Used only as a consistency check against the rational computation.
    Raises ZeroDivisionError when the prime divides a denominator. Terms
    whose coefficient vanishes mod prime are dropped, as the engine keeps
    no zero coefficients.
    """
    gens = []
    for g in ideal.gens:
        t = {}
        for m, c in g.terms.items():
            den = c.denominator % prime
            if den == 0:
                raise ZeroDivisionError(f"denominator vanishes mod {prime}")
            r = c.numerator * pow(den, -1, prime) % prime
            if r:
                t[m] = r
        gens.append(t)
    reduced = _buchberger_terms(gens, grevlex_key, prime)
    return tuple(sorted((max(g, key=grevlex_key) for g in reduced), key=grevlex_key))


# -- auxiliary-variable machinery (variable t prepended at index 0) ---------


def _elim_key(m):
    """Block order eliminating the auxiliary variable, grevlex on the rest."""
    return (m[0], grevlex_key(m[1:]))


def _extend(p, t_exp):
    """Map a 4-variable dict-poly into 5 variables, multiplying by t^t_exp."""
    return {(t_exp,) + m: c for m, c in p.terms.items()}


def _project(terms5):
    """Drop the auxiliary variable; caller guarantees exponent 0."""
    return {m[1:]: c for m, c in terms5.items()}


def intersect(I, J):
    """Intersection of two ideals via t*I + (1-t)*J, eliminating t."""
    if I.is_zero() or J.is_zero():
        return Ideal(())
    gens5 = []
    for g in I.gens:
        gens5.append(_extend(g, 1))
    for g in J.gens:
        h = _extend(g, 0)
        for m, c in _extend(g, 1).items():
            h[m] = h.get(m, 0) - c
        gens5.append({m: c for m, c in h.items() if c})
    reduced = _buchberger_terms(gens5, _elim_key)
    out = []
    for g in reduced:
        if all(m[0] == 0 for m in g):
            out.append(_terms_to_poly(_project(g)))
    return _reduced_ideal(out)


def divide_exact(p, f):
    """Exact division p / f; raises ValueError if f does not divide p."""
    if f.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    work = dict(p.terms)
    ltf = max(f.terms, key=grevlex_key)
    lcf = f.terms[ltf]
    quot = {}
    while work:
        m = _lead(work, grevlex_key)
        c = work.pop(m)
        if not mon_divides(ltf, m):
            raise ValueError("not an exact multiple")
        shift = mon_div(m, ltf)
        q = c / lcf
        quot[shift] = q
        for fm, fc in f.terms.items():
            if fm == ltf:
                continue
            mm = mon_mul(fm, shift)
            v = work.get(mm, 0) - q * fc
            if v:
                work[mm] = v
            else:
                work.pop(mm, None)
    return Poly(quot)


def colon(I, f):
    """Ideal quotient (I : f) = {g : g*f in I}."""
    if f.is_zero():
        raise ZeroDivisionError("colon by zero polynomial")
    if I.is_zero():
        return Ideal(())
    inter = intersect(I, Ideal((f,)))
    return Ideal(tuple(divide_exact(g, f) for g in inter.gens))


def saturate_single(I, f):
    """(I : f^infinity) by the auxiliary-variable (Rabinowitsch) trick."""
    if I.is_zero():
        return Ideal(())
    gens5 = [_extend(g, 0) for g in I.gens]
    # t*f - 1
    tf = _extend(f, 1)
    tf[(0,) + (0,) * NVARS] = tf.get((0,) + (0,) * NVARS, 0) - 1
    gens5.append({m: c for m, c in tf.items() if c})
    reduced = _buchberger_terms(gens5, _elim_key)
    out = []
    for g in reduced:
        if all(m[0] == 0 for m in g):
            out.append(_terms_to_poly(_project(g)))
    return _reduced_ideal(out)


def saturate_iterated_colon(I, f, cap=64):
    """(I : f^infinity) as a stabilizing iterated colon; cap guards bugs."""
    current = I
    for _ in range(cap):
        nxt = colon(current, f)
        if nxt == current:
            return current
        current = nxt
    raise NonTermination(f"colon iteration did not stabilize within {cap} steps")


def _reduced_ideal(gens):
    """Ideal presented by its reduced grevlex basis, with the cache primed."""
    reduced = _buchberger_terms([_poly_to_terms(g) for g in gens], grevlex_key)
    basis = [_terms_to_poly(g) for g in reduced]
    ideal = Ideal(basis)
    object.__setattr__(ideal, "_gb", GroebnerBasis(basis))
    return ideal


def _colon_last_variable(gens):
    """Reduced grevlex basis of homogeneous dict-polys, and a basis of
    (I : x3^infinity).

    x3 is the cheapest variable, so dividing each element of the reduced
    basis by its largest power of x3 gives a basis of the colon
    (Bayer-Stillman). `saturate` applies it after a change of coordinates
    that sends its linear form to x3.
    """
    reduced = _buchberger_terms(gens, grevlex_key)
    quotients = []
    for g in reduced:
        e = min(m[-1] for m in g)
        quotients.append({m[:-1] + (m[-1] - e,): c for m, c in g.items()} if e else g)
    return reduced, quotients


def _shift_x3(p, a):
    """p with x3 replaced by x3 + a[0]*x0 + a[1]*x1 + a[2]*x2."""
    x3 = Poly({(0, 0, 0, 1): 1, (1, 0, 0, 0): a[0], (0, 1, 0, 0): a[1], (0, 0, 1, 0): a[2]})
    out = Poly()
    for e in {m[3] for m in p.terms}:
        out = out + Poly({m[:3] + (0,): c for m, c in p.terms.items() if m[3] == e}) * x3 ** e
    return out


def _hilbert_polynomial(basis):
    return hilbert_from_lt([max(g, key=grevlex_key) for g in basis]).hp_coeffs


def saturate(I):
    """I : m^infinity, the saturation by the irrelevant ideal
    m = (x0, x1, x2, x3).

    It is I : l^infinity for the first l_k = k*x0 + k^2*x1 + k^3*x2 + x3,
    k = 0, 1, 2, ..., that passes a certificate, computed as the colon by
    x3 after the substitution x3 -> x3 - (k*x0 + k^2*x1 + k^3*x2), which
    sends l_k to x3.
    Certificate: I^sat lies in I : l^infinity, so equal Hilbert polynomials
    leave a quotient of finite length, and the two are equal. The check
    fails exactly when l_k lies in an associated prime P != m of I. The
    linear forms in P lie in a hyperplane, which meets the twisted cubic
    (k, k^2, k^3, 1) at most 3 times: at most 3 failures per such prime.
    """
    if I.is_zero():
        return Ideal(())
    for k in itertools.count():
        gens = [_poly_to_terms(_shift_x3(g, (-k, -k * k, -k ** 3))) for g in I.gens]
        reduced, quotients = _colon_last_variable(gens)
        if _hilbert_polynomial(reduced) == _hilbert_polynomial(quotients):
            back = [_shift_x3(_terms_to_poly(q), (k, k * k, k ** 3)) for q in quotients]
            return _reduced_ideal(back)
