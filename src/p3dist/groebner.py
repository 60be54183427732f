"""Groebner engine and ideal toolbox.

Buchberger with a pair heap ordered by the degree and the term order of the
lcm, the Gebauer-Moller pair criteria, and fraction-free integer reduction;
reduced grevlex bases, and the ideal operations the analysis pipeline
needs: membership and the saturation by the irrelevant ideal, one certified
colon by a linear form (Bayer-Stillman reverse-lex division, checked by the
Hilbert polynomial). Intersection (which also gives the gcd that names a
common factor), colon and the saturation by one polynomial eliminate an
auxiliary variable; the tests compare the saturation against them.
Coefficients are exact rationals, or residues mod a prime p for the
modular cross-check.
"""

from __future__ import annotations

import itertools
from heapq import heapify, heappop, heappush
from operator import neg

from .errors import NonTermination
from .hilbert import hilbert_from_lt
from .poly import (
    NVARS,
    ZERO_MON,
    Poly,
    add_product,
    fraction_free_step,
    grevlex_key,
    mon_div,
    mon_divides,
    mon_lcm,
    mon_mul,
    primitive_row,
)

# ---------------------------------------------------------------------------
# engine core: polynomials as dicts monomial -> nonzero coefficient. Over QQ
# (p is None) a basis element is kept as a primitive integer multiple and
# reduced fraction-free; over GF(p) it is kept monic. Bases leave the engine
# reduced and in that form; they become monic Polys only in
# `_monic_basis`, when an Ideal takes them.


def _lead(t, keyf):
    return max(t, key=keyf)


def _engine_form(t, keyf, p):
    """A nonzero dict-poly as the engine keeps it."""
    if p is None:
        return primitive_row(t)
    inv = pow(t[_lead(t, keyf)], -1, p)
    return {m: c * inv % p for m, c in t.items()}


def _shift(g, s):
    return {mon_mul(m, s): c for m, c in g.items()}


def _cancel(f, sg, m, p):
    """Cancel the term of f at m against sg, whose leading term is at m."""
    if p is None:
        return fraction_free_step(f, sg, m)
    c = f[m]
    out = dict(f)
    for k, v in sg.items():
        v = (out.get(k, 0) - c * v) % p
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return out


def _normal_form_terms(f, basis, keyf, p):
    """Fully reduce the engine poly f by a list of (lt, engine poly).

    Over QQ the result is a primitive integer multiple of the remainder.
    A heap of monomials, largest first, gives the next term to reduce;
    terms already passed are the remainder, and every later one is smaller.
    """
    heap = [(tuple(map(neg, keyf(m))), m) for m in f]
    heapify(heap)
    while heap:
        m = heappop(heap)[1]
        if m not in f:
            continue
        for lt, g in basis:
            if mon_divides(lt, m):
                sg = _shift(g, mon_div(m, lt))
                reduced = _cancel(f, sg, m, p)
                for k in sg:
                    if k not in f and k in reduced:
                        heappush(heap, (tuple(map(neg, keyf(k))), k))
                f = reduced
                break
    return f


def _reduced_basis(G, keyf, p):
    """Reduced basis of engine polys, sorted by leading term, from a
    Groebner basis of engine polys: minimalize, then reduce each tail by
    the others."""
    lts = [_lead(g, keyf) for g in G]
    minimal = [
        (lt, g) for idx, (lt, g) in enumerate(zip(lts, G))
        if not any(
            mon_divides(lt2, lt) and (lt2 != lt or jdx < idx)
            for jdx, lt2 in enumerate(lts) if jdx != idx
        )
    ]
    reduced = []
    for pos, (lt, g) in enumerate(minimal):
        r = _normal_form_terms(g, minimal[:pos] + minimal[pos + 1:], keyf, p)
        reduced.append((keyf(lt), r))
    reduced.sort(key=lambda t: t[0])
    return [g for _, g in reduced]


def _buchberger_terms(gens, keyf, p=None):
    """Reduced Groebner basis of dict-polys, as engine polys sorted by
    leading term.

    Pairs wait in a heap keyed by (degree of the lcm, order key of the lcm)
    and are pruned by the Gebauer-Moller update when an element is added.
    `active` holds the elements whose leading terms divide no other one;
    they reduce, and only they form new pairs.
    """
    polys, lts = [], []
    active, basis = [], []
    pairs = []

    def add(h):
        nonlocal active, basis, pairs
        lt = _lead(h, keyf)
        new = len(polys)
        polys.append(h)
        lts.append(lt)
        # new pairs (i, new): one goes when the lcm of a later candidate or
        # of a kept one divides its lcm, unless its leading terms are
        # coprime; coprime ones are kept for that test, then dropped
        cands = [(mon_lcm(lts[i], lt), i) for i in active]
        kept = []
        for pos, (l, i) in enumerate(cands):
            coprime = l == mon_mul(lts[i], lt)
            if coprime or not any(
                mon_divides(l2, l) for l2, _ in cands[pos + 1:] + kept
            ):
                kept.append((l, None if coprime else i))
        # an old pair (i, j) goes when lt divides its lcm strictly inside
        # both new lcms
        pairs = [
            e for e in pairs
            if not mon_divides(lt, e[4])
            or mon_lcm(lts[e[2]], lt) == e[4]
            or mon_lcm(lts[e[3]], lt) == e[4]
        ]
        pairs.extend((sum(l), keyf(l), i, new, l) for l, i in kept if i is not None)
        heapify(pairs)
        active = [i for i in active if not mon_divides(lt, lts[i])] + [new]
        basis = [(lts[i], polys[i]) for i in active]

    for g in sorted((_engine_form(g, keyf, p) for g in gens if g),
                    key=lambda g: keyf(_lead(g, keyf))):
        r = _normal_form_terms(g, basis, keyf, p)
        if r:
            add(_engine_form(r, keyf, p))
    while pairs:
        _, _, i, j, l = heappop(pairs)
        s = _cancel(_shift(polys[i], mon_div(l, lts[i])),
                    _shift(polys[j], mon_div(l, lts[j])), l, p)
        r = _normal_form_terms(s, basis, keyf, p)
        if r:
            add(_engine_form(r, keyf, p))
    return _reduced_basis([polys[i] for i in active], keyf, p)


# ---------------------------------------------------------------------------
# public types


def _monic_basis(reduced):
    """A reduced basis of engine polys over QQ as monic Polys; every basis
    that leaves the engine passes through here."""
    return tuple(Poly(g).monic() for g in reduced)


class Ideal:
    """Homogeneous ideal given by generators, with its reduced grevlex basis
    cached: a tuple of monic Polys sorted by leading term, unique for the
    ideal."""

    __slots__ = ("gens", "_basis")

    def __init__(self, gens):
        clean = tuple(g for g in gens if not g.is_zero())
        object.__setattr__(self, "gens", clean)
        object.__setattr__(self, "_basis", None)

    @classmethod
    def _of_reduced(cls, reduced):
        """The ideal generated by a reduced basis of engine polys, with the
        cache primed."""
        ideal = cls(_monic_basis(reduced))
        object.__setattr__(ideal, "_basis", ideal.gens)
        return ideal

    def __setattr__(self, name, value):
        raise AttributeError("Ideal generators are immutable")

    def groebner(self):
        """The reduced basis."""
        if self._basis is None:
            object.__setattr__(self, "_basis", buchberger(self))
        return self._basis

    def leading_monomials(self):
        return tuple(g.leading_monomial() for g in self.groebner())

    def contains(self, p):
        return normal_form(p, self).is_zero()

    def contains_ideal(self, other):
        return all(self.contains(g) for g in other.gens)

    def is_zero(self):
        return not self.gens

    def is_unit(self):
        basis = self.groebner()
        return len(basis) == 1 and basis[0].is_constant()

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        return self.groebner() == other.groebner()

    def __hash__(self):
        return hash(self.groebner())

    def __repr__(self):
        return f"Ideal({', '.join(str(g) for g in self.gens)})"


# ---------------------------------------------------------------------------
# operations


def buchberger(ideal):
    """Reduced Groebner basis of an ideal: monic Polys sorted by leading
    term. Idempotent."""
    return _monic_basis(_buchberger_terms([g.terms for g in ideal.gens], grevlex_key))


def normal_form(p, ideal):
    """Remainder of multivariate division by the reduced basis of an ideal,
    made monic.

    The reduction is fraction-free, so it finds the remainder up to a
    nonzero factor; zero exactly when p lies in the ideal.
    """
    if p.is_zero():
        return p
    reducers = [(g.leading_monomial(), primitive_row(g.terms)) for g in ideal.groebner()]
    r = _normal_form_terms(primitive_row(p.terms), reducers, grevlex_key, None)
    return Poly(r).monic()


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
    """Block order eliminating the auxiliary variable, grevlex on the rest.

    A flat tuple, so the engine's heaps can negate it entrywise."""
    return (m[0],) + grevlex_key(m[1:])


def _extend(p, t_exp):
    """Map a 4-variable dict-poly into 5 variables, multiplying by t^t_exp."""
    return {(t_exp,) + m: c for m, c in p.terms.items()}


def _eliminate_t(gens5):
    """The elimination ideal of the auxiliary variable. The t-free part of
    the reduced block-order basis is the reduced grevlex basis of the
    elimination ideal: the block order restricts to grevlex, and the part
    keeps its leading terms and its order."""
    reduced = _buchberger_terms(gens5, _elim_key)
    return Ideal._of_reduced([
        {m[1:]: c for m, c in g.items()} for g in reduced if all(m[0] == 0 for m in g)
    ])


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
    return _eliminate_t(gens5)


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
        if not mon_divides(ltf, m):
            raise ValueError("not an exact multiple")
        shift = mon_div(m, ltf)
        q = quot[shift] = work[m] / lcf
        # cancels the term at m, so the next lead is smaller
        add_product(work, f.terms, {shift: -q})
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
    return _eliminate_t(gens5)


def saturate_iterated_colon(I, f, cap=64):
    """(I : f^infinity) as a stabilizing iterated colon; cap guards bugs."""
    current = I
    for _ in range(cap):
        nxt = colon(current, f)
        if nxt == current:
            return current
        current = nxt
    raise NonTermination(f"colon iteration did not stabilize within {cap} steps")


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


def _shift_x3(polys, a):
    """The integer dict-polys with x3 replaced by x3 + a[0]*x0 + a[1]*x1 + a[2]*x2,
    a[i] != 0, from one table of powers of that linear form."""
    linear = {(0, 0, 0, 1): 1, (1, 0, 0, 0): a[0], (0, 1, 0, 0): a[1], (0, 0, 1, 0): a[2]}
    powers = [{ZERO_MON: 1}]
    for _ in range(max(m[3] for t in polys for m in t)):
        nxt = {}
        add_product(nxt, powers[-1], linear)
        powers.append(nxt)
    out = []
    for t in polys:
        shifted = {}
        for m, c in t.items():
            add_product(shifted, {m[:3] + (0,): c}, powers[m[3]])
        out.append(shifted)
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
    At k = 0 the substitution is the identity and the quotients are a
    Groebner basis of the colon already, so they are only minimalized and
    tail-reduced; for k >= 1 the colon is mapped back and its reduced
    basis computed.
    """
    if I.is_zero():
        return Ideal(())
    gens = [primitive_row(g.terms) for g in I.gens]
    for k in itertools.count():
        shifted = _shift_x3(gens, (-k, -k * k, -k ** 3)) if k else gens
        reduced, quotients = _colon_last_variable(shifted)
        if _hilbert_polynomial(reduced) == _hilbert_polynomial(quotients):
            if k == 0:
                return Ideal._of_reduced(_reduced_basis(quotients, grevlex_key, None))
            shifted_back = _shift_x3(quotients, (k, k * k, k ** 3))
            return Ideal._of_reduced(_buchberger_terms(shifted_back, grevlex_key))
