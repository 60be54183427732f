"""Groebner engine and ideal toolbox.

Buchberger with a pair heap ordered by the degree and the term order of the
lcm, the Gebauer-Moller pair criteria, and fraction-free integer reduction
by `poly.fraction_free_step`, the step of the section spaces too, which
only cancels: a row's content is divided out once, by `_engine_form`, when
the row is kept as a generator, a new basis element or a tail-reduced row
of a reduced basis, and never for a remainder that is zero; reduced
grevlex bases, and the ideal operations the analysis pipeline needs:
membership and the saturation by the irrelevant ideal, one saturation by a
linear form certified by the Hilbert polynomial, whose result keeps that
Hilbert data. By x3 it is a Bayer-Stillman reverse-lex division, skipped
when x3 divides no basis element, as the colon is then I; by any other
form, like intersection (which also gives the gcd that names a common
factor), colon and the saturation by one polynomial, it eliminates an
auxiliary variable t, the saturation's run seeded with the finished basis
of I. A run returns its minimal basis, and the eliminations tail-reduce
only the t-free rows they keep (only a t-free leading term divides a t-free
monomial), the saturation only the colon it accepts. The tests compare the
saturation against those. For the section spaces of a form that was not
saturated, a run capped at a degree gives the Hilbert function up to it.
A run told a certified bound on dim I_n drops the pairs of degree n once
its leading terms fill it, as they all reduce to zero (Traverso's
Hilbert-driven stop): `linalg` reads one from the radial and Koszul
sections, `foliation.sing_scheme_v` one from the Eagon-Northcott series
of a field's minors, which `bounded_ideal` hands to an uncapped run.
Coefficients are exact rationals, or residues mod a prime p for the
modular cross-check.

The engine packs t^e x0^a0 x1^a1 x2^a2 x3^a3 into one int (Monagan and
Pearce, J. Symbolic Comput. 46, 2011). An `Ideal` keeps its generators and
its reduced basis packed, and unpacks them only when its Polys are read:
    e*2^96 + (a0 + a1 + a2 + a3)*2^80 - (e<<64 | a3<<48 | a2<<32 | a1<<16 | a0).
A product is +, a quotient is -, integer comparison is grevlex (for e > 0
the block order that eliminates t), and as MAX_MONOMIAL_DEGREE keeps each
16-bit field below its top (guard) bit, a divides b iff a - b sets none.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from heapq import heapify, heappop, heappush

from .errors import DomainError, InternalInconsistency, NonTermination
from .hilbert import hilbert, hilbert_from_lt
from .poly import (
    NVARS,
    Poly,
    add_product,
    fraction_free_step,
    grevlex_key,
    mon_div,
    mon_divides,
    primitive_row,
)

# ---------------------------------------------------------------------------
# engine core: polynomials as dicts packed monomial -> nonzero coefficient.
# Over QQ (p is None) a basis element is kept as a primitive integer
# multiple with a positive leading coefficient and reduced fraction-free;
# over GF(p) it is kept monic (`_engine_form`). A run returns its rows in
# that form, and an Ideal keeps its basis reduced (`_reduced_basis`); the
# rows become monic Polys only when `Ideal.groebner` or `Ideal.gens` is read.

MAX_MONOMIAL_DEGREE = 2 ** 15 - 1
_FIELDS = (1 << 80) - 1
_GUARDS = 0x8000 * sum(1 << 16 * i for i in range(5))


def _bounded(deg):
    if deg <= MAX_MONOMIAL_DEGREE:
        return deg
    raise DomainError(f"monomial degree {deg} exceeds MAX_MONOMIAL_DEGREE = {MAX_MONOMIAL_DEGREE}")


def _degree(k):
    """Total degree, t included, of a packed monomial."""
    h = -(-k >> 80)
    return (h >> 16) + (h & 0xFFFF)


def _pack(m):
    """Pack an exponent tuple (a0, a1, a2, a3), or (e, a0, a1, a2, a3)."""
    e, (a0, a1, a2, a3) = (m[0], m[1:]) if len(m) > NVARS else (0, m)
    deg = _bounded(a0 + a1 + a2 + a3 + e) - e
    return (e << 96) + (deg << 80) - (e << 64 | a3 << 48 | a2 << 32 | a1 << 16 | a0)


def _unpack(k):
    """The exponent tuple (a0, a1, a2, a3) of a packed t-free monomial."""
    z = -k & _FIELDS
    return (z & 0xFFFF, z >> 16 & 0xFFFF, z >> 32 & 0xFFFF, z >> 48 & 0xFFFF)


def _lcm(a, b):
    x, y = -a & _FIELDS, -b & _FIELDS  # the exponent fields
    # the fieldwise max: (x | guards) - y keeps a guard bit where x's field >= y's
    z = y ^ (x ^ y) & (((x | _GUARDS) - y & _GUARDS) >> 15) * 0xFFFF
    deg = (z & (1 << 64) - 1) * 0x1000100010001 >> 48 & 0xFFFF  # a0 + a1 + a2 + a3
    return (z >> 64 << 96) + (deg << 80) - z


def _packed(t):
    return {_pack(m): c for m, c in t.items()}


def _engine_form(t, p):
    """A nonzero dict-poly as the engine keeps it: over QQ primitive with a
    positive leading coefficient, over GF(p) monic. The engine divides out
    a content only here, on each row it keeps."""
    if p is None:
        return primitive_row(t, max(t))
    inv = pow(t[max(t)], -1, p)
    return {m: c * inv % p for m, c in t.items()}


def _normal_form_terms(f, basis, p):
    """Fully reduce the engine poly f by a list of (lt, engine poly).

    Over QQ the result is an integer multiple of the remainder, its
    content left in by every step; a caller that keeps it calls
    `_engine_form`.
    A heap of monomials, largest first, gives the next term to reduce;
    terms already passed are the remainder, and every later one is smaller.
    """
    heap = [-m for m in f]
    heapify(heap)
    while heap:
        m = -heappop(heap)
        if m not in f:
            continue
        for lt, g in basis:
            if not (lt - m) & _GUARDS:
                s = m - lt
                reduced = fraction_free_step(f, g, m, s, p)
                for k in g:
                    k += s
                    if k not in f and k in reduced:
                        heappush(heap, -k)
                f = reduced
                break
    return f


def _reduced_basis(G, p):
    """Reduced basis of engine polys, sorted by leading term, from a
    Groebner basis of engine polys: minimalize, then reduce each tail by
    the others. Each tail-reduced row is put in `_engine_form`, so the rows
    are the ideal's identity."""
    lts = [max(g) for g in G]
    minimal = sorted((
        (lt, g) for idx, (lt, g) in enumerate(zip(lts, G))
        if not any(
            not (lt2 - lt) & _GUARDS and (lt2 != lt or jdx < idx)
            for jdx, lt2 in enumerate(lts) if jdx != idx
        )
    ), key=lambda t: t[0])
    return [_engine_form(_normal_form_terms(g, minimal[:pos] + minimal[pos + 1:], p), p)
            for pos, (_, g) in enumerate(minimal)]


_VARS = tuple(_pack(u) for u in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))


def _lt_piece(lts, deg, piece, at):
    """The monomials of degree deg in the ideal of the packed homogeneous
    leading terms lts, given its monomials `piece` of degree at < deg, or
    none when at is None: each degree's are the previous degree's times
    each variable, and the leading terms of that degree."""
    if at is None:
        at = min(map(_degree, lts)) - 1
    for k in range(at + 1, deg + 1):
        piece = {m + x for m in piece for x in _VARS}
        piece.update(lt for lt in lts if _degree(lt) == k)
    return piece


def _buchberger_terms(gens, p=None, done=(), cap=None, bound=None):
    """A minimal Groebner basis of packed dict-polys: the run's active
    engine polys, in the order they were kept. A caller that keeps the
    rows makes them the reduced basis with `_reduced_basis`.

    Pairs wait in a heap keyed by (total degree of the lcm, lcm) and are
    pruned by the Gebauer-Moller update when an element is added. `active`
    holds the elements whose leading terms divide no other one; they
    reduce, and only they form new pairs. Every term of an S-polynomial
    and of its reduction is at most the pair's lcm in the term order, so
    its degree is at most the lcm's (in the eliminations too: their
    generators are homogeneous once t has weight 0 or -deg f), and checking
    each new pair's lcm keeps every exponent in its field.

    `done`, a reduced basis of engine polys, is taken as a finished
    Groebner basis: it forms no pairs within itself, only with gens and
    the elements that follow (Gebauer-Moller's incremental update). With a
    degree `cap` and homogeneous gens, pairs are taken up to that degree
    only: the leading terms of the elements returned generate the
    leading-term ideal in every degree up to the cap.

    `bound` maps a degree n to a certified upper bound on dim I_n, for
    homogeneous gens (Traverso's Hilbert-driven stop, J. Symbolic Comput.
    22, 1996). The leading terms found span at most dim I_n monomials of
    degree n, so once they span the bound they span all of LT(I)_n, and
    every pair left at n reduces to zero: the run drops them. Entering a
    bounded degree, it counts that degree's leading monomials once, from
    the last bounded degree's, and adds one per element added there. A
    count above the bound on entering raises InternalInconsistency; a
    bound that is too small but not below that count goes unseen, so it
    must be a theorem (`linalg._dim_bounds` and `foliation._dim_bound`
    prove their own). Degrees the bound leaves out run unbounded, capped
    or not. Only where the run stops changes, so the result is the same
    with or without a valid bound.
    """
    polys, lts = list(done), [max(g) for g in done]
    active, basis = list(range(len(polys))), list(zip(lts, polys))
    pairs = []

    def add(h):
        nonlocal active, basis, pairs
        lt = max(h)
        new = len(polys)
        polys.append(h)
        lts.append(lt)
        # new pairs (i, new): one goes when the lcm of a later candidate or
        # of a kept one divides its lcm, unless its leading terms are
        # coprime; coprime ones are kept for that test, then dropped
        cands = [(_lcm(lts[i], lt), i) for i in active]
        kept = []
        for pos, (l, i) in enumerate(cands):
            coprime = l == lts[i] + lt
            if coprime or all(
                (l2 - l) & _GUARDS for l2, _ in cands[pos + 1:] + kept
            ):
                kept.append((l, None if coprime else i))
        # an old pair (i, j) goes when lt divides its lcm strictly inside
        # both new lcms
        pairs = [
            e for e in pairs
            if (lt - e[1]) & _GUARDS
            or _lcm(lts[e[2]], lt) == e[1]
            or _lcm(lts[e[3]], lt) == e[1]
        ]
        pairs.extend((_bounded(_degree(l)), l, i, new) for l, i in kept if i is not None)
        heapify(pairs)
        active = [i for i in active if (lt - lts[i]) & _GUARDS] + [new]
        basis = [(lts[i], polys[i]) for i in active]

    for g in sorted((_engine_form(g, p) for g in gens if g), key=max):
        r = _normal_form_terms(g, basis, p)
        if r:
            add(_engine_form(r, p))
    bound = bound or {}
    at, filled = None, set()  # the bounded degree being run, its leading monomials
    while pairs and (cap is None or pairs[0][0] <= cap):
        deg, l, i, j = heappop(pairs)
        if deg in bound:
            if deg != at:
                filled, at = _lt_piece(lts, deg, filled, at), deg
                if len(filled) > bound[deg]:
                    raise InternalInconsistency(
                        f"leading terms span {len(filled)} monomials of degree {deg},"
                        f" above the bound {bound[deg]}")
            if len(filled) == bound[deg]:
                continue  # LT(I) is full in this degree: the pair reduces to zero
        si = l - lts[i]
        s = fraction_free_step({k + si: c for k, c in polys[i].items()}, polys[j],
                               l, l - lts[j], p)
        r = _normal_form_terms(s, basis, p)
        if r:
            add(_engine_form(r, p))
            if deg == at:
                filled.add(lts[-1])
    return [polys[i] for i in active]


# ---------------------------------------------------------------------------
# public types


class Ideal:
    """Homogeneous ideal kept as packed generators and, once computed, their
    reduced basis of engine polys. `groebner()` builds that basis as monic
    Polys sorted by leading term, and `gens` is that basis on an ideal the
    engine made, else the given generators. `hilbert.hilbert` keeps the
    ideal's HilbertData in `_hilbert`; the ideal `saturate` returns is made
    with the data of the colon its certificate accepted."""

    __slots__ = ("_rows", "_reduced", "_hilbert")

    def __init__(self, gens):
        self._keep(tuple(_packed(g.terms) for g in gens if not g.is_zero()))

    def _keep(self, rows, reduced=None, hilbert=None):
        for name, value in zip(self.__slots__, (rows, reduced, hilbert)):
            object.__setattr__(self, name, value)
        return self

    @classmethod
    def _of_rows(cls, rows):
        """The ideal of integer dict-polys keyed by exponent tuples, packed
        here without building a Poly."""
        return cls.__new__(cls)._keep(tuple(_packed(t) for t in rows if t))

    def __setattr__(self, name, value):
        raise AttributeError("Ideal generators are immutable")

    @property
    def gens(self):
        """The given generators, or the monic reduced basis on an ideal the
        engine made."""
        if self._rows is self._reduced:
            return self.groebner()
        return tuple(Poly({_unpack(m): c for m, c in g.items()}) for g in self._rows)

    def _basis(self):
        """The reduced basis of engine polys, computed once."""
        if self._reduced is None:
            object.__setattr__(self, "_reduced", _reduced_basis(_buchberger_terms(self._rows), None))
        return self._reduced

    def groebner(self):
        """The reduced basis as monic Polys, each coefficient Fraction(c, lc)."""
        return tuple(Poly({_unpack(m): Fraction(c, lc) for m, c in g.items()})
                     for g in self._basis() for lc in (g[max(g)],))

    def leading_monomials(self):
        return tuple(_unpack(max(g)) for g in self._basis())

    def contains(self, p):
        return normal_form(p, self).is_zero()

    def contains_ideal(self, other):
        return all(self.contains(g) for g in other.gens)

    def is_zero(self):
        return not self._rows

    def is_unit(self):
        return self.leading_monomials() == ((0, 0, 0, 0),)

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        return self._basis() == other._basis()

    def __hash__(self):
        return hash(tuple(frozenset(g.items()) for g in self._basis()))

    def __repr__(self):
        return f"Ideal({', '.join(str(g) for g in self.gens)})"


def _engine_ideal(reduced, hilbert=None):
    """The ideal the engine made, generated by its reduced basis of engine
    polys, with its HilbertData when the caller holds it."""
    return Ideal.__new__(Ideal)._keep(reduced, reduced, hilbert)


# ---------------------------------------------------------------------------
# operations


def buchberger(ideal):
    """Reduced Groebner basis of an ideal: monic Polys sorted by leading
    term. Idempotent."""
    return ideal.groebner()


def normal_form(p, ideal):
    """Remainder of multivariate division by the reduced basis of an ideal,
    made monic.

    The reduction is fraction-free, so it finds the remainder up to a
    nonzero factor; zero exactly when p lies in the ideal.
    """
    if p.is_zero():
        return p
    reducers = [(max(g), g) for g in ideal._basis()]
    r = _normal_form_terms(_packed(primitive_row(p.terms)), reducers, None)
    return Poly({_unpack(m): c for m, c in r.items()}).monic()


def leading_monomials_mod_p(ideal, prime):
    """Leading monomials of the reduced basis over GF(prime) of the ideal's
    generators: on an ideal the engine made, its reduced basis of primitive
    integer rows.

    Used only as a consistency check against the rational computation.
    Raises ZeroDivisionError when the prime divides a denominator of a
    generator, or a leading coefficient of an engine ideal's row, which is
    exactly when it divides a denominator of the monic reduced basis, as
    the rows are primitive. Terms whose coefficient vanishes mod prime are
    dropped, as the engine keeps no zero coefficients.
    """
    engine = ideal._rows is ideal._reduced
    gens = []
    for g in ideal._rows:
        if engine and not g[max(g)] % prime:
            raise ZeroDivisionError(f"leading coefficient vanishes mod {prime}")
        t = {}
        for m, c in g.items():
            den = c.denominator % prime
            if den == 0:
                raise ZeroDivisionError(f"denominator vanishes mod {prime}")
            r = c.numerator * pow(den, -1, prime) % prime
            if r:
                t[m] = r
        gens.append(t)
    return tuple(_unpack(lt) for lt in sorted(max(g) for g in _buchberger_terms(gens, prime)))


# -- auxiliary-variable machinery (t in the top field of a packed monomial) -


_T = _pack((1, 0, 0, 0, 0))  # t, the least monomial that involves t


def _extend(g):
    """t times a t-free packed dict-poly."""
    return {m + _T: c for m, c in g.items()}


def _t_free(basis):
    """The t-free part of a minimal block-order Groebner basis: a minimal
    grevlex Groebner basis of the elimination ideal, as the block order
    restricts to grevlex. Only a t-free leading term divides a t-free
    monomial, so the reduced basis of the part is the t-free part of the
    reduced basis, and only the part's rows need tail-reducing."""
    return [g for g in basis if max(g) < _T]


def _eliminate_t(gens5):
    """The elimination ideal of the auxiliary variable."""
    return _engine_ideal(_reduced_basis(_t_free(_buchberger_terms(gens5)), None))


def intersect(I, J):
    """Intersection of two ideals via t*I + (1-t)*J, eliminating t."""
    gens5 = [_extend(g) for g in I._rows]
    for g in J._rows:
        gens5.append({**g, **{m + _T: -c for m, c in g.items()}})
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
        m = max(work, key=grevlex_key)
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
    inter = intersect(I, Ideal((f,)))
    return Ideal(tuple(divide_exact(g, f) for g in inter.gens))


def saturate_single(I, f):
    """(I : f^infinity) by the auxiliary-variable (Rabinowitsch) trick."""
    gens5 = [*I._rows, {**_extend(_packed(f.terms)), 0: -1}]  # t*f - 1; 1 packs to 0
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


def hilbert_numerator(I, degree, bound=None):
    """The Hilbert series numerator of R/I, I homogeneous, exact for the
    Hilbert function in every degree up to `degree`: the data `hilbert`
    kept on I if there is any, else the numerator of the leading terms of a
    Buchberger run that stops at that degree. `bound` maps a degree n to a
    certified bound on dim I_n for that run. Nothing is kept on I, as the
    numerator need not be I's own above that degree."""
    if I._hilbert is not None:
        return I._hilbert.numerator
    lts = _buchberger_terms(I._rows, cap=degree, bound=bound)
    return hilbert_from_lt([_unpack(max(g)) for g in lts]).numerator


def bounded_ideal(rows, bound):
    """The ideal of integer dict-polys keyed by exponent tuples, kept with
    its reduced basis from one run told a certified `bound` on dim I_n."""
    return _engine_ideal(_reduced_basis(_buchberger_terms(map(_packed, rows), bound=bound), None))


def saturate(I):
    """I : m^infinity, the saturation by the irrelevant ideal
    m = (x0, x1, x2, x3).

    It is I : l^infinity for the first l_k = k*x0 + k^2*x1 + k^3*x2 + x3,
    k = 0, 1, 2, ..., that passes a certificate.
    Certificate: I^sat lies in I : l^infinity, so equal Hilbert polynomials
    leave a quotient of finite length, and the two are equal. The check
    fails exactly when l_k lies in an associated prime P != m of I. The
    linear forms in P lie in a hyperplane, which meets the twisted cubic
    (k, k^2, k^3, 1) at most 3 times: at most 3 failures per such prime.
    The reduced basis of I is computed once and kept on I. l_0 = x3 is the
    cheapest variable, so dividing each element of that basis by its largest
    power of x3 gives a Groebner basis of the colon (Bayer-Stillman), which is
    only minimalized and tail-reduced; when x3 divides no element the
    colon is I, so I is saturated and is returned with its own data. For
    k >= 1 the colon is the t-free part of a block-order Groebner basis
    of that basis plus t*l_k - 1. The block order is grevlex on t-free
    polynomials, so the basis of I is already a Groebner basis there: the
    run forms pairs only with t*l_k - 1 and what follows.
    The target is `hilbert(I)`, kept on I, and each colon is tested by its
    leading terms alone: only the accepted one is tail-reduced, and the
    result keeps its HilbertData.
    """
    own = hilbert(I)
    reduced, target = I._basis(), own.hp_coeffs
    for k in itertools.count():
        if k:
            l_k = dict(zip(_VARS, (k, k * k, k ** 3, 1)))
            rabinowitsch = {**_extend(l_k), 0: -1}  # t*l_k - 1; 1 packs to 0
            colon = _t_free(_buchberger_terms([rabinowitsch], done=reduced))
        else:
            # the largest power of x3 that divides each element, from its x3-fields
            x3es = [_pack((0, 0, 0, min((-m & _FIELDS) >> 48 for m in g))) for g in reduced]
            if not any(x3es):
                return _engine_ideal(reduced, own)
            colon = [{m - e: c for m, c in g.items()} for g, e in zip(reduced, x3es)]
        h = hilbert_from_lt([_unpack(max(g)) for g in colon])
        if h.hp_coeffs == target:
            return _engine_ideal(_reduced_basis(colon, None), h)
