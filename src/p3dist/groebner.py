"""Groebner engine and ideal toolbox.

Buchberger with a pair heap ordered by the degree and the term order of the
lcm, the Gebauer-Moller pair criteria, and fraction-free integer reduction
by `poly.fraction_free_step`, the step of the section spaces too, which
cancels in place in a row that the reduction owns: `_normal_form_terms`
and `_regular_form` each copy their row once, on entry. The step divides
out no content: a row's content is divided out once, by `_engine_form`,
when the row is kept as a new basis element or a tail-reduced row of a
reduced basis, and never for a remainder that is zero (a generator that
enters, which may carry Fractions, by `poly.primitive_row`); reduced
grevlex bases, and the ideal operations the analysis pipeline needs:
membership and the saturation by the irrelevant ideal, one saturation by a
linear form certified by its leading terms, by a monomial test that is
the Hilbert polynomial's. By x3 it is a Bayer-Stillman reverse-lex
division, skipped when x3 divides no basis element, as the colon is then
I; by any other form, like intersection (which also gives the gcd that
names a common factor), colon and the saturation by one polynomial, it
eliminates an auxiliary variable t. There the saturation makes a signature run from the
finished basis of I (`_signature_terms`): t*l - 1 is a non-zero-divisor
modulo I, so F5's criterion against the leading terms of I drops every
syzygy and no J-pair reduces to zero. A Buchberger run returns its
minimal basis, and a caller that keeps rows makes them the reduced basis
in one ascending pass (`_reduced_basis`): each row, lowest leading term
first, is reduced by the finished rows below it, as only a lower leading
term divides a tail term. The eliminations pass only the t-free rows they
keep (only a t-free leading term divides a t-free monomial), the
saturation only the colon it accepts. The tests compare the saturation
against those.
The Hilbert series numerator of R/I is read from the packed leading terms
of I's reduced basis (`_lt_numerator`), which `hilbert.hilbert` keeps.
An ideal may carry a certified numerator N, HF_{R/I}(n) >= HF_N(n) for
n <= deg N (`Ideal._of_rows`): every run of it drops the pairs of degree
n once its leading terms fill dim R_n - HF_N(n), as they all reduce to
zero (Traverso's Hilbert-driven stop). A 1-form's coefficient ideal
carries one from its radial and Koszul syzygies
(`exterior.checked_oneform`), a field's minors the Eagon-Northcott
numerator (`foliation.sing_scheme_v`).
Coefficients are exact rationals, or residues mod a prime p for the
modular cross-check and for `hilbert_numerator`'s run mod PRIME = 32003,
the engine's one capped run. A run mod p is read for its leading terms
only, so it top-reduces: a reduction stops at the first term that no
basis element divides, and only a remainder that is zero is reduced all
the way. A run over QQ, whose rows are kept and printed, reduces fully.
At a capped run's cap degree the pairs go largest lcm first, and the run
stops as soon as the leading terms fill the bound; only runs mod p are
capped. The capped run rests on a sandwich: HF_N(n) <= HF_{R/I}(n) <=
HF_{R/I_p}(n) for integer generators, n <= deg N, the upper side as the
rank of the Macaulay matrix of I_n can only drop mod p (Arnold,
J. Symbolic Comput. 35, 2003). Where it meets N up to the degree
asked, N is the Hilbert function there and no run over QQ is made;
otherwise I's own data is read from its reduced basis and kept.

The engine packs t^e x0^a0 x1^a1 x2^a2 x3^a3 into one int (Monagan and
Pearce, J. Symbolic Comput. 46, 2011). An `Ideal` keeps its generators and
its reduced basis packed, and unpacks them only to print or read its Polys:
    e*2^96 + (a0 + a1 + a2 + a3)*2^80 - (e<<64 | a3<<48 | a2<<32 | a1<<16 | a0).
A product is +, a quotient is -, integer comparison is grevlex (for e > 0
the block order that eliminates t), and as MAX_MONOMIAL_DEGREE keeps each
16-bit field below its top (guard) bit, a divides b iff a - b sets none.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd

from .errors import DomainError, InternalInconsistency, NonTermination
from .grammar import _format_monomial, _signed_sum
from .hilbert import hilbert, hilbert_function, numerator_from_terms
from .poly import (
    NVARS,
    Poly,
    add_product,
    dim_graded_piece,
    fraction_free_step,
    grevlex_key,
    mon_div,
    mon_divides,
    primitive_ints,
    primitive_row,
)

# ---------------------------------------------------------------------------
# engine core: polynomials as dicts packed monomial -> nonzero coefficient.
# Over QQ (p is None) a basis element is kept as a primitive integer
# multiple with a positive leading coefficient and reduced fraction-free;
# over GF(p) it is kept monic (`_engine_form`). A run returns its rows in
# that form, and an Ideal keeps its basis reduced (`_reduced_basis`), prints
# it as it is (`basis_strings`) and makes monic Polys only for `groebner`/`gens`.

MAX_MONOMIAL_DEGREE = 2 ** 15 - 1
_FIELDS = (1 << 80) - 1
_GUARDS = 0x8000 * sum(1 << 16 * i for i in range(5))
PRIME = 32003  # the fixed prime of `hilbert_numerator`'s modular run


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


def _minimal(mons):
    """The minimal generators, ascending, of the ideal of packed t-free
    monomials: a divisor of m sorts before m, as its degree is lower."""
    out = []
    for m in sorted(set(mons)):
        for o in out:
            if not (o - m) & _GUARDS:
                break
        else:
            out.append(m)
    return tuple(out)


def _lt_numerator(lts):
    """The numerator tuple of the Hilbert series of R/M over (1-t)^4, for
    the ideal M of the packed t-free monomials lts: () for the unit ideal.

    With M's minimal generators m_1 < ... < m_n,
        N(m_1, ..., m_n) = 1 - sum_k t^deg(m_k) N((m_1, ..., m_(k-1)) : m_k),
    each colon generated by the lcm(m_i, m_k)/m_k, i < k, minimalized; a
    colon that is 0 or principal, (q), has N = 1 or 1 - t^deg(q), written
    out. A colon has fewer generators than its parent, so the recursion
    nests at most n deep; the memo lives for one call."""
    memo = {}

    def numerator(gens):
        out = memo.get(gens)
        if out is None:
            out = {0: 1}
            for k, m in enumerate(gens):
                d = _degree(m)
                colon = [_lcm(g, m) - m for g in gens[:k]]
                if k > 1:
                    colon = _minimal(colon)
                if len(colon) > 1:
                    for j, c in numerator(colon).items():
                        out[j + d] = out.get(j + d, 0) - c
                else:
                    out[d] = out.get(d, 0) - 1
                    for q in colon:
                        out[d + _degree(q)] = out.get(d + _degree(q), 0) + 1
            memo[gens] = out
        return out

    return numerator_from_terms(numerator(_minimal(lts)).items())


def _packed(t):
    return {_pack(m): c for m, c in t.items()}


def _engine_form(t, p):
    """A nonzero integer dict-poly the engine made, as it keeps it: over QQ
    primitive with a positive leading coefficient, over GF(p) monic. The
    engine divides out a content only here, on each row it keeps; a row
    that enters it, which may carry Fractions, is made primitive by
    `primitive_row` instead."""
    if p is None:
        return primitive_ints(t, max(t))
    inv = pow(t[max(t)], -1, p)
    return {m: c * inv % p for m, c in t.items()}


def _normal_form_terms(f, basis, p):
    """Reduce the engine poly f by a list of (lt, engine poly), on a copy
    of f made here, the one row the reduction steps in place; f is not
    modified.

    Over QQ the reduction is full, and the result is an integer multiple of
    the remainder, its content left in by every step; a caller that keeps
    it calls `_engine_form`. Over GF(p) it is a top reduction: it returns
    at the first term that no basis element divides, as a run mod p is
    read for its leading terms only, so a remainder is reduced all the way
    only when it is zero.
    A heap of monomials, largest first, gives the next term to reduce;
    terms already passed are the remainder, and every later one is smaller.
    Each step returns the keys it added, and only those are pushed.
    """
    f = dict(f)
    heap = [-m for m in f]
    heapify(heap)
    while heap:
        m = -heappop(heap)
        if m not in f:
            continue
        for lt, g in basis:
            if not (lt - m) & _GUARDS:
                for k in fraction_free_step(f, g, m, m - lt, p):
                    heappush(heap, -k)
                break
        else:
            if p:
                return f
    return f


def _reduced_basis(G):
    """Reduced basis of engine polys over QQ, sorted by leading term, from a
    Groebner basis (a list) of engine polys, in one ascending pass: the
    first row with each of the minimal leading terms (`_minimal`), lowest
    first, is reduced fully by the finished rows before it. A tail term lies
    below its row's leading term, so only a lower leading term divides it,
    and the reduced basis is unique, so reducing by the finished rows gives
    the rows that reducing by all the others would. Each finished row is put
    in `_engine_form`, so the rows are the ideal's identity."""
    first = {max(g): g for g in reversed(G)}
    done = []
    for lt in _minimal(first):
        done.append((lt, _engine_form(_normal_form_terms(first[lt], done, None), None)))
    return [g for _, g in done]


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


def _regular_form(h, sig, basis, elements):
    """Top-reduce the engine poly h of signature sig over QQ by regular
    reductions only: by every (lt, poly) of basis, which has no signature,
    and by an element (signature, lt, poly) of `_signature_terms` only where
    its multiple's signature is below sig, so the result keeps sig. It
    stops at the first leading term that none reduces, and leaves the
    integer content in, as `_normal_form_terms` does, and like it steps a
    copy of h made here, so h is not modified."""
    h = dict(h)
    while h:
        m = max(h)
        for lt, g in basis:
            if not (lt - m) & _GUARDS:
                break
        else:
            for s, lt, g in elements:
                if not (lt - m) & _GUARDS and m - lt + s < sig:
                    break
            else:
                return h
        fraction_free_step(h, g, m, m - lt)
    return h


def _signature_terms(done, f):
    """A Groebner basis over QQ of done plus f = t*l - 1, with done a
    reduced basis of engine polys of a t-free ideal I: done, then the
    elements of one incremental signature run (Faugere's F5, ISSAC 2002).

    An element h carries a signature u, the leading monomial of a U with
    h = U*f modulo I: f has u = 1 (packed 0) and done none. J-pairs wait in
    a heap keyed by (signature, lcm). The J-pair of an element i and an
    element j, or an element of done, is m*h_i, m = lcm/LT(h_i), when
    m*u_i is the larger of the pair's two signatures; two equal signatures
    give none. Of the J-pairs with one signature u, the one of least lcm
    is kept, and it goes when
      - a leading term of done divides u (F5's criterion), or
      - an element whose signature divides u has a multiple of signature u
        with a smaller leading term (the cover criterion of Gao, Volny and
        Wang, Math. Comp. 85, 2016).
    Otherwise the multiple of signature u with the least leading term is
    top-reduced by `_regular_form` and kept as an element. A J-pair with an
    element of done whose leading term is coprime to the new element's has
    u = sig*LT, which F5's criterion drops, so it is not formed; done's
    leading terms are scanned from one list.

    F5's criterion drops every syzygy: f is a non-zero-divisor on
    (R/I)[t], as its constant coefficient -1 is a unit (McCoy), so a
    syzygy sum a_i*g_i + U*f = 0 has U*f, hence U, in I*R[t], whose leading
    terms are the multiples of those of done. A regular reduction to zero
    would give a syzygy of its signature, so none reaches zero.
    With t of weight -1 every element is homogeneous, and every term of a
    J-pair and of its reduction is at most its lcm in the block order and
    of the lcm's weight, so of degree at most the lcm's: checking each
    J-pair's lcm and signature keeps every exponent in its field.
    """
    basis = [(max(g), g) for g in done]
    lts = [lt for lt, _ in basis]
    elements, jpairs = [], []

    def add(sig, h):
        lt = max(h)
        cands = []
        for lt2 in lts:
            l = _lcm(lt, lt2)
            if l != lt + lt2:  # coprime: lt2 divides u = sig*lt2, F5's criterion
                cands.append((l - lt + sig, l))
        for s, lt2, _ in elements:
            l = _lcm(lt, lt2)
            u, u2 = l - lt + sig, l - lt2 + s
            if u != u2:
                cands.append((max(u, u2), l))
        for u, l in cands:
            for lt3 in lts:
                if not (lt3 - u) & _GUARDS:
                    break  # F5's criterion
            else:
                _bounded(max(_degree(u), _degree(l)))
                heappush(jpairs, (u, l))
        elements.append((sig, lt, h))

    add(0, _engine_form(_regular_form(primitive_row(f, max(f)), 0, basis, ()), None))
    while jpairs:
        sig, l = heappop(jpairs)
        while jpairs and jpairs[0][0] == sig:
            heappop(jpairs)
        s, lt, h = min((e for e in elements if not (e[0] - sig) & _GUARDS),
                       key=lambda e: e[1] - e[0])
        if sig - s + lt < l:
            continue  # covered
        r = _regular_form({k + sig - s: c for k, c in h.items()}, sig, basis, elements)
        if r:
            add(sig, _engine_form(r, None))
    return [*done, *(h for _, _, h in elements)]


def _buchberger_terms(gens, p=None, cap=None, lower=None):
    """A minimal Groebner basis of packed dict-polys: the run's active
    engine polys, in the order they were kept. A caller that keeps the
    rows makes them the reduced basis with `_reduced_basis`, over QQ only:
    a run mod p top-reduces (`_normal_form_terms`), so its rows carry
    unreduced tails, and its callers read their leading terms alone.

    Pairs wait in a heap keyed by (total degree of the lcm, lcm), and by
    (degree, -lcm) in a capped run's cap degree, so largest lcm first there;
    they are pruned by the Gebauer-Moller update when an element is added.
    `active` holds the elements whose leading terms divide no other one;
    they reduce, and only they form new pairs. Every term of an S-polynomial
    and of its reduction is at most the pair's lcm in the term order, so its
    degree is at most the lcm's (in the eliminations too: their generators
    are homogeneous once t has weight 0 or -deg f), and checking each new
    pair's lcm keeps every exponent in its field.

    With a degree `cap` and homogeneous gens, pairs are taken up to that
    degree only, and with a bound below too, up to the first bounded degree
    whose leading terms span fewer monomials than the bound: the leading
    terms of the elements returned generate the leading-term ideal in every
    degree up to the one where the run stops. Below the cap the rows found
    in a degree reduce the pairs of the next; in the cap degree nothing
    comes after, and on the forms of `compute_tF` the largest lcm first
    fills the bound before the pairs that reduce to zero. Any order of one
    degree's pairs finds the same leading terms in that degree, and the
    normal form is zero under top reduction exactly when it is under full
    reduction, so the leading terms returned do not depend on either choice.

    `lower` is a Hilbert series numerator N with HF_{R/I}(n) >= HF_N(n)
    for n <= deg N, for homogeneous gens over QQ, so dim I_n <= bound[n] =
    dim R_n - HF_N(n) (Traverso's Hilbert-driven stop, J. Symbolic Comput.
    22, 1996). The bound holds over GF(p) too for the reduction mod p of
    integer gens, as the rank of I_n can only drop mod p. The leading
    terms found span at most dim I_n monomials of degree n, so once they
    span the bound they span all of LT(I)_n, and every pair left at n
    reduces to zero: the run drops them. Entering a
    bounded degree, it counts that degree's leading monomials once, from
    the last bounded degree's, and adds one per element added there. A
    count above the bound on entering raises InternalInconsistency; a
    bound that is too small but not below that count goes unseen, so N
    must be a theorem (`exterior.checked_oneform` and
    `foliation.sing_scheme_v` name theirs). Degrees above deg N run
    unbounded. Uncapped, only where the run stops changes, so the result
    is the same with or without a valid N.
    """
    polys, lts, active, basis, pairs = [], [], [], [], []

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
            if (lt - e[2]) & _GUARDS
            or _lcm(lts[e[3]], lt) == e[2]
            or _lcm(lts[e[4]], lt) == e[2]
        ]
        for l, i in kept:
            if i is not None:
                deg = _bounded(_degree(l))
                pairs.append((deg, -l if deg == cap else l, l, i, new))
        heapify(pairs)
        active = [i for i in active if (lt - lts[i]) & _GUARDS] + [new]
        basis = [(lts[i], polys[i]) for i in active]

    for g in sorted((_engine_form(g, p) if p else primitive_row(g, max(g)) for g in gens if g),
                    key=max):
        r = _normal_form_terms(g, basis, p)
        if r:
            add(_engine_form(r, p))
    bound = {} if lower is None else {
        n: dim_graded_piece(n) - hilbert_function(lower, n) for n in range(len(lower))}
    at, filled = None, set()  # the bounded degree being run, its leading monomials
    while pairs and (cap is None or pairs[0][0] <= cap):
        deg, _, l, i, j = heappop(pairs)
        if deg in bound:
            if deg != at:
                if cap is not None and at is not None and len(filled) < bound[at]:
                    break  # LT(I) falls short of the bound in degree at
                filled, at = _lt_piece(lts, deg, filled, at), deg
                if len(filled) > bound[deg]:
                    raise InternalInconsistency(
                        f"leading terms span {len(filled)} monomials of degree {deg},"
                        f" above the bound {bound[deg]}")
            if len(filled) == bound[deg]:
                continue  # LT(I) is full in this degree: the pair reduces to zero
        si = l - lts[i]
        s = {k + si: c for k, c in polys[i].items()}
        fraction_free_step(s, polys[j], l, l - lts[j], p)
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
    Polys sorted by leading term, `basis_strings()` prints it, and `gens` is
    that basis on an ideal the engine made, else the given generators.
    `hilbert.hilbert` keeps the ideal's HilbertData in `_hilbert`, read from
    `_numerator`; the ideal `saturate` returns has none, unless it is I
    itself, with whatever data I holds. `_lower` is the certified numerator
    that every Buchberger run of the ideal is told."""

    __slots__ = ("_rows", "_reduced", "_hilbert", "_lower")

    def __init__(self, gens):
        self._keep(tuple(_packed(g.terms) for g in gens if not g.is_zero()))

    def _keep(self, rows, reduced=None, hilbert=None, lower=None):
        for name, value in zip(self.__slots__, (rows, reduced, hilbert, lower)):
            object.__setattr__(self, name, value)
        return self

    @classmethod
    def _of_rows(cls, rows, lower=None):
        """The ideal of integer dict-polys keyed by exponent tuples, packed
        here without building a Poly, carrying the numerator `lower` of
        `_buchberger_terms` when its maker proves one."""
        return cls.__new__(cls)._keep(tuple(_packed(t) for t in rows if t), lower=lower)

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
            minimal = _buchberger_terms(self._rows, lower=self._lower)
            object.__setattr__(self, "_reduced", _reduced_basis(minimal))
        return self._reduced

    def groebner(self):
        """The reduced basis as monic Polys, each coefficient Fraction(c, lc)."""
        return tuple(Poly({_unpack(m): Fraction(c, lc) for m, c in g.items()})
                     for g in self._basis() for lc in (g[max(g)],))

    def basis_strings(self):
        """`format_poly` of each element of `groebner()`, read off the rows: keys
        descending (packed order is grevlex), c/lc reduced by one gcd (lc > 0)."""
        return [_signed_sum(((_unpack(k), c // q, lc // q)
                             for k, c in sorted(g.items(), reverse=True) for q in (gcd(c, lc),)),
                            _format_monomial)
                for g in self._basis() for lc in (g[max(g)],)]

    def leading_monomials(self):
        return tuple(_unpack(max(g)) for g in self._basis())

    def _numerator(self):
        """The Hilbert series numerator of R/I, read from the packed leading
        terms of the reduced basis, which `hilbert.hilbert` keeps."""
        return _lt_numerator(max(g) for g in self._basis())

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


def _mod_p_rows(rows, prime):
    """The reduction mod prime of dict-polys with rational coefficients:
    each coefficient reduced, terms that vanish dropped, as the engine
    keeps no zero coefficients, and rows that vanish dropped. Raises
    ZeroDivisionError when the prime divides a denominator."""
    reduced = []
    for g in rows:
        t = {}
        for m, c in g.items():
            num, den = c.numerator, c.denominator % prime
            if den != 1:
                if not den:
                    raise ZeroDivisionError(f"denominator vanishes mod {prime}")
                num *= pow(den, -1, prime)
            if num % prime:
                t[m] = num % prime
        if t:
            reduced.append(t)
    return reduced


def leading_monomials_mod_p(ideal, prime):
    """Leading monomials of the reduced basis over GF(prime) of the ideal's
    generators: on an ideal the engine made, its reduced basis of primitive
    integer rows.

    Used only as a consistency check against the rational computation.
    Raises ZeroDivisionError when the prime divides a denominator of a
    generator, or a leading coefficient of an engine ideal's row, which is
    exactly when it divides a denominator of the monic reduced basis, as
    the rows are primitive. The generators are reduced by `_mod_p_rows`.
    """
    if ideal._rows is ideal._reduced and any(not g[max(g)] % prime for g in ideal._rows):
        raise ZeroDivisionError(f"leading coefficient vanishes mod {prime}")
    rows = _buchberger_terms(_mod_p_rows(ideal._rows, prime), prime)
    return tuple(_unpack(lt) for lt in sorted(max(g) for g in rows))


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
    reduced basis, and `_reduced_basis`'s ascending pass runs over the
    part's rows alone."""
    return [g for g in basis if max(g) < _T]


def _eliminate_t(gens5):
    """The elimination ideal of the auxiliary variable."""
    return _engine_ideal(_reduced_basis(_t_free(_buchberger_terms(gens5))))


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


def _function(numerator, degree):
    """The Hilbert function of a numerator in the degrees 0, ..., degree."""
    return [hilbert_function(numerator, n) for n in range(degree + 1)]


def hilbert_numerator(I, degree):
    """The Hilbert series numerator of R/I, I homogeneous, exact for the
    Hilbert function in every degree up to `degree`: I's certified
    numerator N where a run mod PRIME pins it, else I's own, `hilbert(I)`.

    Where I keeps no data and degree <= deg N, a run over GF(PRIME) capped
    at the degree comes first. Its rows are I's integer generators reduced
    mod PRIME, and for every n, HF_N(n) <= HF_{R/I}(n) <= HF_p(n): the
    lower side is N's theorem, the upper holds as the rank of the Macaulay
    matrix of I_n can only drop mod p (E. A. Arnold, J. Symbolic Comput.
    35, 2003), which keeps N a valid bound for that run too. So where
    HF_p = HF_N up to the degree, N is exact there and is returned, with
    no run over QQ. The run stops short after the first degree where
    HF_p > HF_N, and HF_p is then exact up to that degree and too large
    above it. I's own numerator is checked against the upper side, which
    no prime can break: HF_{R/I}(n) above the HF_p read at any n <= degree
    raises InternalInconsistency, and the data that failed is not kept.
    """
    lower, modular = I._lower, ()
    if I._hilbert is None and lower is not None and degree < len(lower):
        rows = _buchberger_terms(_mod_p_rows(I._rows, PRIME), PRIME, cap=degree, lower=lower)
        modular = _function(_lt_numerator(max(g) for g in rows), degree)
        if modular == _function(lower, degree):
            return lower
    rational = hilbert(I).numerator
    if modular:
        for n, (hf, hf_p) in enumerate(zip(_function(rational, degree), modular)):
            if hf > hf_p:
                I._keep(I._rows, lower=lower)
                raise InternalInconsistency(
                    f"Hilbert function {hf} in degree {n} over QQ is above {hf_p} mod {PRIME}")
    return rational


def _lt_saturation(lts):
    """Membership in M^sat = M : m^infinity for the ideal M of the packed
    t-free monomials lts, m = (x0, x1, x2, x3). A monomial of degree 4N has
    an exponent at least N, so g*m^(4N) lies in M once every g*x_i^N does:
    M^sat is the intersection of the M : x_i^infinity, each generated by
    lts with their x_i-exponents cleared. So g lies in M^sat iff, for each
    i, one of lts with its x_i-exponent cleared divides g."""
    cleared = [[m - ((-m & _FIELDS) >> 16 * i & 0xFFFF) * x for m in lts]
               for i, x in enumerate(_VARS)]
    return lambda g: all(any(not (c - g) & _GUARDS for c in cs) for cs in cleared)


def saturate(I):
    """I : m^infinity, the saturation by the irrelevant ideal
    m = (x0, x1, x2, x3).

    It is C = I : l^infinity for the first l_k = k*x0 + k^2*x1 + k^3*x2 + x3,
    k = 0, 1, 2, ..., that passes a certificate. I^sat lies in C, so C is
    I^sat exactly when the Hilbert polynomials HP(C) and HP(I) are equal:
    then C/I has finite length, and C lies in I^sat. That fails exactly
    when l_k lies in an associated prime P != m of I. The linear forms in
    P lie in a hyperplane, which meets the twisted cubic (k, k^2, k^3, 1)
    at most 3 times: at most 3 failures per such prime.

    Certificate: every leading term of C lies in LT(I)^sat, the monomial
    saturation (`_lt_saturation`), which is the Hilbert-polynomial test:
      - I lies in C, so HP(C) <= HP(I);
      - LT(C) in LT(I)^sat gives HP(C) >= HP(R/LT(I)^sat) = HP(I), as
        LT(I)^sat/LT(I) has finite length;
      - conversely, HP(C) = HP(I) puts C in I^sat: for f in C, m^N*f lies
        in I, so m^N*LT(f) lies in LT(I), and LT(f) lies in LT(I)^sat.
    No colon's Hilbert series is computed, and only the leading terms the
    step adds to those of I are tested.

    The reduced basis of I is computed once and kept on I. l_0 = x3 is the
    cheapest variable, so dividing each element of that basis by its largest
    power of x3 gives a Groebner basis of the colon (Bayer-Stillman), whose
    shifted leading terms are tested before the shifted rows are built.
    They are distinct but may divide one another's, and `_reduced_basis`
    minimalizes them and reduces the rows in its ascending pass. When x3
    divides no element the colon is I, so I is saturated and is returned
    with whatever data I holds. For k >= 1 the colon is the t-free part of
    a block-order Groebner basis of that basis plus f = t*l_k - 1. The
    block order is grevlex on t-free polynomials, so the basis of I is
    already a Groebner basis there, and `_signature_terms` adds f to it by
    one incremental signature run, whose t-free elements are tested. By
    McCoy's theorem f is a non-zero-divisor on (R/I)[t], as its constant
    coefficient is the unit -1, so every syzygy with an f-component is a
    Koszul syzygy plus a syzygy of the basis: F5's criterion against the
    leading terms of I drops all of them, and no J-pair reduces to zero.
    Only the accepted colon is reduced, by the same ascending pass over the
    basis of I and the run's t-free elements; the result carries no
    HilbertData, which `hilbert.hilbert` reads from its reduced basis when
    asked.
    """
    reduced = I._basis()
    # the largest power of x3 that divides each element, from its x3-fields
    x3es = [_pack((0, 0, 0, min((-m & _FIELDS) >> 48 for m in g))) for g in reduced]
    if not any(x3es):
        return _engine_ideal(reduced, I._hilbert)
    saturated = _lt_saturation([max(g) for g in reduced])
    if all(saturated(max(g) - e) for g, e in zip(reduced, x3es) if e):
        return _engine_ideal(_reduced_basis(
            [{m - e: c for m, c in g.items()} for g, e in zip(reduced, x3es)]))
    for k in itertools.count(1):
        l_k = dict(zip(_VARS, (k, k * k, k ** 3, 1)))
        rabinowitsch = {**_extend(l_k), 0: -1}  # t*l_k - 1; 1 packs to 0
        added = _t_free(_signature_terms(reduced, rabinowitsch)[len(reduced):])
        if all(saturated(max(g)) for g in added):
            return _engine_ideal(_reduced_basis(reduced + added))
