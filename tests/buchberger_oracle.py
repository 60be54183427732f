"""The Buchberger run as `groebner._buchberger_terms` made it before its
generators were all entered ahead of the pairs, kept as its oracle: each
generator, reduced by the active rows and kept, forms its pairs at once,
and every add filters and re-heapifies the whole pair list by the
Gebauer-Moller B criterion; Traverso's bound is read from one
`hilbert_function` call a degree, and the pairs of a degree it fills are
pushed and dropped at pop. The same S-polynomials are reduced, so the
leading terms returned are those of the run it checks. It calls the
engine's helpers through the module, so a test that wraps
`groebner._normal_form_terms` counts the oracle's reductions too.
"""

from heapq import heapify, heappop

from p3dist import groebner
from p3dist.errors import InternalInconsistency
from p3dist.hilbert import hilbert_function
from p3dist.poly import dim_graded_piece, fraction_free_step, primitive_row

GUARDS = groebner._GUARDS


def buchberger_terms(gens, p=None, cap=None, lower=None):
    lcm, degree = groebner._lcm, groebner._degree
    polys, lts, active, basis, pairs = [], [], [], [], []

    def add(h):
        nonlocal active, basis, pairs
        lt = max(h)
        new = len(polys)
        polys.append(h)
        lts.append(lt)
        cands = [(lcm(lts[i], lt), i) for i in active]
        kept = []
        for pos, (l, i) in enumerate(cands):
            coprime = l == lts[i] + lt
            if coprime or all((l2 - l) & GUARDS for l2, _ in cands[pos + 1:] + kept):
                kept.append((l, None if coprime else i))
        pairs = [
            e for e in pairs
            if (lt - e[2]) & GUARDS
            or lcm(lts[e[3]], lt) == e[2]
            or lcm(lts[e[4]], lt) == e[2]
        ]
        for l, i in kept:
            if i is not None:
                deg = groebner._bounded(degree(l))
                pairs.append((deg, -l if deg == cap else l, l, i, new))
        heapify(pairs)
        active = [i for i in active if (lt - lts[i]) & GUARDS] + [new]
        basis = [(lts[i], polys[i]) for i in active]

    engine_form = groebner._engine_form
    for g in sorted((engine_form(g, p) if p else primitive_row(g, max(g)) for g in gens if g),
                    key=max):
        r = groebner._normal_form_terms(g, basis, p)
        if r:
            add(engine_form(r, p))
    bound = {} if lower is None else {
        n: dim_graded_piece(n) - hilbert_function(lower, n) for n in range(len(lower))}
    at, filled = None, set()
    while pairs and (cap is None or pairs[0][0] <= cap):
        deg, _, l, i, j = heappop(pairs)
        if deg in bound:
            if deg != at:
                if cap is not None and at is not None and len(filled) < bound[at]:
                    break
                filled, at = groebner._lt_piece(lts, deg, filled, at), deg
                if len(filled) > bound[deg]:
                    raise InternalInconsistency(
                        f"leading terms span {len(filled)} monomials of degree {deg},"
                        f" above the bound {bound[deg]}")
            if len(filled) == bound[deg]:
                continue
        si = l - lts[i]
        s = {k + si: c for k, c in polys[i].items()}
        fraction_free_step(s, polys[j], l, l - lts[j], p)
        r = groebner._normal_form_terms(s, basis, p)
        if r:
            add(engine_form(r, p))
            if deg == at:
                filled.add(lts[-1])
    return [polys[i] for i in active]
