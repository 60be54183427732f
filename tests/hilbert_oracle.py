"""The Hilbert series numerator of R/M, for a monomial ideal M given by
exponent tuples, by recursive splitting on a power of a pivot variable:
the tests' reference for the package's kernel on packed leading terms
(`groebner._lt_numerator`), written on plain tuples so that it shares no
code with what it checks.
"""

NVARS = 4
ONE = (0,) * NVARS


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _minimalize(mons):
    mons = sorted(set(mons), key=sum)
    out = []
    for m in mons:
        if not any(_divides(o, m) for o in out):
            out.append(m)
    return tuple(sorted(out))


def _poly_mul(a, b):
    out = {}
    for i, ca in a.items():
        for j, cb in b.items():
            out[i + j] = out.get(i + j, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def _numerator(gens, memo):
    """Numerator of Hilb(R/I) over (1-t)^4 as a dict degree -> coefficient."""
    gens = _minimalize(gens)
    if not gens:
        return {0: 1}
    if ONE in gens:
        return {}
    cached = memo.get(gens)
    if cached is not None:
        return cached
    counts = [sum(1 for m in gens if m[i]) for i in range(NVARS)]
    best = max(range(NVARS), key=lambda i: counts[i])
    if counts[best] <= 1:
        # pairwise disjoint supports: product of (1 - t^deg)
        out = {0: 1}
        for m in gens:
            out = _poly_mul(out, {0: 1, sum(m): -1})
    else:
        # N(I) = N(I + (x^e)) + t^e * N(I : x^e), x = x_best and e its
        # least positive exponent
        e = min(m[best] for m in gens if m[best])
        plus = [m for m in gens if m[best] == 0]
        plus.append(tuple(e if i == best else 0 for i in range(NVARS)))
        quot = [m[:best] + (max(m[best] - e, 0),) + m[best + 1:] for m in gens]
        out = dict(_numerator(tuple(plus), memo))
        for k, v in _numerator(tuple(quot), memo).items():
            out[k + e] = out.get(k + e, 0) + v
        out = {k: v for k, v in out.items() if v}
    memo[gens] = out
    return out


def numerator(mons):
    """The numerator tuple, as `hilbert.numerator_from_terms` writes it:
    coefficients by degree, trailing zeros dropped; () for the unit ideal."""
    num = _numerator(tuple(mons), {})
    top = max(num, default=-1)
    return tuple(num.get(k, 0) for k in range(top + 1))
