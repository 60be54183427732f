"""Integer Gauss-Jordan elimination on sparse rows, for the tests and for
the generator of `maxorder`: the rank, the RREF rows and the canonical RREF
kernel basis of a matrix. The package reads its section spaces from the
Hilbert function and one column scan instead (`p3dist.linalg`); the tests
compare that against these and against a plain Fraction elimination.
The elimination step is written here, apart from the package's
`poly.fraction_free_step`, so that this reference shares no code with
what it checks.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd


def _step(row, pivot, col):
    """pivot[col]*row - row[col]*pivot, which cancels col, divided by its
    content and positive at its smallest column; a new row, or {} when it
    vanishes. Neither input is modified."""
    q, f = pivot[col], row[col]
    out = {k: q * c for k, c in row.items()}
    for k, c in pivot.items():
        out[k] = out.get(k, 0) - f * c
    out = {k: c for k, c in out.items() if c}
    if not out:
        return out
    g = gcd(*out.values())
    if out[min(out)] < 0:
        g = -g
    return {k: c // g for k, c in out.items()}


def _pivot_rows(rows):
    """Integer Gauss-Jordan elimination on sparse rows (column -> nonzero int).

    Returns [(pivot_col, row)] in increasing pivot column: the reduced row
    echelon form of the row space, each row a nonzero integer multiple of
    its RREF row, primitive wherever a step made it. The length is the
    rank. The input rows are not modified.
    """
    by_lead = {}
    for r in rows:
        if r:
            by_lead.setdefault(min(r), []).append(r)
    leads = list(by_lead)
    heapify(leads)
    echelon = []
    while leads:
        col = heappop(leads)
        here = by_lead.pop(col)
        # the shortest candidate causes the least fill-in; RREF is unique,
        # so the choice cannot change the result
        pivot = min(here, key=len)
        for r in here:
            if r is pivot:
                continue
            r = _step(r, pivot, col)
            if r:
                lead = min(r)
                if lead not in by_lead:
                    by_lead[lead] = []
                    heappush(leads, lead)
                by_lead[lead].append(r)
        echelon.append((col, pivot))
    # back substitution: row i is final once every later row has cleared it
    for i in range(len(echelon) - 1, 0, -1):
        pc, pr = echelon[i]
        for j in range(i):
            qc, qr = echelon[j]
            if pc in qr:
                echelon[j] = (qc, _step(qr, pr, pc))
    return echelon


def _kernel(echelon, ncols):
    """Canonical RREF basis of the right kernel: for each free column fc in
    increasing order, the vector (column -> Fraction) with v[fc] = 1."""
    pivots = {pc for pc, _ in echelon}
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = {fc: Fraction(1)}
        for pc, r in echelon:
            if fc in r:
                v[pc] = Fraction(-r[fc], r[pc])
        basis.append(v)
    return basis

