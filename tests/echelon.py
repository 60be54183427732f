"""Integer Gauss-Jordan elimination on sparse rows, for the tests and for
the generator of `maxorder`: the rank, the RREF rows and the canonical RREF
kernel basis of a matrix. The package reads its section spaces from the
Hilbert function and one column scan instead (`p3dist.linalg`); the tests
compare that against these and against a plain Fraction elimination.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush

from p3dist.poly import fraction_free_step, primitive_row


def _pivot_rows(rows):
    """Integer Gauss-Jordan elimination on sparse rows (column -> nonzero int).

    Returns [(pivot_col, row)] in increasing pivot column: the reduced row
    echelon form of the row space, each row a nonzero integer multiple of
    its RREF row, made primitive wherever it is kept after a step, as the
    step leaves the content in. The length is the rank. The input rows are
    not modified.
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
            r = fraction_free_step(r, pivot, col)
            if r:
                r = primitive_row(r)
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
                echelon[j] = (qc, primitive_row(fraction_free_step(qr, pr, pc)))
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

