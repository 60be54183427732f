"""The Buchberger run over GF(p) against a fully reducing oracle.

A run mod p is read for its leading terms only: it top-reduces, and at a
capped run's cap degree it takes the largest lcm first. The oracle reduces
every remainder fully and takes every pair, one degree at a time, with the
capped run's stop: the first bounded degree whose leading terms span fewer
monomials than the bound ends it. Any strategy finds the same leading terms
of I_p in each degree it completes, so the minimal leading terms agree.
"""

import functools
import os
import sys
from heapq import heappop, heappush

from p3dist import corpus, distribution, foliation, groebner
from p3dist.exterior import ExtForm, checked_oneform, coefficient_ideal
from p3dist.grammar import parse_poly
from p3dist.hilbert import hilbert_function
from p3dist.linalg import compute_tF
from p3dist.poly import dim_graded_piece, monomials_of_degree

import maxorder

# the sections workload's forms, read from perfbench/run.py
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "perfbench"))
import run as perfbench_run  # noqa: E402

GUARDS = groebner._GUARDS


def divides(a, b):
    return not (a - b) & GUARDS


def monic(f, p):
    inv = pow(f[max(f)], -1, p)
    return {m: c * inv % p for m, c in f.items()}


def reduce_fully(f, basis, p):
    """The remainder of f mod p by the monic (lt, poly) basis, every term
    reduced."""
    f, rest = dict(f), {}
    while f:
        m = max(f)
        for lt, g in basis:
            if divides(lt, m):
                c, shift = f[m], m - lt
                for k, v in g.items():
                    x = (f.get(k + shift, 0) - c * v) % p
                    if x:
                        f[k + shift] = x
                    else:
                        f.pop(k + shift, None)
                break
        else:
            rest[m] = f.pop(m)
    return rest


def oracle_leading_terms(rows, p, cap=None, lower=None):
    """The sorted minimal leading terms of a fully reducing Buchberger run
    over GF(p) on the packed rows, with every pair but the coprime ones
    taken in ascending (degree, lcm) order, up to `cap`, stopping after the
    first degree n <= deg lower whose leading terms span fewer than
    dim R_n - HF_lower(n) monomials when the next pair is bounded too."""
    basis, pairs = [], []

    def add(h):
        lt = max(h)
        for i, (lt2, _) in enumerate(basis):
            lcm = groebner._lcm(lt, lt2)
            if lcm != lt + lt2:
                heappush(pairs, (groebner._degree(lcm), lcm, i, len(basis)))
        basis.append((lt, monic(h, p)))

    for g in sorted((monic(g, p) for g in rows if g), key=max):
        r = reduce_fully(g, basis, p)
        if r:
            add(r)
    bounded = () if cap is None or lower is None else range(len(lower))
    while pairs and (cap is None or pairs[0][0] <= cap):
        n = pairs[0][0]
        while pairs and pairs[0][0] == n:
            _, lcm, i, j = heappop(pairs)
            (a, f), (b, g) = basis[i], basis[j]
            s = {k + lcm - a: c for k, c in f.items()}
            for k, c in g.items():
                x = (s.get(k + lcm - b, 0) - c) % p
                if x:
                    s[k + lcm - b] = x
                else:
                    s.pop(k + lcm - b, None)
            r = reduce_fully(s, basis, p)
            if r:
                add(r)
        if n in bounded and pairs and pairs[0][0] in bounded:
            spanned = sum(any(divides(lt, groebner._pack(m)) for lt, _ in basis)
                          for m in monomials_of_degree(n))
            if spanned < dim_graded_piece(n) - hilbert_function(lower, n):
                break
    return sorted(groebner._minimal(lt for lt, _ in basis))


def modular_rows(omega):
    ideal = coefficient_ideal(omega)
    return groebner._mod_p_rows(ideal._rows, groebner.PRIME), ideal._lower


def run_leading_terms(rows, **kwargs):
    return sorted(max(g) for g in groebner._buchberger_terms(rows, groebner.PRIME, **kwargs))


@functools.cache
def _sections_coeffs():
    return tuple(tuple(item["doc"]["coeffs"])
                 for seed in range(1, 11) for item in perfbench_run.build_items("sections", seed))


def sections_forms():
    """The forty sections forms of seeds 1-10, parsed afresh on each call,
    so that no test sees what another computed on them; their texts are
    built once."""
    return [ExtForm.one_form(*map(parse_poly, coeffs)) for coeffs in _sections_coeffs()]


def test_capped_runs_against_the_oracle():
    # the capped run of compute_tF on the forty sections forms of seeds
    # 1-10, and the maximal-order rows at d = 3-5 capped at d + 2 and at
    # 2d + 2, told K_d, where they stop short at d + 2
    cases = [(omega, 2 * 2 + 2) for omega in sections_forms()]
    cases += [(maxorder.oneform(row, d, 1), cap) for row in sorted(maxorder.ROWS)
              for d in (3, 4, 5) for cap in (d + 2, 2 * d + 2)]
    for omega, cap in cases:
        rows, lower = modular_rows(omega)
        expected = oracle_leading_terms(rows, groebner.PRIME, cap, lower)
        assert run_leading_terms(rows, cap=cap, lower=lower) == expected, omega


def test_leading_monomials_mod_p_against_the_oracle():
    # the uncapped run on the saturated ideals of the corpus
    names = corpus.corpus_names()
    sats = [distribution.singular_scheme(corpus.load_oneform(n)) for n in names["oneforms"]]
    sats += [foliation.sing_scheme_v(corpus.load_vfield(n)) for n in names["vfields"]]
    for sat in sats:
        rows = groebner._mod_p_rows(sat._basis(), groebner.PRIME)
        expected = oracle_leading_terms(rows, groebner.PRIME)
        assert groebner.leading_monomials_mod_p(sat, groebner.PRIME) == tuple(
            map(groebner._unpack, expected))


def test_top_reduction_proves_one_zero_on_the_sections_forms(monkeypatch):
    # a run mod p reduces only a remainder that is zero all the way: over
    # compute_tF of the forty sections forms of seeds 1-10 one remainder
    # is zero (121 when every remainder was fully reduced and the cap
    # degree went smallest lcm first)
    zeros, normal_form = [], groebner._normal_form_terms

    def counting(f, basis, p):
        r = normal_form(f, basis, p)
        zeros.append(bool(p and not r))
        return r

    monkeypatch.setattr(groebner, "_normal_form_terms", counting)
    for omega in sections_forms():
        assert compute_tF(omega)[0] == checked_oneform(omega)[0] + 1
    assert sum(zeros) == 1
