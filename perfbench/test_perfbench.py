"""Self-tests for the benchmark's own checkers and generators.

Run from the root of the checkout:  python3 -m pytest perfbench
"""

import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import inputs

ROOT = Path(__file__).resolve().parent.parent
NULLCORRELATION = [{(0, 1, 0, 0): 1}, {(1, 0, 0, 0): -1}, {(0, 0, 0, 1): 1}, {(0, 0, 1, 0): -1}]
PENCIL = [{(0, 1, 0, 0): 1}, {(1, 0, 0, 0): -1}, {}, {}]


def test_modp_h0_known_section_spaces():
    # null correlation: no constant field, five linear ones modulo the radial
    assert checks.modp_h0(NULLCORRELATION, 0, checks.PRIMES[0]) == 0
    assert checks.modp_h0(NULLCORRELATION, 1, checks.PRIMES[0]) == 5
    # pencil of planes: d/dx2 and d/dx3
    assert checks.modp_h0(PENCIL, 0, checks.PRIMES[0]) == 2
    assert checks.modp_h0(PENCIL, -1, checks.PRIMES[0]) == 0


def test_modp_nullity_only_bounds_from_above():
    scaled = [inputs.pscale(a, 5) for a in NULLCORRELATION]
    assert checks.modp_h0(scaled, 0, checks.PRIMES[0]) == 0
    # mod 5 the form vanishes and every constant field is in the kernel
    assert checks.modp_h0(scaled, 0, 5) == 4
    assert checks.certified_h0_zero(scaled, 0)


@pytest.mark.parametrize("degrees, expected", [
    ((2, 2), (4, 4)),          # the quadric pencil
    ((1, 1, 1, 1), (6, 0)),    # (1-h)^4 / (1-h)^4 = 1
    ((1, 3), (3, 8)),          # (1-h)^3 / (1-3h): 27 - 27 + 9 - 1
])
def test_log_predictions(degrees, expected):
    assert checks.log_predictions(degrees) == expected


def _rank(m):
    import sympy

    return sympy.Matrix(m).rank()


def _shift(m, a):
    return [[m[i][j] - (a if i == j else 0) for j in range(4)] for i in range(4)]


def test_jordan_fields_have_their_type():
    rng = random.Random(5)
    for _ in range(5):
        p, pinv = inputs.unimodular_pair(rng, steps=3)
        assert inputs.matmul(p, pinv) == [[int(i == j) for j in range(4)] for i in range(4)]
        conj = lambda d: inputs.matmul(inputs.matmul(p, d), pinv)  # noqa: E731

        d = inputs.jordan_matrix(rng, "aabc")
        m, a = conj(d), d[0][0]
        assert _rank(_shift(m, a)) == 2 and not inputs.charpoly_squarefree(m)

        d = inputs.jordan_matrix(rng, "aabb")
        m = conj(d)
        assert _rank(_shift(m, d[0][0])) == 2 and _rank(_shift(m, d[3][3])) == 2

        m = conj(inputs.jordan_matrix(rng, "j2j2"))
        assert _rank(m) == 2 and inputs.matmul(m, m) == [[0] * 4 for _ in range(4)]


def test_random_fields_are_squarefree():
    items = inputs.gen_vfields(random.Random(1), n_random=10, n_per_jordan=1)
    assert [i["expect"]["case"] for i in items[10:]] == list(inputs.JORDAN_CASES.values())
    assert all(i["expect"]["case"] == "stable-points" for i in items[:10])


def test_printed_polynomials_round_trip():
    p = {(2, 1, 0, 0): Fraction(3, 2), (0, 0, 0, 1): -1, (0, 0, 0, 0): 7}
    assert checks.parse_printed(inputs.pstr(p)) == p
    assert checks.parse_source("2x^3*w - y") == {(3, 0, 0, 1): 2, (0, 1, 0, 0): -1}


def test_check_section_rejects_wrong_sections():
    pts = checks.rational_points(1)
    assert checks.check_section(NULLCORRELATION, 1, 5, ["0", "0", "x2", "x3"], pts) is None
    radial = ["x0", "x1", "x2", "x3"]
    assert "wedge" in checks.check_section(NULLCORRELATION, 1, 5, radial, pts)
    assert "sum A_i F_i" in checks.check_section(NULLCORRELATION, 1, 5, ["x0", "0", "0", "0"], pts)
    # a section at twist 1 of the pencil exists, but tF = 0 is the minimum
    assert "tF - 1" in checks.check_section(PENCIL, 1, 1, ["0", "0", "x0", "0"], pts)


def test_generated_forms_avoid_known_rejections():
    for item in inputs.gen_sparse_forms(random.Random(3), [1, 1, 2]):
        assert item["coeffs"][0] and not inputs.has_common_factor(item["coeffs"])


def test_span_totals_across_passes():
    import run
    import tracing

    # [name, start, end, parent, input, extra]; input 0 is taken from pass 1
    pass0 = [["a", 0, 10, -1, 0, None], ["b", 2, 5, 0, 0, None], ["a", 10, 14, -1, 1, None]]
    pass1 = [["a", 0, 8, -1, 0, None], ["b", 1, 3, 0, 0, None], ["a", 8, 9, -1, 1, None]]
    chosen = run._chosen_spans([{"spans": pass0}, {"spans": pass1}], [1, 0])
    totals = tracing.span_totals(chosen, scale=[1.0, 2.0])
    assert totals["a"] == {"calls": 2, "time": 8 + 4 * 2, "self": 6 + 4 * 2}
    assert totals["b"] == {"calls": 1, "time": 2, "self": 2}


@pytest.mark.parametrize("workload", ["vfields", "sparse-forms", "dense-forms", "sections"])
def test_short_run(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--short", "2"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] == 2
