"""The text boundary against its references. The parser, which runs over
token tuples and finds an offset only when it raises, gives the rows and
the ParseErrors of the Match-based parser in `grammar_oracle` on about
20,000 seeded texts and on every input text of the benchmark at seeds 1 to
3. The row printer, which shares one monomial table between the rows of an
ideal or row set, gives `format_poly` of the row's Poly on every row the
benchmark's four workloads print at seed 1. The benchmark's inputs are
built by `perfbench/run.py` once a session (the `benchmark_inputs` fixture)
and its ops run in a fresh interpreter; nothing under `perfbench/` is
written."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import grammar_oracle
from p3dist.errors import ParseError
from p3dist.grammar import _parse, format_poly
from p3dist.poly import row_poly

from conftest import make_rng

ROOT = Path(__file__).resolve().parent.parent

# Prints one JSON object: every polynomial text of every workload's inputs
# at seeds 1 to 3, and each (row, scale, text) that `_format_row` printed
# while the worker's ops ran the seed-1 inputs. The sections op prints its
# section through format_poly, so the rows of that section are printed
# through `_format_row` here, as `_rows_doc` would print them.
SCRIPT = r"""
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "perfbench"))
import p3dist
from p3dist import cli, groebner
from p3dist.exterior import _rows_of
from p3dist.grammar import _Monomials
import worker

printed = []
format_row = cli._format_row


def recording(row, scale, texts):
    text = format_row(row, scale, texts)
    printed.append([sorted(row.items()), [scale.numerator, scale.denominator], text])
    return text


cli._format_row = groebner._format_row = recording
compute_tF = p3dist.compute_tF


def sections(omega):
    tF, section, sdim = compute_tF(omega)
    scale, rows = _rows_of(section)
    texts = _Monomials()
    for row in rows:
        recording(row, scale, texts)
    return tF, section, sdim


p3dist.compute_tF = sections
inputs = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
texts, counts = [], {}
for workload in sorted(inputs):
    for seed in ("1", "2", "3"):
        for kind, doc in inputs[workload][seed]:
            texts += [t for key in ("coeffs", "components", "polys") for t in doc.get(key, ())]
            if seed == "1":
                before = len(printed)
                try:
                    worker.OPS[kind](json.dumps(doc), worker._NoTrace())
                except p3dist.P3DistError:
                    pass
                counts[workload] = counts.get(workload, 0) + len(printed) - before
print(json.dumps({"texts": texts, "printed": printed, "counts": counts}))
"""


@pytest.fixture(scope="module")
def benchmark_text(benchmark_inputs):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(benchmark_inputs)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def outcome(parse, text):
    """The row a parser gives, with each coefficient's type, or the fields
    of its ParseError."""
    try:
        row = parse(text)
    except ParseError as exc:
        return "error", exc.args[0], exc.line, exc.col, exc.expected, str(exc)
    return "row", [(k, c, type(c)) for k, c in row.items()]


ALPHABET = "xyzw0123456789+-*/^() \n\t"
# characters the grammar reads otherwise: Arabic-Indic digits (decimal), a
# whitespace control character, letters and signs outside the grammar
RARE = ["٣", "١٢", "\x1c", "\r\n", "X", "a", ".", "e", "_", "x0", "x3", "x4"]
ATOMS = ["x", "y", "z", "w", "x0", "x1", "x2", "x3", "0", "1", "7", "12", "3/4", "5 /6",
         "0/1", "(x+y)", "(x - 2y)", "(0)", "((z))", "x^2", "y ^ 3", "w^0", "z^\n20"]
JOINS = ["", " ", "*", " * ", "\n", "+", " - ", "- -", "+-"]
EDITS = ["", "^", "/", "(", ")", "*", "+", "5", "0", " ", "\n", "x", "^21", "/0", "^-1"]


def near_valid(rng):
    """A product-sum of atoms, sometimes raised to a power, with one random
    edit: most such texts parse, and the rest fail at a varied place."""
    text = ""
    for _ in range(rng.randint(1, 6)):
        atom = rng.choice(ATOMS)
        if rng.random() < 0.2:
            atom = f"({atom}){rng.choice(['', '^', '^ '])}{rng.randint(0, 7)}"
        text += rng.choice(JOINS) + atom
    if rng.random() < 0.7:
        at = rng.randint(0, len(text))
        cut = at + rng.randint(0, 2)
        text = text[:at] + rng.choice(EDITS) + text[cut:]
    return text


def seeded_texts():
    rng = make_rng(53)
    texts = []
    for _ in range(10000):
        pool = ALPHABET if rng.random() < 0.8 else ALPHABET + "".join(RARE)
        texts.append("".join(rng.choice(pool) for _ in range(rng.randint(0, 20))))
    texts += [near_valid(rng) for _ in range(10000)]
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        # digit runs the interpreter refuses to convert, in every place a
        # digit run is read
        long = "9" * (limit + 1)
        texts += [long, f"x + {long}y", f"1/{long}", f"x^{long}", f"(x)^{long}",
                  f"y ^\n {long} z", f"{long}/0", f"3/{long}0"]
    return texts


def test_parser_matches_the_match_based_oracle(benchmark_text):
    texts = seeded_texts() + benchmark_text["texts"]
    assert len(benchmark_text["texts"]) > 1000
    kinds = {"row": 0, "error": 0, "fraction": 0}
    for text in texts:
        got = outcome(_parse, text)
        assert got == outcome(grammar_oracle.parse, text), text
        kinds[got[0]] += 1
        kinds["fraction"] += got[0] == "row" and any(t is Fraction for _, _, t in got[1])
    # rows, Fraction rows and errors are each well represented
    assert min(kinds.values()) > 500, kinds


def test_printed_rows_equal_format_poly(benchmark_text):
    printed, counts = benchmark_text["printed"], benchmark_text["counts"]
    # every workload prints rows; vfields and sparse-forms print hundreds
    assert set(counts) == {"dense-forms", "sections", "sparse-forms", "vfields"}
    assert min(counts.values()) > 0 and len(printed) > 800
    for items, (n, d), text in printed:
        row, scale = dict(items), Fraction(n, d)
        assert text == format_poly(row_poly(row, scale)), (row, scale)
