"""The result records: named tuples, read by field, hashable, and cheap to
import; and the README's library example, run as written."""

import ast
import copy
import pickle
import re
import subprocess
import sys
from pathlib import Path

from p3dist import cli, corpus, distribution, foliation
from p3dist.distribution import ChernTriple, classify
from p3dist.exterior import ExtForm, VField, coefficient_ideal
from p3dist.foliation import sing_scheme_v
from p3dist.grammar import parse_poly
from p3dist.groebner import Ideal, saturate
from p3dist.logarithmic import build_log_form
from p3dist.poly import Poly

ROOT = Path(__file__).resolve().parent.parent


def test_reports_of_two_parses_are_equal_and_hash_equal():
    a = classify(corpus.load_oneform("example1"))
    b = classify(corpus.load_oneform("example1"))
    assert a is not b and a.sing.sat_ideal is not b.sing.sat_ideal
    assert a == b
    assert hash(a) == hash(b)
    assert hash(a.sing) == hash(b.sing)


def corpus_ideals():
    """The saturated singular ideal of every corpus document: of each 1-form,
    of each field, and of the log form of each log type."""
    names = corpus.corpus_names()
    forms = [corpus.load_oneform(n) for n in names["oneforms"]]
    forms += [build_log_form(corpus.load_logtype(n)) for n in names["logtypes"]]
    ideals = [saturate(coefficient_ideal(omega)) for omega in forms]
    return ideals + [sing_scheme_v(corpus.load_vfield(n)) for n in names["vfields"]]


def test_saturated_ideal_hashes_as_its_basis(monkeypatch):
    # the engine's reduced rows are canonical, primitive with a positive
    # leading coefficient, so equality and hash read them and build no Poly;
    # the monic basis, and its multiples by 3 in reverse order, give the
    # same ideal
    ideals = corpus_ideals()
    triples = [(sat, Ideal(basis), Ideal(g * 3 for g in reversed(basis)))
               for sat in ideals for basis in (sat.groebner(),)]

    def no_poly(self, *args, **kwargs):
        raise AssertionError("a Poly was built")

    monkeypatch.setattr(Poly, "__init__", no_poly)
    for sat, again, scaled in triples:
        assert sat == again == scaled
        assert hash(sat) == hash(again) == hash(scaled)
        assert all(g[max(g)] > 0 for g in sat._basis())
    assert len(set(ideals)) == len(ideals)


def test_value_types_copy_and_pickle():
    # each immutable value type rebuilds through its constructor or its
    # `_of_rows`: a parsed form and field keep their rows, a form built from
    # Polys its Polys, and an ideal its rows, here after its basis is
    # computed, or, made by the engine, its reduced basis and Hilbert data
    omega = corpus.load_oneform("example1")
    field = corpus.load_vfield("four_points")
    ideal = coefficient_ideal(omega)
    ideal._basis()
    form_report = lambda x: cli.dist_report_doc(classify(x))  # noqa: E731
    values = [
        (parse_poly("x0^2 - 1/2 x1*x3"), str),
        (omega, form_report),
        (ExtForm.one_form(*omega.one_form_coeffs()), form_report),
        (field, lambda x: cli.foliation_report_doc(foliation.analyze(x))),
        (VField(field.components), lambda x: cli.foliation_report_doc(foliation.analyze(x))),
        (ideal, cli._ideal_doc),
        (sing_scheme_v(field), cli._ideal_doc),
    ]
    copies = (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x)))
    for x, report in values:
        want = report(x)
        for make in copies:
            y = make(x)
            assert y is not x and type(y) is type(x)
            assert y == x and hash(y) == hash(x)
            assert report(y) == want
            if isinstance(x, (ExtForm, VField)):
                assert y._rows == x._rows


def test_records_differing_in_one_field_are_unequal():
    report = classify(corpus.load_oneform("example1"))
    assert report._replace(tF=2) != report
    assert report._replace(notes=("n",)) != report
    assert report.stability._replace(family=2) != report.stability
    assert ChernTriple(-1, 1, 3) != ChernTriple(-1, 1, 4)
    # a record equals the plain tuple of its fields
    assert report.chern == ChernTriple(-1, 1, 3) == (-1, 1, 3)
    assert report.chern.as_tuple() == (-1, 1, 3)
    assert type(report.chern.as_tuple()) is tuple


def test_record_fields_and_defaults():
    assert distribution.DistReport._fields[-1] == "notes"
    assert distribution.DistReport._field_defaults == {"notes": ()}
    assert ChernTriple._fields == ("c1", "c2", "c3")
    assert repr(ChernTriple(-1, 1, 3)) == "ChernTriple(c1=-1, c2=1, c3=3)"


def test_import_loads_no_dataclasses():
    # the package and every command it runs load none of these: dataclasses
    # pulls in inspect, ast, dis and tokenize, and importlib.resources loads
    # inspect, tempfile and pathlib on some versions
    heavy = {"dataclasses", "importlib.resources", "inspect", "tempfile", "pathlib"}
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "import p3dist; from p3dist import cli, distribution, foliation, logarithmic; "
        f"print(*sorted({heavy!r} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(ROOT / "src")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def readme_library_block():
    text = (ROOT / "README.md").read_text()
    return re.search(r"## Library\n\n```python\n(.*?)```", text, re.S).group(1)


def test_readme_library_block_runs_as_written():
    block = readme_library_block()
    namespace = {}
    exec(block, namespace)
    checked = []
    for line in block.splitlines():
        expr, _, comment = line.partition("#")
        try:
            expected = ast.literal_eval(comment.strip())
        except (ValueError, SyntaxError):
            continue
        assert eval(expr, namespace) == expected, line
        checked.append(expected)
    assert checked == [(-1, 1, 3), 1, "unstable", 1, "stable-points"]
