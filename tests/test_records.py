"""The result records: named tuples, read by field, hashable, and cheap to
import; and the README's library example, run as written."""

import ast
import re
import subprocess
import sys
from pathlib import Path

from p3dist import corpus, distribution
from p3dist.distribution import ChernTriple, classify
from p3dist.exterior import coefficient_ideal
from p3dist.groebner import Ideal, saturate

ROOT = Path(__file__).resolve().parent.parent


def test_reports_of_two_parses_are_equal_and_hash_equal():
    a = classify(corpus.load_oneform("example1"))
    b = classify(corpus.load_oneform("example1"))
    assert a is not b and a.sing.sat_ideal is not b.sing.sat_ideal
    assert a == b
    assert hash(a) == hash(b)
    assert hash(a.sing) == hash(b.sing)


def test_saturated_ideal_hashes_as_its_basis():
    sat = saturate(coefficient_ideal(corpus.load_oneform("example1")))
    again = Ideal(sat.groebner())
    assert sat == again
    assert hash(sat) == hash(again)


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
    # the package and every command it runs import no dataclasses, which
    # pulls in inspect, ast, dis and tokenize; inspect itself is not
    # asserted, as importlib.resources loads it on Python 3.12 and later
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "import p3dist; from p3dist import cli, distribution, foliation, logarithmic; "
        "sys.exit('dataclasses' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(ROOT / "src")])
    assert proc.returncode == 0


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
