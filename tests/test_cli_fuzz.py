"""End-to-end fuzzing of the command line: every document, valid or not,
ends in a JSON report (exit 0) or a JSON error (exit 1 or 2), never in a
traceback."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from p3dist import cli  # noqa: E402
from p3dist.exterior import ExtForm, contract, radial_field  # noqa: E402
from p3dist.grammar import format_poly  # noqa: E402
from p3dist.poly import Poly, monomials_of_degree  # noqa: E402

FUZZ = settings(derandomize=True, database=None, max_examples=200, deadline=None)

coeff = st.integers(-3, 3).filter(bool)


def homogeneous(degree):
    """Homogeneous polynomials of the given degree with up to two terms;
    the zero polynomial among them."""
    return st.dictionaries(st.sampled_from(monomials_of_degree(degree)), coeff,
                           max_size=2).map(Poly)


def any_poly(max_degree):
    """Sums of homogeneous parts, so mostly not homogeneous."""
    return st.lists(st.integers(0, max_degree).flatmap(homogeneous),
                    min_size=1, max_size=2).map(lambda ps: sum(ps, Poly.zero()))


@st.composite
def contracted_forms(draw):
    """i_R(eta) for a 2-form eta of coefficient degree <= 2: the 1-form
    satisfies the Euler relation and has degree <= 2 when it is nonzero."""
    deg = draw(st.integers(0, 2))
    eta = ExtForm(2, {idx: draw(homogeneous(deg)) for idx in ExtForm(2).coeffs})
    return list(contract(radial_field(), eta).one_form_coeffs())


@st.composite
def vector_fields(draw):
    """Fields of one component degree <= 2."""
    return draw(st.lists(homogeneous(draw(st.integers(0, 2))), min_size=4, max_size=4))


@st.composite
def log_types(draw):
    """Nonzero polynomials of degree <= 2 and weights that satisfy the
    weight relation unless the last one is redrawn."""
    polys = draw(st.lists(st.integers(1, 2).flatmap(lambda d: homogeneous(d).filter(bool)),
                          min_size=2, max_size=3))
    weights = draw(st.lists(st.fractions(-4, 4, max_denominator=5).filter(bool),
                            min_size=len(polys) - 1, max_size=len(polys) - 1))
    degrees = [p.homogeneous_degree() for p in polys]
    weights.append(-sum(w * d for w, d in zip(weights, degrees)) / degrees[-1])
    if draw(st.booleans()):
        weights[-1] = draw(st.fractions(-4, 4, max_denominator=5))
    return {"kind": "logtype", "polys": [format_poly(p) for p in polys],
            "lambdas": [str(w) for w in weights]}


def polys_doc(kind, key):
    def doc(polys):
        return {"kind": kind, key: [format_poly(p) for p in polys]}
    return doc


oneform_docs = st.one_of(
    contracted_forms(), st.lists(any_poly(3), min_size=4, max_size=4),
).map(polys_doc("oneform", "coeffs"))
vfield_docs = st.one_of(
    vector_fields(), st.lists(any_poly(2), min_size=4, max_size=4),
).map(polys_doc("vfield", "components"))
any_doc = st.one_of(oneform_docs, vfield_docs, log_types())

# each command on documents of its own kind, or on any document
COMMANDS = (
    (["analyze"], oneform_docs),
    (["analyze", "--mod-p", "32003"], oneform_docs),
    (["analyze-vf"], vfield_docs),
    (["find-subfoliation"], oneform_docs),
    (["log-audit"], log_types()),
)
commands = st.one_of(
    st.sampled_from(COMMANDS).flatmap(
        lambda c: st.tuples(st.just(c[0]), c[1])),
    st.tuples(st.sampled_from([c[0] for c in COMMANDS]), any_doc),
)


def run(argv, text):
    out, err = io.StringIO(), io.StringIO()
    stdin = io.TextIOWrapper(io.BytesIO(text.encode()))
    with mock.patch("sys.stdin", stdin), redirect_stdout(out), \
            redirect_stderr(err):
        code = cli.main(argv + ["-"])
    return code, out.getvalue(), err.getvalue()


@FUZZ
@given(commands)
def test_cli_ends_in_json_report_or_json_error(command):
    argv, doc = command
    code, out, err = run(argv, json.dumps(doc))
    if code == 0:
        assert isinstance(json.loads(out), dict)
        assert err == ""
    else:
        assert code in (1, 2)
        assert out == ""
        error = json.loads(err)
        assert set(error) >= {"error", "message"}
