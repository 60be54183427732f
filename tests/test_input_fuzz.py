"""Property-based fuzzing of the input-document parser."""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from p3dist.cli import parse_input  # noqa: E402
from p3dist.errors import ValidationError  # noqa: E402
from p3dist.exterior import ExtForm, VField  # noqa: E402
from p3dist.logarithmic import LogType  # noqa: E402

FUZZ = settings(derandomize=True, database=None, max_examples=300, deadline=None)

# short polynomial text, so that no entry takes long to expand: terms of
# the grammar, linear forms (a log type of them can pass validation), and
# arbitrary text over the grammar's alphabet
term = st.builds("{}*{}^{}".format, st.integers(-5, 5), st.sampled_from("xyzw"),
                 st.integers(0, 2))
linear = st.sampled_from(["x0", "x1 - 2*x3", "x2 + x3", "y", "3*w - z"])
poly_text = st.one_of(
    st.lists(term, min_size=1, max_size=3).map(" + ".join),
    linear,
    st.text(alphabet="xyzw0123+-*^() ", max_size=12),
)
weight_text = st.one_of(
    st.sampled_from(["1", "-1", "1/2", "-3/4", "nan", "inf", "-Infinity", "1/0", "0x10", ""]),
    # exponents past the interpreter's 4300-digit limit for int-to-str
    st.builds("{}e{}".format, st.integers(-9, 9),
              st.one_of(st.integers(-9, 9), st.integers(4300, 5000))),
    st.text(alphabet="0123456789/.-+eE", max_size=8),
)
scalar = st.one_of(
    st.none(), st.booleans(), st.integers(-10 ** 6, 10 ** 6),
    st.floats(allow_nan=True, allow_infinity=True), poly_text, weight_text,
)
entry = st.recursive(
    scalar,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=4), inner, max_size=2)),
    max_leaves=6,
)
entries = st.one_of(st.lists(entry, max_size=5), entry)
kind = st.one_of(st.sampled_from(["oneform", "vfield", "logtype"]), scalar)
keys = st.sampled_from(["kind", "coeffs", "components", "polys", "lambdas", "weights"])


@st.composite
def documents(draw):
    """A JSON value near the input format: an object of one of the three
    kinds with its entries, or of another kind, or no object at all; then
    up to two keys replaced by entries of any JSON type, or dropped."""
    shape = draw(st.sampled_from(["oneform", "vfield", "logtype", "other", "no object"]))
    if shape == "no object":
        return draw(entry)
    doc = {"kind": draw(scalar) if shape == "other" else shape}
    doc["coeffs"] = doc["components"] = draw(st.lists(poly_text, min_size=4, max_size=4))
    doc["polys"] = draw(st.lists(poly_text, min_size=2, max_size=3))
    doc["lambdas"] = draw(st.lists(st.one_of(weight_text, scalar), min_size=2, max_size=3))
    for key in draw(st.lists(keys, max_size=2)):
        if draw(st.booleans()):
            doc[key] = draw(entries)
        else:
            doc.pop(key, None)
    return doc


@st.composite
def log_types(draw):
    """Log types of linear forms, so that the weights decide the outcome."""
    n = draw(st.integers(2, 3))
    return {
        "kind": "logtype",
        "polys": draw(st.lists(linear, min_size=n, max_size=n)),
        "lambdas": draw(st.lists(weight_text, min_size=n, max_size=n)),
    }


def parses_or_fails_validation(text):
    try:
        parsed = parse_input(text)
    except ValidationError:
        return
    assert isinstance(parsed, (ExtForm, VField, LogType))


@FUZZ
@given(documents())
def test_parse_input_gives_input_or_validation_error(doc):
    parses_or_fails_validation(json.dumps(doc))


@FUZZ
@given(log_types())
def test_parse_input_on_log_type_weights(doc):
    parses_or_fails_validation(json.dumps(doc))


@FUZZ
@given(st.text(max_size=40))
def test_parse_input_on_any_text(text):
    parses_or_fails_validation(text)
