"""Property-based fuzzing of the polynomial parser."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from p3dist.errors import ParseError  # noqa: E402
from p3dist.grammar import format_poly, parse_poly  # noqa: E402
from p3dist.poly import Poly  # noqa: E402

FUZZ = settings(derandomize=True, database=None, max_examples=300, deadline=None)

# text near the grammar, and arbitrary text; short, because a power at the
# parser's degree cap, such as (x+y+z+w)^20, still takes a third of a
# second to expand
grammar_text = st.text(alphabet="xyzw0123456789+-*/^() \n", max_size=24)
any_text = st.text(max_size=24)


@FUZZ
@given(st.one_of(grammar_text, any_text))
def test_parse_gives_poly_or_parse_error(text):
    try:
        p = parse_poly(text)
    except ParseError:
        return
    assert isinstance(p, Poly)


monomial = st.tuples(*(st.integers(0, 4) for _ in range(4)))
coefficient = st.fractions(-1000, 1000, max_denominator=50).filter(bool)


@FUZZ
@given(st.dictionaries(monomial, coefficient, max_size=6))
def test_format_parse_roundtrip(terms):
    p = Poly(terms)
    assert parse_poly(format_poly(p)) == p
