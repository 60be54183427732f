"""Property-based fuzzing of the polynomial parser."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from p3dist.errors import ParseError  # noqa: E402
from p3dist.grammar import ALIASES, MAX_DEGREE, format_poly, parse_poly  # noqa: E402
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


# Random expression trees, rendered to text with random whitespace and
# checked against the tree evaluated with Poly arithmetic. Each node gets a
# degree budget, so no power or product passes MAX_DEGREE.
space = st.sampled_from(["", "", " ", "\n", "\t ", " \n  "])


@st.composite
def numbers(draw):
    p = draw(st.integers(0, 99))
    if draw(st.booleans()):
        return str(p), Poly.constant(p), 0
    q = draw(st.integers(1, 12))
    # the '/' may follow p after whitespace; q follows the '/' directly
    return f"{p}{draw(space)}/{q}", Poly.constant(Fraction(p, q)), 0


@st.composite
def variables(draw, budget):
    name = draw(st.sampled_from(sorted(ALIASES)))
    e = draw(st.integers(0, min(budget, 3)))
    text = name if e == 1 and draw(st.booleans()) else f"{name}^{draw(space)}{e}"
    return text, Poly.variable(ALIASES[name]) ** e, e


@st.composite
def powers(draw, depth, budget):
    inner, value, degree = draw(sums(depth - 1, budget))
    n = draw(st.integers(0, min(budget // max(degree, 1), 3)))
    text = f"({draw(space)}{inner}{draw(space)})"
    if n == 1 and draw(st.booleans()):
        return text, value, degree
    return f"{text}^{draw(space)}{n}", value ** n, max(degree, 1) * n


@st.composite
def products(draw, depth, budget):
    text, value, degree = "", Poly.constant(1), 0
    for i in range(draw(st.integers(1, 3))):
        left = budget - degree
        kinds = [numbers(), variables(left)] + ([powers(depth, left)] if depth else [])
        f_text, f_value, f_degree = draw(draw(st.sampled_from(kinds)))
        if i:
            # juxtaposition needs a separator before a digit
            seps = ["*", " * ", "\n*", " ", "\n"] + ([""] if not f_text[0].isdigit() else [])
            text += draw(st.sampled_from(seps))
        text, value, degree = text + f_text, value * f_value, degree + f_degree
    return text, value, degree


@st.composite
def sums(draw, depth, budget):
    text, value, degree = "", Poly.zero(), 0
    for i in range(draw(st.integers(1, 3))):
        signs = draw(st.sampled_from(["+", "-", "+ -", "- -"] + (["", "", "-"] if not i else [])))
        t_text, t_value, t_degree = draw(products(depth, budget))
        text += f"{draw(space)}{signs}{draw(space)}{t_text}"
        value += (-1) ** signs.count("-") * t_value
        degree = max(degree, t_degree)
    return text, value, degree


@FUZZ
@given(sums(2, MAX_DEGREE))
def test_parse_matches_expression_tree(tree):
    text, value, _ = tree
    assert parse_poly(text) == value
