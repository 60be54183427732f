import sys
import time
from fractions import Fraction

import pytest

from p3dist.errors import ParseError
from p3dist.grammar import format_poly, parse_poly
from p3dist.poly import ONE, X0, X1, X2, X3, Poly, monomials_of_degree

from conftest import make_rng, random_nonzero_poly


def test_aliases():
    assert parse_poly("x") == parse_poly("x0") == X0
    assert parse_poly("y") == X1
    assert parse_poly("z") == X2
    assert parse_poly("w") == X3


def test_implicit_multiplication():
    assert parse_poly("2x^3y") == 2 * X0 ** 3 * X1
    assert parse_poly("x0x1") == X0 * X1
    assert parse_poly("3(x+y)z") == 3 * (X0 + X1) * X2


def test_rational_coefficients_and_signs():
    assert parse_poly("1/2x - 3/4y") == Fraction(1, 2) * X0 - Fraction(3, 4) * X1
    assert parse_poly("2y^4 + -3xy^2z") == 2 * X1 ** 4 - 3 * X0 * X1 ** 2 * X2
    assert parse_poly("--x") == X0
    assert parse_poly("- + - x") == X0


def test_parentheses_and_powers():
    assert parse_poly("(x+y)^2") == X0 ** 2 + 2 * X0 * X1 + X1 ** 2
    assert parse_poly("((x))") == X0
    assert parse_poly("5") == Poly.constant(5)


def test_parse_error_positions():
    with pytest.raises(ParseError) as exc:
        parse_poly("x0 + * x1")
    assert exc.value.line == 1
    assert exc.value.col == 6

    with pytest.raises(ParseError) as exc:
        parse_poly("x +\n y^")
    assert exc.value.line == 2

    with pytest.raises(ParseError):
        parse_poly("")
    with pytest.raises(ParseError):
        parse_poly("a + b")
    with pytest.raises(ParseError):
        parse_poly("(x")


def test_digit_after_variable_rejected():
    # a digit right after a variable is a mistyped variable, not a factor
    for text, line, col in (
        ("x5", 1, 2), ("x12", 1, 3), ("y2", 1, 2), ("w0", 1, 2),
        ("x00", 1, 3), ("3*x1 + z7", 1, 9), ("x +\n y3", 2, 3),
    ):
        with pytest.raises(ParseError) as exc:
            parse_poly(text)
        assert (exc.value.line, exc.value.col) == (line, col), text
    # digits elsewhere keep their meaning
    assert parse_poly("2x1") == 2 * X1
    assert parse_poly("x0x1") == X0 * X1
    assert parse_poly("x0^2") == X0 ** 2
    assert parse_poly("x1 2") == 2 * X1


def test_input_limits():
    # each limit is checked before the work it would cause; the error
    # names the limit and points at the offending '^', factor or '('
    for text, col, limit in (
        ("(x+y+z+w)^40", 10, "MAX_DEGREE = 20"),
        ("x^21", 2, "MAX_DEGREE = 20"),
        ("(2)^99999999999", 4, "MAX_DEGREE = 20"),
        ("(x+y)^11 * (x+y)^10", 12, "MAX_DEGREE = 20"),
        ("x^4y^4z^4w^4 x^5", 14, "MAX_DEGREE = 20"),
        ("(" * 65 + "x" + ")" * 65, 65, "MAX_DEPTH = 64"),
        ("(" * 400 + "x" + ")" * 400, 65, "MAX_DEPTH = 64"),
    ):
        with pytest.raises(ParseError, match=limit) as exc:
            parse_poly(text)
        assert exc.value.col == col, text
    # up to the limits everything parses
    assert parse_poly("x^20") == X0 ** 20
    assert parse_poly("(x+y)^10 (x-y)^10") == (X0 ** 2 - X1 ** 2) ** 10
    assert parse_poly("(" * 64 + "x" + ")" * 64) == X0
    assert parse_poly("(3)^20 x") == 3 ** 20 * X0


def test_overlong_number_is_parse_error():
    # the interpreter refuses to convert very long digit strings to int
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts digit strings of any length")
    with pytest.raises(ParseError, match="number too long") as exc:
        parse_poly("1" * (limit + 1) + "x")
    assert exc.value.col == limit + 2
    # an exponent's digits are read with their variable, and are refused
    # at the same place: the end of the digit run
    for text, line, col in (("x^" + "1" * (limit + 1), 1, limit + 4),
                            ("y ^\n " + "2" * (limit + 1) + " z", 2, limit + 3)):
        with pytest.raises(ParseError, match="number too long") as exc:
            parse_poly(text)
        assert (exc.value.line, exc.value.col) == (line, col)


def test_format_canonical():
    p = 3 * X1 - X0 ** 2 + X3
    assert format_poly(p) == "-x0^2 + 3*x1 + x3"
    assert format_poly(Poly.zero()) == "0"
    assert format_poly(ONE) == "1"


def test_roundtrip_random():
    rng = make_rng(7)
    for _ in range(150):
        p = random_nonzero_poly(rng, rng.randint(0, 4), nterms=6)
        assert parse_poly(format_poly(p)) == p


# Edge cases with the canonical printing of their Poly, or the (message,
# line, col) of their ParseError. '\u0663' and '\u0661\u0662' are
# Arabic-Indic digits, which are decimal; '\x1c' is whitespace.
EDGE_CASES = [
    ('1 /2x', '1/2*x0'),
    ('1/ 2', ("unexpected '/', expected operator or end of input", 1, 2)),
    ('1/2/3', ("unexpected '/', expected operator or end of input", 1, 4)),
    ('4/6x', '2/3*x0'),
    ('1/0', ('zero denominator', 1, 4)),
    ('0x', '0'),
    ('(0)^0', '1'),
    ('0*x^20*x', '0'),
    ('(x-x)^5', '0'),
    ('(x-x+1)^21', ('power of degree 21 is above the degree cap MAX_DEGREE = 20', 1, 8)),
    ('x^0', '1'),
    ('x^ 2', 'x0^2'),
    ('2^3', ("unexpected '^', expected operator or end of input", 1, 2)),
    ('x^-1', ("unexpected '-', expected integer exponent", 1, 3)),
    ('x^y', ("unexpected 'y', expected integer exponent", 1, 3)),
    ('x +\n y3', ("unexpected '3' right after variable 'y'", 2, 3)),
    (' ', ('empty polynomial', 1, 2)),
    ('\u0663x', '3*x0'),
    ('\u0661\u0662', '12'),
    ('x\x1c+\ty', 'x0 + x1'),
    ('x\r\ny', 'x0*x1'),
    ('x1x2x3', 'x1*x2*x3'),
    ('X', ("unexpected 'X', expected number, variable, or '('", 1, 1)),
    ('+', ("unexpected end of input, expected number, variable, or '('", 1, 2)),
    ('x*', ("unexpected end of input, expected number, variable, or '('", 1, 3)),
    ('x**y', ("unexpected '*', expected number, variable, or '('", 1, 3)),
    ('(x', ("unexpected end of input, expected ')'", 1, 3)),
    ('x)', ("unexpected ')', expected operator or end of input", 1, 2)),
    ('x +  \n \n ', ("unexpected end of input, expected number, variable, or '('", 3, 2)),
    ('x0 + 2\n  + y^21', ('power of degree 21 is above the degree cap MAX_DEGREE = 20', 2, 6)),
    ('(x+y)^10 * (x+y)^10 *\n x', ('product of degree 21 is above the degree cap MAX_DEGREE = 20', 2, 2)),
    ("\n" + "(" * 65 + "x" + ")" * 65, ('parentheses nested deeper than MAX_DEPTH = 64', 2, 65)),
    # a variable's '^' and exponent digits are one token with it
    ('x ^ 2', 'x0^2'),
    ('y ^\n 2 x ^ 0', 'x1^2'),
    ('x^ a', ("unexpected 'a', expected integer exponent", 1, 4)),
    ('x^2^3', ("unexpected '^', expected operator or end of input", 1, 4)),
    ('x5', ("unexpected '5' right after variable 'x'", 1, 2)),
    ('x ^ 21', ('power of degree 21 is above the degree cap MAX_DEGREE = 20', 1, 3)),
]


@pytest.mark.parametrize("text, result", EDGE_CASES)
def test_edge_cases(text, result):
    if isinstance(result, str):
        assert format_poly(parse_poly(text)) == result
        return
    with pytest.raises(ParseError) as exc:
        parse_poly(text)
    assert (exc.value.args[0], exc.value.line, exc.value.col) == result


def test_exponent_is_a_digit_run():
    # a '/' after an exponent is not read as part of it: x^4/2 is not x^2
    for text, col in (
        ("x^4/2", 4), ("x^6/3", 4), ("(x+y)^4/2", 8), ("x^3/2", 4),
        ("x^2 /3", 5), ("x^2/0", 4),
    ):
        with pytest.raises(ParseError) as exc:
            parse_poly(text)
        assert str(exc.value) == ("unexpected '/', expected operator or end of "
                                  f"input (line 1, col {col})"), text
    with pytest.raises(ParseError, match="expected '\\)'") as exc:
        parse_poly("(x^4/2)")
    assert exc.value.col == 5
    with pytest.raises(ParseError, match="power of degree 81 ") as exc:
        parse_poly("22x^81/3")
    assert exc.value.col == 4


def test_parse_time_is_linear():
    # the sum of all 10626 monomials of degree <= 20, about 240 KB of text;
    # a parser that copies the sum at every term takes about half a minute
    p = Poly({m: i + 1 for i, m in enumerate(
        m for d in range(21) for m in monomials_of_degree(d))})
    text = format_poly(p)
    start = time.perf_counter()
    assert parse_poly(text) == p
    assert time.perf_counter() - start < 10
