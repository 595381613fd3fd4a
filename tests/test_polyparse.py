from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bbcells.algebra import make_polynomial
from bbcells.errors import (
    ExponentOverflow,
    PolynomialSyntaxError,
    RankMismatch,
    UnknownVariable,
)
from bbcells.polyparse import parse_polynomial, print_polynomial

XYZ = ["x", "y", "z"]


class TestParse:
    def test_two_terms(self):
        p = parse_polynomial("x*y - z^2", XYZ)
        assert p.terms == (
            (Fraction(1), (1, 1, 0)),
            (Fraction(-1), (0, 0, 2)),
        )

    def test_term_merge(self):
        assert parse_polynomial("x + x", XYZ) == make_polynomial(
            [(2, (1, 0, 0))]
        )

    def test_rational_coefficient(self):
        p = parse_polynomial("1/2*x^2*y", XYZ)
        assert p.terms == ((Fraction(1, 2), (2, 1, 0)),)

    def test_leading_minus_and_constants(self):
        p = parse_polynomial("-3*x + 5", XYZ)
        assert p.terms == ((Fraction(-3), (1, 0, 0)), (Fraction(5), (0, 0, 0)))

    def test_cancellation_to_zero(self):
        assert parse_polynomial("x - x", XYZ).is_zero

    def test_repeated_factor(self):
        assert parse_polynomial("x*x*y^2", XYZ) == parse_polynomial(
            "x^2*y^2", XYZ
        )

    def test_underscore_identifier(self):
        p = parse_polynomial("a_1^3", ["a_1"])
        assert p.terms == ((Fraction(1), (3,)),)

    @pytest.mark.parametrize("spaced,plain", [
        ("x ^ 2", "x^2"),
        ("1 / 2 * x", "1/2*x"),
        ("- x", "-x"),
        (" \tx * y ^ 2\n-\r3 / 4 * z\f+ 7 \v", "x*y^2 - 3/4*z + 7"),
    ])
    def test_whitespace_between_every_pair_of_tokens(self, spaced, plain):
        assert parse_polynomial(spaced, XYZ) == parse_polynomial(plain, XYZ)

    def test_leading_zeros_in_exponent(self):
        assert parse_polynomial("x^007", XYZ) == parse_polynomial("x^7", XYZ)
        long_zeros = "x^" + "0" * 5000 + "7"
        assert parse_polynomial(long_zeros, XYZ) == parse_polynomial("x^7", XYZ)


class TestParseErrors:
    def test_text_must_be_a_string(self):
        # once a bare TypeError from the tokenizer
        with pytest.raises(ValueError, match="^polynomial text 5 is not a str$"):
            parse_polynomial(5, XYZ)

    def test_unknown_variable_with_name(self):
        with pytest.raises(UnknownVariable) as err:
            parse_polynomial("x*w", XYZ)
        assert err.value.name == "w"
        assert err.value.offset == 2

    def test_syntax_error_offset(self):
        with pytest.raises(PolynomialSyntaxError) as err:
            parse_polynomial("x + ", XYZ)
        assert err.value.offset == 4

    def test_trailing_garbage(self):
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial("x y", XYZ)

    def test_zero_denominator(self):
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial("1/0*x", XYZ)

    def test_exponent_overflow(self):
        with pytest.raises(ExponentOverflow):
            parse_polynomial("x^2147483648", XYZ)

    def test_accumulated_exponent_overflow(self):
        # each exponent is within the cap, their sum is not
        with pytest.raises(ExponentOverflow,
                           match="^accumulated exponent exceeds the cap$"):
            parse_polynomial("x^2147483647*x", XYZ)

    def test_exponent_at_the_cap(self):
        p = parse_polynomial("x^02147483647", XYZ)
        assert p.terms == ((Fraction(1), (2**31 - 1, 0, 0)),)

    def test_exponent_too_long_for_int(self):
        # more digits than int() accepts from a string by default
        with pytest.raises(ExponentOverflow):
            parse_polynomial("x^" + "9" * 5000, XYZ)

    @pytest.mark.parametrize("text, offset", [
        ("1" * 5000 + "*x", 0),
        ("1/" + "1" * 5000 + "*x", 2),
    ], ids=["numerator", "denominator"])
    def test_number_too_long_for_int(self, text, offset):
        # decided on the digits: int() would raise a bare ValueError here
        with pytest.raises(PolynomialSyntaxError) as err:
            parse_polynomial(text, XYZ)
        assert err.value.offset == offset
        assert str(err.value) == f"number has more than 4300 digits (at byte {offset})"

    def test_number_at_the_digit_limit(self):
        p = parse_polynomial("1/" + "9" * 4300 + "*x", XYZ)
        assert p.terms == ((Fraction(1, 10**4300 - 1), (1, 0, 0)),)

    def test_coefficient_after_star(self):
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial("x*2", XYZ)


XY = parse_polynomial("x*y", ["x", "y"])

# calls given a bare int, a string or repeated names for the variables, or a
# polynomial that is not one or has another number of variables, with the
# error each must raise
BAD_CALLS = {
    # these three once ended in a bare TypeError or AttributeError
    "parse_int_as_variables": (lambda: parse_polynomial("x", 5), ValueError),
    "print_int_as_variables": (lambda: print_polynomial(XY, 5), ValueError),
    "print_int_as_polynomial": (lambda: print_polynomial(5, ["x"]), ValueError),
    # these three once returned 'x', x, and x in the second slot, with no error
    "print_too_few_variables": (lambda: print_polynomial(XY, ["x"]), RankMismatch),
    "parse_string_as_variables": (lambda: parse_polynomial("x", "x"), ValueError),
    "parse_repeated_variable": (lambda: parse_polynomial("x", ["x", "x"]), ValueError),
    "print_too_many_variables": (
        lambda: print_polynomial(XY, ["x", "y", "z"]), RankMismatch
    ),
    "print_repeated_variable": (lambda: print_polynomial(XY, ["x", "x"]), ValueError),
    "parse_list_as_name": (lambda: parse_polynomial("x", [["x"]]), ValueError),
}


@pytest.mark.parametrize("case", sorted(BAD_CALLS))
def test_bad_arguments_raise_project_errors(case):
    call, error = BAD_CALLS[case]
    with pytest.raises(error):
        call()


def test_repeated_names_have_the_weighting_message():
    with pytest.raises(ValueError, match="^variable names must be unique$"):
        parse_polynomial("x", ["x", "x"])


class TestNonAscii:
    # only ASCII digits, letters and whitespace are read; any other character
    # is a syntax error at its own offset, which is then a byte offset
    @pytest.mark.parametrize("text,message,offset", [
        ("x^\uff13", "expected a number", 2),
        ("\uff13*x", "expected a term", 0),
        ("x^\u00b2", "expected a number", 2),
        ("x +\u3000y", "expected a term", 3),
        ("x\u00a0+ y", "unexpected trailing input", 1),
        ("\u00e9", "expected a term", 0),
        ("x*\u00e9", "expected a variable name", 2),
    ])
    def test_rejected_with_offset(self, text, message, offset):
        with pytest.raises(PolynomialSyntaxError) as err:
            parse_polynomial(text, XYZ)
        assert str(err.value) == f"{message} (at byte {offset})"
        assert err.value.offset == offset

    # names follow the VariableWeighting rule: print_polynomial(XY, ["a b",
    # "y"]) once returned 'a b', which does not parse back
    @pytest.mark.parametrize("name", ["\u00e9", "a b", "x\n", "", "1x"])
    def test_names_must_be_ascii_identifiers(self, name):
        for call in (lambda: parse_polynomial("y", [name, "y"]),
                     lambda: print_polynomial(XY, [name, "y"])):
            with pytest.raises(ValueError, match="^invalid variable name "):
                call()


class TestRoundTrip:
    CASES = [
        "x*y - z^2",
        "1/2*x^2*y",
        "-x + 5",
        "x^3 - 2*y^2 + 1/3*z",
        "0",
        "7",
        "-7/2",
    ]

    def test_print_then_parse_is_identity(self):
        for src in self.CASES:
            p = parse_polynomial(src, XYZ)
            printed = print_polynomial(p, XYZ)
            assert parse_polynomial(printed, XYZ) == p

    def test_printing_is_stable(self):
        for src in self.CASES:
            p = parse_polynomial(src, XYZ)
            once = print_polynomial(p, XYZ)
            again = print_polynomial(parse_polynomial(once, XYZ), XYZ)
            assert once == again


NAMES = ["x", "y", "a_1", "Z2"]
TERMS = st.tuples(
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
    st.tuples(*[st.integers(0, 4)] * len(NAMES)),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.lists(TERMS, max_size=5))
def test_printed_polynomial_parses_back(terms):
    poly = make_polynomial(terms)
    assert parse_polynomial(print_polynomial(poly, NAMES), NAMES) == poly
