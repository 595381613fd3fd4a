"""Parser and printer for polynomial expressions over declared variables.

Grammar, over ASCII text with whitespace between tokens ignored:
    poly   := ['-'] term (('+'|'-') term)*
    term   := [coeff '*'] factor ('*' factor)* | coeff
    factor := ident ['^' nat]
    coeff  := int ['/' posint]
    ident  := letter (letter | digit | '_')*

print_polynomial inverts parse_polynomial on canonical forms: parsing the
printed string reproduces the polynomial exactly.
"""

import re
from fractions import Fraction

from .algebra import IDENT, GradedPolynomial, make_polynomial, require_names
from .errors import (
    ExponentOverflow, PolynomialSyntaxError, UnknownVariable, require_instance,
    require_sequence, require_vector,
)

MAX_EXPONENT = 2**31 - 1
MAX_DIGITS = 4300  # of a coefficient or denominator, as int() takes by default

_TOKEN = re.compile(rf"\s*(?:([0-9]+)|({IDENT.pattern})|(.?))", re.ASCII | re.DOTALL)
_NAT, _IDENT = 1, 2


def _tokens(text):
    """Tokens as (kind, text, offset) triples in a stack, the first on top:
    kind 1 is a natural number, 2 an identifier and 3 any other character,
    and the empty end tokens lie at the bottom."""
    matches = _TOKEN.finditer(text)
    return [(m.lastindex, m[m.lastindex], m.start(m.lastindex)) for m in matches][::-1]


def _take(toks, char):
    """Pop the top token if it is the character `char`."""
    if toks[-1][1] == char:
        toks.pop()
        return True
    return False


def _expect(toks, kind, what):
    """Pop the top token and return its text and offset if it is of `kind`."""
    if toks[-1][0] != kind:
        raise PolynomialSyntaxError(f"expected {what}", toks[-1][2])
    return toks.pop()[1:]


def _number(toks):
    """Pop a natural number of at most MAX_DIGITS digits: (value, offset)."""
    digits, offset = _expect(toks, _NAT, "a number")
    if len(digits) > MAX_DIGITS:
        raise PolynomialSyntaxError(f"number has more than {MAX_DIGITS} digits", offset)
    return int(digits), offset


def parse_polynomial(text, variables):
    """Canonical GradedPolynomial from a source string.

    `variables` lists the distinct declared names; exponent tuples follow
    their order.
    """
    variables = require_names(require_sequence(variables, "variables"))
    index = {name: i for i, name in enumerate(variables)}
    toks = _tokens(require_instance(text, str, "polynomial text"))
    sign = -1 if _take(toks, "-") else 1
    terms = [_parse_term(toks, index, len(variables), sign)]
    while toks[-1][1] in ("+", "-"):
        sign = 1 if toks.pop()[1] == "+" else -1
        terms.append(_parse_term(toks, index, len(variables), sign))
    if toks[-1][1]:
        raise PolynomialSyntaxError("unexpected trailing input", toks[-1][2])
    return make_polynomial(terms)


def _parse_term(toks, index, nvars, sign):
    coeff = Fraction(sign)
    exps = [0] * nvars
    kind, _, offset = toks[-1]
    if kind == _NAT:
        coeff *= _number(toks)[0]
        if _take(toks, "/"):
            den, off = _number(toks)
            if den == 0:
                raise PolynomialSyntaxError("zero denominator", off)
            coeff /= den
        if not _take(toks, "*"):
            return (coeff, tuple(exps))
    elif kind != _IDENT:
        raise PolynomialSyntaxError("expected a term", offset)
    while True:
        name, off = _expect(toks, _IDENT, "a variable name")
        if name not in index:
            raise UnknownVariable(name, off)
        e = 1
        if _take(toks, "^"):
            # decided on the digits, so no exponent is too long for int()
            digits = _expect(toks, _NAT, "a number")[0].lstrip("0") or "0"
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
                raise ExponentOverflow(f"exponent {digits} exceeds {MAX_EXPONENT}")
            e = int(digits)
        exps[index[name]] += e
        if not _take(toks, "*"):
            break
    if any(e > MAX_EXPONENT for e in exps):
        raise ExponentOverflow("accumulated exponent exceeds the cap")
    return (coeff, tuple(exps))


def print_polynomial(poly, variables):
    """Canonical source string; the empty sum prints as '0'.  Each exponent
    tuple must have one entry per variable, else RankMismatch."""
    require_instance(poly, GradedPolynomial, "polynomial")
    variables = require_names(require_sequence(variables, "variables"))
    if poly.is_zero:
        return "0"
    pieces = []
    for k, (coeff, exps) in enumerate(poly.terms):
        mag = abs(coeff)
        factors = []
        for name, e in zip(variables, require_vector(exps, len(variables), "monomial")):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        body = "*".join(factors)
        if not body:
            body = str(mag)
        elif mag != 1:
            body = f"{mag}*{body}"
        if k == 0:
            pieces.append(f"-{body}" if coeff < 0 else body)
        else:
            pieces.append(f"- {body}" if coeff < 0 else f"+ {body}")
    return " ".join(pieces)
