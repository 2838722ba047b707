"""Text grammar for homogeneous polynomials.

A polynomial is a sequence of terms, each matched by one pattern::

    [sign] [int [/ int]] [[*] factor (* factor)*]      factor = name [^ int]

with whitespace allowed between any two tokens.  Only the first term may
omit its ``+``/``-`` sign, and the ``*`` before the first factor is allowed
only after a coefficient.  Variables are positional: ``x1 .. xp`` name the
leading block and ``u1 .. um`` the trailing block when a u-block size is
given.

Printing uses the same grammar, highest term first, so parsing a printed
polynomial always gives back the original.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .polynomials import GradedPolynomial, graded_polynomial

_FACTOR = re.compile(r"([xu]\d+)(?:\s*\^\s*(\d+))?")
_TERM = re.compile(
    r"\s*(?:(?P<sign>[-+])\s*)?"
    r"(?:(?P<num>\d+)(?:\s*/\s*(?P<den>\d+))?(?:\s*(?:\*\s*)?(?=[xu]))?)?"
    rf"(?P<factors>{_FACTOR.pattern}(?:\s*\*\s*{_FACTOR.pattern})*)?"
)
# a character no token starts with, or a variable letter without a number
_STRAY = re.compile(r"[^\s\d+\-*^/xu]|[xu](?!\d)")
_SPACE = re.compile(r"\s*")
# a token and the whitespace around it; the end is where the next token starts
_TOKEN = re.compile(r"\s*(\d+|[xu]\d+|\S)?\s*")


class PolynomialSyntaxError(ValueError):
    """Malformed polynomial text; ``position`` is the character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


def _variable_index(name: str, position: int, num_vars: int, x_count: int) -> int:
    number = int(name[1:])
    if number < 1:
        raise PolynomialSyntaxError(f"variable {name!r} is not positive", position)
    if name[0] == "x":
        index, bound, block = number - 1, x_count, f"only {x_count} x-variables"
    else:
        index, bound, block = x_count + number - 1, num_vars, "no u-block of that size"
    if index >= bound:
        raise PolynomialSyntaxError(f"unknown variable {name!r}: {block}", position)
    return index


def parse_polynomial(text: str, num_vars: int, num_u_vars: int = 0) -> GradedPolynomial:
    """Parse a homogeneous polynomial; like terms are combined, zero terms
    dropped, and the zero polynomial and inhomogeneous input rejected.

    One term is matched per step, left to right.  A stray character anywhere
    is reported before any other error; after a term, anything but a sign or
    the end is diagnosed as the token the term pattern could not take.
    """
    if num_vars < 1:
        raise ValueError("need at least one variable")
    if not 0 <= num_u_vars <= num_vars:
        raise ValueError("u-block size out of range")
    stray = _STRAY.search(text)
    if stray:
        raise PolynomialSyntaxError(f"unexpected character {stray[0]!r}", stray.start())
    x_count = num_vars - num_u_vars
    terms: dict[tuple, Fraction] = {}
    pos = 0
    while True:
        m = _TERM.match(text, pos)
        if m["num"] is None and m["factors"] is None:
            raise PolynomialSyntaxError("expected a term", m.end())
        num, den = int(m["num"] or 1), int(m["den"] or 1)
        if den == 0:
            raise PolynomialSyntaxError("zero denominator", m.start("den"))
        exps = [0] * num_vars
        power = None
        # an absent factors group spans (-1, -1), an empty window
        for factor in _FACTOR.finditer(text, *m.span("factors")):
            name, power = factor.groups()
            index = _variable_index(name, factor.start(), num_vars, x_count)
            exps[index] += int(power or 1)
        key = tuple(exps)
        coeff = Fraction(-num if m["sign"] == "-" else num, den)
        value = terms.get(key, Fraction(0)) + coeff
        if value:
            terms[key] = value
        else:
            terms.pop(key, None)
        pos = _SPACE.match(text, m.end()).end()
        if pos == len(text):
            return graded_polynomial(num_vars, terms)
        op = text[pos]
        if op in "+-":
            continue
        if op == "*":
            raise PolynomialSyntaxError(
                "expected a variable after '*'", _SPACE.match(text, pos + 1).end()
            )
        if (op == "^" and m["factors"] and power is None) or (
            op == "/" and m["factors"] is None and m["den"] is None
        ):
            raise PolynomialSyntaxError(
                "expected a number", _SPACE.match(text, pos + 1).end()
            )
        raise PolynomialSyntaxError(
            f"expected '+' or '-', found {_TOKEN.match(text, pos)[1]!r}", pos
        )


def format_rational(value: Fraction) -> str:
    return str(Fraction(value))


def format_monomial(exps, num_u_vars: int = 0) -> str:
    x_count = len(exps) - num_u_vars
    parts = []
    for index, power in enumerate(exps):
        if power == 0:
            continue
        name = f"x{index + 1}" if index < x_count else f"u{index - x_count + 1}"
        parts.append(name if power == 1 else f"{name}^{power}")
    return "*".join(parts) if parts else "1"


def format_polynomial(f: GradedPolynomial, num_u_vars: int = 0) -> str:
    """Render with the highest term first; ``parse_polynomial`` inverts this.
    Only the letters ``x`` and ``u`` are ever written, so a caller that prints
    an operator in the dual variables writes this text in capitals."""
    if f.is_zero():
        return "0"
    pieces = []
    for exps in sorted(f.terms, reverse=True):
        coeff = f.terms[exps]
        mono = format_monomial(exps, num_u_vars)
        magnitude = abs(coeff)
        if mono == "1":
            body = format_rational(magnitude)
        elif magnitude == 1:
            body = mono
        else:
            body = f"{format_rational(magnitude)}*{mono}"
        pieces.append(("-" if coeff < 0 else "+", body))
    sign, body = pieces[0]
    out = body if sign == "+" else f"-{body}"
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out
