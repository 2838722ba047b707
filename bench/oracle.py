"""Independent check of ``apolar generators`` verdicts.

This deliberately shares no code with the package: it reads the generator
set from the command's JSON output, rebuilds every degree-j slice of the
ideal it generates and the dual-basis catalecticant of the coefficient-one
input with its own integer elimination, and decides whether the set
generates the annihilator.  The benchmark counts an output as wrong when its
``verified`` field disagrees with this decision.
"""

from __future__ import annotations

import re
from itertools import combinations_with_replacement
from math import gcd

_FACTOR = re.compile(r"^([A-Z])(\d+)(?:\^(\d+))?$")


def exponents(n: int, d: int) -> list[tuple[int, ...]]:
    """Degree-d exponent vectors in n variables (any fixed order)."""
    out = []
    for combo in combinations_with_replacement(range(n), d):
        vec = [0] * n
        for i in combo:
            vec[i] += 1
        out.append(tuple(vec))
    return out


def parse_monomial(text: str, n: int) -> tuple[int, ...]:
    """``"X1^2*X3"`` -> ``(2, 0, 1)`` for n = 3."""
    vec = [0] * n
    for factor in text.split("*"):
        match = _FACTOR.match(factor)
        if match is None:
            raise ValueError(f"unexpected monomial factor {factor!r}")
        vec[int(match.group(2)) - 1] += int(match.group(3) or 1)
    return tuple(vec)


def parse_sum(text: str, n: int) -> dict[tuple[int, ...], int]:
    """Coefficient-one sum ``"X1*X2 + X3^2"`` -> ``{(1,1,0): 1, (0,0,2): 1}``."""
    return {parse_monomial(part, n): 1 for part in text.split(" + ")}


def rank(rows) -> int:
    """Rank over the rationals of an integer matrix (fraction-free, rows
    divided by their content after each step)."""
    rows = [list(r) for r in rows if any(r)]
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        p = prow[c]
        for i in range(r + 1, len(rows)):
            a = rows[i][c]
            if a:
                new = [p * x - a * y for x, y in zip(rows[i], prow)]
                g = 0
                for x in new:
                    g = gcd(g, x)
                rows[i] = [x // g for x in new] if g > 1 else new
        r += 1
    return r


def generator_polynomials(payload: dict, n: int) -> list[dict]:
    """Every generator of an ``apolar generators`` payload as a sparse
    integer polynomial {exponents: coefficient}."""
    gens = [{parse_monomial(m, n): 1} for m in payload["powers"]]
    for monomials in payload["nonface_monomials"].values():
        gens.extend({parse_monomial(m, n): 1} for m in monomials)
    for pairs in payload["differences"].values():
        for left, right in pairs:
            poly = dict(parse_sum(left, n))
            for e, c in parse_sum(right, n).items():
                poly[e] = poly.get(e, 0) - c
            gens.append({e: c for e, c in poly.items() if c})
    return gens


def annihilates(poly: dict, support: set) -> bool:
    """Whether the operator kills the coefficient-one form on ``support``
    under the dual-basis pairing X^a . x^b = x^(b-a)."""
    image: dict[tuple[int, ...], int] = {}
    for a, c in poly.items():
        for b in support:
            if all(x <= y for x, y in zip(a, b)):
                r = tuple(y - x for x, y in zip(a, b))
                image[r] = image.get(r, 0) + c
    return not any(image.values())


def generates(payload: dict, support, n: int) -> bool:
    """Independent ``verify_generators``: every generator of degree at most
    d annihilates f, and in each degree 1..d+1 the generators' monomial
    multiples span the whole annihilator slice."""
    support = {tuple(m) for m in support}
    d = sum(next(iter(support)))
    gens = generator_polynomials(payload, n)
    for poly in gens:
        degree = sum(next(iter(poly)))
        if degree <= d and not annihilates(poly, support):
            return False
    for j in range(1, d + 2):
        basis = exponents(n, j)
        index = {m: t for t, m in enumerate(basis)}
        rows = set()
        for poly in gens:
            degree = sum(next(iter(poly)))
            if degree > j:
                continue
            for shift in exponents(n, j - degree):
                row = [0] * len(basis)
                for e, c in poly.items():
                    row[index[tuple(a + b for a, b in zip(e, shift))]] = c
                rows.add(tuple(row))
        if j <= d:
            cols = basis
            targets = exponents(n, d - j)
            catalecticant = [
                [1 if tuple(a + b for a, b in zip(r, c)) in support else 0 for c in cols]
                for r in targets
            ]
            expected = len(basis) - rank(catalecticant)
        else:
            expected = len(basis)
        if rank(rows) != expected:
            return False
    return True
