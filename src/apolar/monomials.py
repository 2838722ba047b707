"""Exponent-vector combinatorics for graded monomial bases.

A monomial in ``n`` variables is represented by its exponent tuple of length
``n``.  Every graded monomial basis in this package is the ascending
lexicographic enumeration produced by :func:`enumerate_exponents`; all other
modules rely on that single pinned ordering, so positions into a basis are
stable across the whole library.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from types import MappingProxyType
from typing import Iterator, Mapping

ExponentVector = tuple


def monomial_count(n: int, d: int) -> int:
    """Number of degree-``d`` monomials in ``n`` variables: C(n+d-1, d)."""
    if n < 1:
        raise ValueError("need at least one variable")
    if d < 0:
        raise ValueError("degree must be nonnegative")
    return comb(n + d - 1, d)


def iter_exponents(n: int, d: int) -> Iterator[ExponentVector]:
    """Yield all degree-``d`` exponent vectors in ``n`` variables, lex ascending.

    The lex successor moves one unit from the last positive coordinate to the
    coordinate before it and puts the rest of that coordinate last.
    """
    if n < 1:
        raise ValueError("need at least one variable")
    if d < 0:
        raise ValueError("degree must be nonnegative")
    vec = [0] * n
    vec[-1] = d
    last = n - 1 if d else 0  # last positive coordinate; 0 ends the walk
    while True:
        yield tuple(vec)
        if last == 0:
            return
        rest = vec[last] - 1
        vec[last] = 0
        vec[last - 1] += 1
        if rest:
            vec[-1] = rest
            last = n - 1
        else:
            last -= 1


def unit_power(n: int, k: int, e: int) -> ExponentVector:
    """The exponent vector of x_k^e in ``n`` variables, for a 1-based ``k``."""
    if not 1 <= k <= n:
        raise ValueError(f"variable index {k} outside 1..{n}")
    return (0,) * (k - 1) + (e,) + (0,) * (n - k)


@lru_cache(maxsize=4096)
def enumerate_exponents(n: int, d: int) -> tuple[ExponentVector, ...]:
    """Materialized (and cached) form of :func:`iter_exponents`."""
    return tuple(iter_exponents(n, d))


@lru_cache(maxsize=4096)
def basis_index(n: int, d: int) -> Mapping[ExponentVector, int]:
    """Read-only, cached position of each vector in :func:`enumerate_exponents`."""
    return MappingProxyType({m: t for t, m in enumerate(enumerate_exponents(n, d))})


def lift_image(n: int, d: int) -> frozenset[ExponentVector]:
    """The monomials of the degree-``d`` basis divisible by the last variable.

    This is the image of the lift, the lex-smallest preimage under lowering
    the last positive exponent: the fiber of that map over w is
    {w + e_k : k >= the last support index of w}, and w + e_n is its
    lex-smallest element.
    """
    if d < 1:
        raise ValueError("degree must be at least 1")
    return frozenset(vec for vec in enumerate_exponents(n, d) if vec[-1])
