"""Exponent-vector combinatorics for graded monomial bases.

A monomial in ``n`` variables is represented by its exponent tuple of length
``n``.  Every graded monomial basis in this package is the ascending
lexicographic enumeration produced by :func:`enumerate_exponents`; all other
modules rely on that single pinned ordering, so positions into a basis are
stable across the whole library.

Variable indices in the public functions below are 1-based, matching the
``x1 .. xn`` naming used at the I/O boundary.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from types import MappingProxyType
from typing import Iterator, Mapping, Optional

from .errors import InternalInvariantError

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


@lru_cache(maxsize=4096)
def enumerate_exponents(n: int, d: int) -> tuple[ExponentVector, ...]:
    """Materialized (and cached) form of :func:`iter_exponents`."""
    return tuple(iter_exponents(n, d))


@lru_cache(maxsize=4096)
def basis_index(n: int, d: int) -> Mapping[ExponentVector, int]:
    """Read-only, cached position of each vector in :func:`enumerate_exponents`."""
    return MappingProxyType({m: t for t, m in enumerate(enumerate_exponents(n, d))})


def decrement_at(vec: ExponentVector, k: int) -> Optional[ExponentVector]:
    """Lower the ``k``-th exponent by one; ``None`` when it is already zero.

    This is the exponent shift of the partial derivative with respect to the
    ``k``-th variable (1-based); ``None`` stands for the vanished monomial.
    """
    if not 1 <= k <= len(vec):
        raise ValueError(f"variable index {k} out of range 1..{len(vec)}")
    if vec[k - 1] == 0:
        return None
    return vec[: k - 1] + (vec[k - 1] - 1,) + vec[k:]


def last_support_index(vec: ExponentVector) -> int:
    """Largest 1-based index carrying a positive exponent."""
    for k in range(len(vec), 0, -1):
        if vec[k - 1] > 0:
            return k
    raise ValueError("the zero exponent vector has no support")


def decrement_last(vec: ExponentVector) -> ExponentVector:
    """Lower the exponent at the last positive coordinate by one."""
    return decrement_at(vec, last_support_index(vec))


def lex_min_preimage(vec: ExponentVector) -> ExponentVector:
    """Lex-smallest vector of one higher degree mapping to ``vec`` under
    :func:`decrement_last`.

    Computed by brute-force enumeration of the higher degree; closed forms are
    deliberately avoided.
    """
    n = len(vec)
    degree = sum(vec)
    candidates = [
        up for up in iter_exponents(n, degree + 1) if decrement_last(up) == vec
    ]
    if not candidates:
        raise InternalInvariantError(f"empty preimage for {vec}")
    return min(candidates)


def lift_image(n: int, d: int) -> frozenset[ExponentVector]:
    """Image of :func:`lex_min_preimage` inside the degree-``d`` basis: the
    monomials divisible by the last variable.

    The fiber of :func:`decrement_last` over w is {w + e_k : k >= the last
    support index of w}, and w + e_n is its lex-smallest element.
    """
    if d < 1:
        raise ValueError("degree must be at least 1")
    return frozenset(vec for vec in enumerate_exponents(n, d) if vec[-1])


def last_variable_multiples(n: int, d: int) -> tuple[int, ...]:
    """1-based positions, in the degree-(d-1) basis of ``n`` variables, of the
    monomials divisible by the last variable.  Ascending.  For ``d >= 3``
    these are the positions of ``lift_image(n, d - 1)``."""
    if n < 2:
        raise ValueError("need at least two variables")
    if d < 2:
        raise ValueError("degree must be at least 2")
    basis = enumerate_exponents(n, d - 1)
    return tuple(k + 1 for k, vec in enumerate(basis) if vec[n - 1] >= 1)
