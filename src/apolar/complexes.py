"""Divisor-closed monomial cell complexes.

A degree-k monomial is a (k-1)-cell; the complex of a polynomial is the
divisor closure of its support, and the subcomplex order is monomial
divisibility.  The complex is its face poset, kept graded: its cells by
degree, because every downstream query (skeleton counts, cell counts,
minimal non-faces, extraction's spans) reads one degree at a time.  No
geometric realization is kept.  A cell's facets (its divisors one degree
lower) are the only neighbour rule, so no ambient monomial basis is walked.
"""

from __future__ import annotations

from typing import Iterable

from .monomials import ExponentVector
from .polynomials import GradedPolynomial
from .values import Record


class CellComplex(Record):
    """Frozenset of monomials; cell dimension is degree minus one.  Each cell
    has ``num_vars`` nonnegative entries and degree >= 1; divisor closure is
    not checked.  ``layers[j]``, derived from ``cells`` and not a field, lists
    the degree-j cells in lex order; ``layers[0]`` holds the monomial 1 alone."""

    __slots__ = ("num_vars", "cells", "layers")
    _fields = ("num_vars", "cells")

    def __init__(self, num_vars: int, cells: Iterable[ExponentVector]):
        cells = frozenset(cells)
        by_degree = {0: [(0,) * num_vars]}
        for m in sorted(cells):
            degree = sum(m)
            if len(m) != num_vars:
                raise ValueError(f"cell {m} does not have {num_vars} entries")
            if not degree:
                raise ValueError(f"cell {m} has degree 0")
            if min(m) < 0:
                raise ValueError(f"cell {m} has a negative exponent")
            by_degree.setdefault(degree, []).append(m)
        layers = tuple(tuple(by_degree.get(j, ())) for j in range(max(by_degree) + 1))
        self._set(num_vars, cells, layers)


def facets(m: ExponentVector) -> list[ExponentVector]:
    """The divisors of ``m`` one degree lower, m / x_k for each variable x_k
    dividing ``m``; none in degree 1, whose only such divisor is 1."""
    if sum(m) <= 1:
        return []
    return [m[:k] + (e - 1,) + m[k + 1 :] for k, e in enumerate(m) if e]


def is_subcomplex(g: ExponentVector, h: ExponentVector) -> bool:
    """Whether the complex of ``g`` sits inside the complex of ``h``, that
    is, whether ``g`` divides ``h`` coordinatewise."""
    if len(g) != len(h):
        raise ValueError("exponent vectors of different lengths")
    return all(a <= b for a, b in zip(g, h))


def divisor_closure(support: Iterable[ExponentVector], num_vars: int) -> CellComplex:
    """Complex of a support set: every monomial of degree >= 1 dividing at
    least one support monomial.  Gluing along shared divisors is automatic
    because shared divisors are identical set elements."""
    support = [tuple(m) for m in support]
    if not support:
        raise ValueError("empty support")
    if any(len(m) != num_vars for m in support):
        raise ValueError("support monomial with wrong variable count")
    for m in support:
        if any(e < 0 for e in m):
            raise ValueError(f"negative exponent in {m}")
    degrees = {sum(m) for m in support}
    if len(degrees) != 1:
        raise ValueError(f"inhomogeneous support: degrees {sorted(degrees)}")
    if degrees.pop() < 1:
        raise ValueError("support must have degree at least 1")
    cells: set[ExponentVector] = set()
    layer = set(support)
    while layer:  # one degree at a time, down to the variables
        cells |= layer
        layer = {a for m in layer for a in facets(m)}
    return CellComplex(num_vars, frozenset(cells))


def complex_of(f: GradedPolynomial) -> CellComplex:
    if f.is_zero():
        raise ValueError("zero polynomial")
    return divisor_closure(f.support(), f.num_vars)


def skeleton_count(c: CellComplex, k: int) -> int:
    """Number of cells of dimension at most ``k`` (degrees 1 to ``k + 1``)."""
    return sum(map(len, c.layers[1 : max(k + 2, 1)]))


def cell_count_vector(c: CellComplex, d: int) -> tuple[int, ...]:
    """Cells per degree, ``(s_0, ..., s_d)``, zero-padded, with ``s_0 = 1``."""
    counts = tuple(map(len, c.layers[: max(d + 1, 0)]))
    return counts + (0,) * (d + 1 - len(counts))


def minimal_nonfaces(c: CellComplex, j: int) -> tuple[ExponentVector, ...]:
    """Degree-``j`` monomials outside the complex whose proper divisors of
    degree >= 1 all lie inside it, in lex order.  For ``j = 1`` these are the
    unused variables; two degrees above the top there are none.

    Each one is a cell of layer j-1 (the monomial 1 when ``j = 1``) times a
    variable, and since the complex is divisor-closed it suffices that its
    facets are cells."""
    if j < 1:
        raise ValueError("degree must be at least 1")
    below = c.layers[j - 1] if j <= len(c.layers) else ()
    candidates = {m[:k] + (e + 1,) + m[k + 1 :] for m in below for k, e in enumerate(m)}
    out = [m for m in candidates - c.cells if c.cells.issuperset(facets(m))]
    return tuple(sorted(out))
