"""Exact dense linear algebra over the rationals, by integer elimination.

Entries are ``int`` or ``fractions.Fraction``, with no floating point
anywhere.  ``Echelon.reduce`` scales each row it takes to integers by the lcm
of its denominators, the one place a rational row becomes integral; rows of
``int`` pass through unscaled.  One elimination loop, ``Echelon``, serves
every caller: it is Bareiss elimination (Math. Comp. 22, 1968) with rows
taken one at a time in arrival order, so entries stay minors of the input.
``rank`` stops at min(rows, cols) pivots of the longer side's lines, past
which every line is in the span, or earlier at a caller's cap;
``kernel_basis`` finishes the echelon into the Gauss-Jordan form, divided
once at the end, and the generator spans in ``generators`` are echelons of
operator vectors over a monomial basis, all ``int`` from extraction.  The
reduced row echelon form is unique, so identical inputs give identical
outputs.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, count
from math import lcm
from typing import Sequence

from .values import Record

_ZERO = Fraction(0)
_ONE = Fraction(1)


class RationalMatrix(Record):
    """Dense rational matrix; ``entries``: a row-major tuple of ints and Fractions."""

    __slots__ = _fields = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence):
        entries = tuple(entries)
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match dimensions")
        object.__setattr__(self, "rows", rows)  # a hot path: no _set call
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple:
        return self.entries[j :: self.cols]


def row_step(p: int, row, a: int, pivot, q: int) -> list[int]:
    """The row step of every elimination: ``(p * row - a * pivot) / q``, exact."""
    return [(p * x - a * y) // q for x, y in zip(row, pivot)]


class Echelon:
    """Bareiss echelon of integer rows, built one row at a time.

    A row entering goes through every earlier pivot in the order they were
    found.  Where it is nonzero in the pivot column it takes the row step,
    divided by ``q``, the pivot of the last step it took.  A pivot it skips
    would scale it by ``p / prev``; those scales telescope, so they are
    applied once, at the end, as the last pivot over ``q``.  The row is then
    the Bareiss row, whose entries are minors of the input.  A row that does
    not reduce to zero becomes the next pivot, at its first nonzero column.
    ``pivots`` holds (column, row) pairs; their columns are the leading
    columns of the row space's RREF, in arrival order.
    """

    def __init__(self, rows=()):
        self.pivots: list[tuple[int, Sequence[int]]] = []
        for row in rows:
            self.add(row)

    def reduce(self, row) -> Sequence[int]:
        """The row, scaled to integers by the lcm of its denominators if it
        has any, reduced by every pivot: zero exactly when in the span."""
        if not set(map(type, row)) <= {int}:
            scale = lcm(*(x.denominator for x in row))
            row = [x.numerator * (scale // x.denominator) for x in row]
        q = 1
        for c, prow in self.pivots:
            if row[c]:
                p = prow[c]
                row, q = row_step(p, row, row[c], prow, q), p
        if self.pivots:
            c, prow = self.pivots[-1]
            if prow[c] != q:
                row = [x * prow[c] // q for x in row]
        return row

    def add(self, row) -> bool:
        """Insert unless already in the span; returns True when new."""
        row = self.reduce(row)
        c = next(compress(count(), row), None)
        if c is None:
            return False
        self.pivots.append((c, row))
        return True


def rank(m: RationalMatrix, at_most: int | None = None) -> int:
    """Rank over the rationals, computed exactly: the echelon of the nonzero
    lines of the longer side (a zero line adds no pivot), stopped once the
    pivot count reaches min(rows, cols), or the nonnegative cap ``at_most``
    when it is smaller.  A capped rank is min(rank, at_most), still exact:
    the pivots found are independent."""
    stop = min(m.rows, m.cols) if at_most is None else min(m.rows, m.cols, at_most)
    if stop < 0:
        raise ValueError(f"rank cap must be nonnegative, got {at_most}")
    tall = m.rows >= m.cols
    lines = map(m.row, range(m.rows)) if tall else map(m.column, range(m.cols))
    span = Echelon()
    for line in filter(any, lines):
        if len(span.pivots) == stop:
            break
        span.add(line)
    return len(span.pivots)


def kernel_basis(m: RationalMatrix) -> list[tuple[Fraction, ...]]:
    """Canonical basis of the right null space: its unique RREF (pivot entries
    1, lexicographically smallest pivot positions, deterministic order).  A
    matrix with zero rows has the full space as kernel (standard basis).
    """
    # The free-variable vectors of the column-reversed RREF, read back in the
    # original order, have their 1 leftmost and are zero at every other free
    # column: they already are the kernel's RREF.
    reduced, last = {}, 1
    for c, prow in Echelon(m.row(i)[::-1] for i in range(m.rows)).pivots:
        p = prow[c]
        reduced = {
            pc: row_step(p, row, row[c], prow, last) for pc, row in reduced.items()
        }
        reduced[c] = prow
        last = p
    basis = []
    for free in reversed(range(m.cols)):
        if free not in reduced:
            v = {pc: Fraction(-row[free], last) for pc, row in reduced.items()}
            v[free] = _ONE
            basis.append(tuple(v.get(t, _ZERO) for t in reversed(range(m.cols))))
    return basis
