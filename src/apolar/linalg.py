"""Exact dense linear algebra over the rationals, by integer elimination.

Entries are ``int`` or ``fractions.Fraction``, with no floating point
anywhere.  Rows are scaled to integers by the lcm of their denominators, and
one exact row step, ``(p * row - a * pivot) / q``, serves Bareiss elimination
(Math. Comp. 22, 1968: ``q`` is the previous pivot, so entries stay minors of
the input) for ``rank``, its Gauss-Jordan form, divided once at the end, for
``kernel_basis``, and the incremental echelon in ``generators._Span``.  The
reduced row echelon form is unique, so identical inputs give identical
outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, count
from math import lcm
from typing import Sequence

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class RationalMatrix:
    """Dense rational matrix; ``entries``: row-major ints and Fractions."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")

    @staticmethod
    def from_rows(rows_data) -> "RationalMatrix":
        rows_data = [list(row) for row in rows_data]
        nrows = len(rows_data)
        ncols = len(rows_data[0]) if rows_data else 0
        flat = []
        for row in rows_data:
            if len(row) != ncols:
                raise ValueError("ragged rows")
            flat.extend(Fraction(x) for x in row)
        return RationalMatrix(nrows, ncols, tuple(flat))

    @staticmethod
    def zero(rows: int, cols: int) -> "RationalMatrix":
        return RationalMatrix(rows, cols, (0,) * (rows * cols))

    def entry(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple:
        return self.entries[j :: self.cols]

    def to_lists(self) -> list[list]:
        return [list(self.row(i)) for i in range(self.rows)]


def integer_row(values) -> Sequence[int]:
    """The row as integers: scaled by the lcm of its denominators, if any."""
    if set(map(type, values)) <= {int}:
        return values
    scale = lcm(*(x.denominator for x in values))
    return [x.numerator * (scale // x.denominator) for x in values]


def first_nonzero(row) -> int | None:
    """Index of the first nonzero entry, or None for a zero row."""
    return next(compress(count(), row), None)


def row_step(p: int, row, a: int, pivot, q: int = 1) -> list[int]:
    """The row step of every elimination: ``(p * row - a * pivot) / q``, exact."""
    return [(p * x - a * y) // q for x, y in zip(row, pivot)]


def _eliminate(rows, jordan: bool) -> tuple[list, int]:
    """Bareiss elimination of integer rows: the pivot rows, leftmost pivot
    first, and the last pivot.  With ``jordan`` the pivot rows divided by the
    last pivot are the reduced row echelon form."""
    buckets: dict[int, list] = {}  # leading column -> rows
    for row in rows:
        row = integer_row(row)
        lead = first_nonzero(row)
        if lead is not None:
            buckets.setdefault(lead, []).append(row)
    prev, done = 1, []
    while buckets:
        c = min(buckets)
        prow, *others = buckets.pop(c)
        p = prow[c]
        if p != prev:  # rows with zero in column c are scaled by p / prev
            for group in buckets.values():
                group[:] = [[x * p // prev for x in row] for row in group]
        for row in others:
            row = row_step(p, row, row[c], prow, prev)
            lead = first_nonzero(row)
            if lead is not None:
                buckets.setdefault(lead, []).append(row)
        if jordan:
            done = [row_step(p, row, row[c], prow, prev) for row in done]
        done.append(prow)
        prev = p
    return done, prev


def rank(m: RationalMatrix) -> int:
    """Rank over the rationals, computed exactly."""
    return len(_eliminate(map(m.row, range(m.rows)), jordan=False)[0])


def kernel_basis(m: RationalMatrix) -> list[tuple[Fraction, ...]]:
    """Canonical basis of the right null space: its unique RREF (pivot entries
    1, lexicographically smallest pivot positions, deterministic order).  A
    matrix with zero rows has the full space as kernel (standard basis).
    """
    # The free-variable vectors of the column-reversed RREF, read back in the
    # original order, have their 1 leftmost and are zero at every other free
    # column: they already are the kernel's RREF.
    done, last = _eliminate((m.row(i)[::-1] for i in range(m.rows)), jordan=True)
    reduced = {first_nonzero(row): row for row in done}
    basis = []
    for free in reversed(range(m.cols)):
        if free not in reduced:
            v = {pc: Fraction(-row[free], last) for pc, row in reduced.items()}
            v[free] = _ONE
            basis.append(tuple(v.get(t, _ZERO) for t in reversed(range(m.cols))))
    return basis
