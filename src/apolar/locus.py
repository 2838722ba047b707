"""Combinatorial support analysis for the standard locus.

The standard locus of degree-d forms decomposes into components indexed by
admissible supports; a support is admissible when three combinatorial
conditions on its first derivatives hold (every variable is hit, each
derivative arises from at most one source, and no two distinct sources
collide).  All three are read from one table of the derivatives and their
sources.  The last two agree, since two distinct sources of one derivative
differ in both monomial and variable: both say that no two support monomials
share a derivative, so the catalog is found by backtracking over that
conflict graph (Knuth, TAOCP Vol. 4B, 7.2.2), not by testing every subset.
The predicates can disagree with the linear-algebra notion of standardness;
the CLI reports both verdicts side by side.

This module also builds the two projection maps between ambient Perazzo
polynomial spaces (eliminating the last u-variable, and stepping the degree
down by one) and reports their computed kernel dimensions next to the
published closed-form values.  Each map sends a source monomial to one target
monomial or to zero, so it is stored as its column images and its rank is the
number of distinct images.  Where the computation disagrees with the closed
form, the discrepancy is reported verbatim, never patched.
"""

from __future__ import annotations

from functools import reduce
from itertools import accumulate
from operator import itemgetter, or_

from .errors import DEFAULT_ENUMERATION_GUARD, DEFAULT_MATRIX_GUARD, check_guard
from .monomials import (
    ExponentVector,
    basis_index,
    enumerate_exponents,
    lift_image,
    monomial_count,
)
from .values import Record


class SupportConditions(Record):
    """The three admissibility predicates on a support set."""

    _fields = ("covers_all_variables", "unique_derivative_source", "no_cross_collision")
    __slots__ = _fields

    def __init__(
        self, covers_all_variables, unique_derivative_source, no_cross_collision
    ):
        self._set(covers_all_variables, unique_derivative_source, no_cross_collision)

    @property
    def all_hold(self) -> bool:
        return all(self._values)


class ComponentDescriptor(Record):
    """An admissible support together with its derived exponent set.

    Two dimension counts are reported: one from the size of the support
    (torus parameterization) and one from the size of the derived set; the
    two can differ and neither is silently preferred.
    """

    __slots__ = _fields = ("support", "derived_set", "dim_support", "dim_derived")

    def __init__(self, support, derived_set, dim_support: int, dim_derived: int):
        self._set(tuple(support), tuple(derived_set), dim_support, dim_derived)


def _derivative_table(support, num_vars: int) -> tuple[dict, list[int]]:
    """``sources``: each first derivative -> the bitmask of the support
    positions it comes from; ``uses``: each position's bitmask of variables."""
    sources: dict[ExponentVector, int] = {}
    uses = []
    for i, vec in enumerate(support):
        if len(vec) != num_vars:
            raise ValueError(f"exponent vector {vec} does not have {num_vars} entries")
        uses.append(0)
        for k, e in enumerate(vec):
            if e:  # the derivative by variable k + 1
                uses[-1] |= 1 << k
                down = vec[:k] + (e - 1,) + vec[k + 1 :]
                sources[down] = sources.get(down, 0) | 1 << i
    return sources, uses


def support_conditions(support, num_vars: int) -> SupportConditions:
    """The three admissibility predicates on a support set; repeats count once.
    ``no_cross_collision`` takes the value of ``unique_derivative_source``: two
    sources (a, k) != (b, l) of one derivative a - e_k = b - e_l differ in both
    monomial and variable (a = b forces k = l), so any two of them collide."""
    sources, uses = _derivative_table({tuple(m) for m in support}, num_vars)
    covers = reduce(or_, uses, 0) == (1 << num_vars) - 1
    unique = all(mask.bit_count() <= 1 for mask in sources.values())
    return SupportConditions(covers, unique, unique)


def enumerate_admissible_supports(
    n: int,
    d: int,
    max_basis: int = DEFAULT_ENUMERATION_GUARD,
) -> list[ComponentDescriptor]:
    """All support subsets of the degree-d basis passing every admissibility
    predicate, in deterministic (subset bitmask) order.

    They are the variable-covering independent sets of the graph joining two
    monomials that share a first derivative (b = a - e_k + e_l), listed by
    backtracking over bitmasks; a branch stops once the basis suffix left
    cannot cover the missing variables.  The output can grow exponentially
    with the basis, hence the guard.
    """
    check_guard("basis size", monomial_count(n, d), max_basis, "--guard / max_basis")
    basis = enumerate_exponents(n, d)
    sources, uses = _derivative_table(basis, n)
    # conflict[i]: the positions sharing a derivative with basis[i], i included
    conflict = [
        reduce(or_, (mask for mask in sources.values() if mask >> i & 1), 0)
        for i in range(len(basis))
    ]
    full = (1 << n) - 1
    # suffix_uses[j]: the variables that the basis from position j on uses
    suffix_uses = list(accumulate(reversed(uses), or_, initial=0))[::-1]
    masks = []

    def extend(chosen: int, allowed: int, used: int) -> None:
        # ``allowed`` holds the positions above chosen's that conflict with none
        while allowed:
            j = (allowed & -allowed).bit_length() - 1
            if used | suffix_uses[j] != full:
                return
            allowed &= allowed - 1
            if used | uses[j] == full:
                masks.append(chosen | 1 << j)
            extend(chosen | 1 << j, allowed & ~conflict[j], used | uses[j])

    extend(0, (1 << len(basis)) - 1, 0)
    out = []
    for mask in sorted(masks):
        support = tuple(basis[b] for b in range(len(basis)) if mask >> b & 1)
        derived = tuple(sorted(k for k, src in sources.items() if src & mask))
        out.append(
            ComponentDescriptor(support, derived, len(support) - 1, len(derived) - 1)
        )
    return out


class ProjectionMap(Record):
    """A 0/1 matrix with at most one 1 per column, stored as column images:
    source column c goes to target row ``images[c]``, or to zero on None."""

    __slots__ = _fields = ("rows", "images")

    def __init__(self, rows: int, images):
        self._set(rows, tuple(images))

    @property
    def cols(self) -> int:
        return len(self.images)


def u_elimination_matrix(
    n: int,
    d: int,
    max_dim: int = DEFAULT_MATRIX_GUARD,
) -> ProjectionMap:
    """Column images of the projection that eliminates the last u-variable.

    Source: degree-d monomials in tau(n, d-1) x-variables plus n u-variables.
    Target: degree-d monomials in tau(n-1, d-1) x-variables plus n-1
    u-variables.  A monomial dies when the last u-variable divides it or when
    one of its x-variables is paired with a u-monomial divisible by the last
    u-variable.  ``dead`` reads those coordinates and ``keep`` every other one
    in order, so a survivor maps to the target monomial of its kept
    coordinates (the killed ones are all zero on it).  Bases are lex
    ascending; a dying monomial has image None, and the rank is the
    distinct-image count.
    """
    if n < 2 or d < 2:
        raise ValueError("need n >= 2 and d >= 2")
    p = monomial_count(n, d - 1)
    p_target = monomial_count(n - 1, d - 1)
    size = monomial_count(p + n, d)  # the source basis is the larger one
    check_guard("matrix dimension", size, max_dim, "--max-dim / max_dim")
    killed = [t for t, m in enumerate(enumerate_exponents(n, d - 1)) if m[-1]]
    # n, d >= 2 give each getter 2+ indices, so it returns a tuple: dead has
    # x_1 (paired with u_n^(d-1)) and u_n, keep has u_1 and p_target >= 1 x's
    dead = itemgetter(*killed, p + n - 1)
    keep = itemgetter(*(t for t in range(p + n - 1) if t not in killed))
    target_index = basis_index(p_target + (n - 1), d)
    images = tuple(
        None if any(dead(vec)) else target_index[keep(vec)]
        for vec in enumerate_exponents(p + n, d)
    )
    return ProjectionMap(len(target_index), images)


def degree_step_matrix(
    n: int,
    d: int,
    max_dim: int = DEFAULT_MATRIX_GUARD,
) -> ProjectionMap:
    """Column images of the projection that lowers the degree by one.

    Source: degree-d monomials in tau(n, d-1) x-variables plus n u-variables.
    Target: degree-(d-1) monomials in tau(n, d-2) x-variables plus the same n
    u-variables.  A monomial survives only when it is one x-variable whose
    paired u-monomial lies in the lift image (is divisible by the last
    u-variable) times a u-monomial of degree d-1 that lies in the lift image
    too; the full exponent vector then lies in the lift image as well.  The
    image lowers the last u-exponent.  ``eligible`` reads the x-positions
    paired with a lift-image monomial, in order, so a survivor's x-variable
    is re-indexed by its rank among them, which is what makes the x-block of
    the target well defined.  Bases are lex ascending; a dying monomial has
    image None, and the rank is the distinct-image count.
    """
    if n < 2 or d < 3:
        raise ValueError("need n >= 2 and d >= 3")
    p = monomial_count(n, d - 1)
    p_target = monomial_count(n, d - 2)
    size = monomial_count(p + n, d)  # the source basis is the larger one
    check_guard("matrix dimension", size, max_dim, "--max-dim / max_dim")
    # p_target = tau(n, d-2) >= n >= 2 indices, so the getter returns a tuple
    eligible = itemgetter(
        *(t for t, m in enumerate(enumerate_exponents(n, d - 1)) if m[-1])
    )
    u_image = lift_image(n, d - 1)
    target_index = basis_index(p_target + n, d - 1)
    # u-degree d-1 leaves one x-variable, and u ends in a positive exponent
    images = tuple(
        target_index[new_x + u[:-1] + (u[-1] - 1,)]
        if (u := vec[p:]) in u_image and any(new_x := eligible(vec))
        else None
        for vec in enumerate_exponents(p + n, d)
    )
    return ProjectionMap(len(target_index), images)


def _map_report(projection: ProjectionMap, formula_value: int) -> dict:
    # distinct images are distinct unit columns, hence independent
    computed_rank = len(set(projection.images) - {None})
    kernel_dim = projection.cols - computed_rank
    return {
        "rows": projection.rows,
        "cols": projection.cols,
        "rank": computed_rank,
        "kernel_dim": kernel_dim,
        "surjective": computed_rank == projection.rows,
        "published_kernel_formula": formula_value,
        "formula_matches": kernel_dim == formula_value,
    }


def projection_map_report(
    n: int,
    d: int,
    max_dim: int = DEFAULT_MATRIX_GUARD,
) -> dict:
    """Computed kernel dimensions of both projection maps next to the
    published closed-form values.  Mismatches are reported, never repaired."""
    report = {
        "u_elimination": _map_report(
            u_elimination_matrix(n, d, max_dim=max_dim),
            monomial_count(n, d - 1) - monomial_count(n - 1, d - 1) + 1,
        )
    }
    if d >= 3:
        report["degree_step"] = _map_report(
            degree_step_matrix(n, d, max_dim=max_dim),
            monomial_count(n, d - 1) - monomial_count(n, d - 2),
        )
    return report
