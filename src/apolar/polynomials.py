"""Graded polynomials, the apolarity pairing, catalecticants and Hilbert vectors.

A homogeneous polynomial is a finite map from exponent tuples to nonzero
rationals.  Differential operators live in the dual variables and are stored
with the same type; which ring a value belongs to is determined by use.

The library has one pairing, contraction (the dual-basis rule): a degree-a
operator monomial sends ``x^b`` to ``x^(b-a)`` when ``a <= b`` coordinatewise
and to zero otherwise, so the equal-degree pairing of monomial bases is the
Kronecker delta.  Every function here uses it, and none takes a pairing mode.

Differentiation (honest partial derivatives) is contraction on
``differentiation_form(f) = sum b! f_b x^b``: over the rationals the two
actions are the same module (the divided-power isomorphism of apolarity).
So ``hilbert_vector(differentiation_form(f))`` is the Hilbert vector of
``f`` under differentiation, and likewise for :func:`annihilator_basis`.
The two pairings of ``f`` itself agree for generic coefficients, but not
for every polynomial: coefficient patterns aligned with the basis (for
example all-ones coefficients) can gain dual-basis relations that
differentiation does not see.  Contraction is the pairing under which the
coefficient-one combinatorics of this package is exact.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial, prod
from operator import sub
from types import MappingProxyType
from typing import Iterable, Mapping

from .linalg import RationalMatrix, kernel_basis, rank
from .monomials import ExponentVector, basis_index, enumerate_exponents, monomial_count
from .values import Record

_ZERO = Fraction(0)


class GradedPolynomial(Record):
    """Homogeneous polynomial: ``terms`` maps exponent tuples to nonzero
    rationals, each an ``int`` or a ``Fraction`` (they hash and compare
    alike).  An empty map is the zero polynomial of the given graded slot.
    The value is immutable: ``terms`` is a read-only copy of the map given.
    Every term must have ``num_vars`` nonnegative entries summing to
    ``degree``; unlike :func:`graded_polynomial`, nothing is normalized."""

    __slots__ = _fields = ("num_vars", "degree", "terms")

    def __init__(self, num_vars: int, degree: int, terms: Mapping):
        terms = MappingProxyType(dict(terms))
        for exps, coeff in terms.items():
            if len(exps) != num_vars or sum(exps) != degree:
                raise ValueError(
                    f"term {exps} is not of degree {degree} in {num_vars} variables"
                )
            if exps and min(exps) < 0:
                raise ValueError(f"term {exps} has a negative exponent")
            if not coeff:
                raise ValueError(f"term {exps} has a zero coefficient")
        object.__setattr__(self, "num_vars", num_vars)  # a hot path: no _set call
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", terms)

    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> tuple[ExponentVector, ...]:
        return tuple(sorted(self.terms))

    def is_coefficient_one(self) -> bool:
        return all(c == 1 for c in self.terms.values())


def graded_polynomial(num_vars: int, terms: Mapping) -> GradedPolynomial:
    """Validating constructor: enforces homogeneity and drops zero coefficients.

    Rejects the zero polynomial; intermediate zero results are produced only
    by :func:`contract` and friends.
    """
    if num_vars < 1:
        raise ValueError("need at least one variable")
    cleaned: dict[ExponentVector, Fraction] = {}
    for exps, coeff in terms.items():
        key = tuple(map(int, exps))
        if key != tuple(exps):
            raise ValueError(f"non-integral exponent in {tuple(exps)}")
        if len(key) != num_vars:
            raise ValueError(f"exponent vector {key} has wrong length")
        if any(e < 0 for e in key):
            raise ValueError(f"negative exponent in {key}")
        value = cleaned.get(key, _ZERO) + Fraction(coeff)
        if value:
            cleaned[key] = value
        else:
            cleaned.pop(key, None)
    if not cleaned:
        raise ValueError("zero polynomial")
    degrees = {sum(e) for e in cleaned}
    if len(degrees) != 1:
        raise ValueError(f"inhomogeneous support: degrees {sorted(degrees)}")
    return GradedPolynomial(num_vars, degrees.pop(), cleaned)


def monomial_poly(num_vars: int, exps: ExponentVector) -> GradedPolynomial:
    return graded_polynomial(num_vars, {tuple(exps): 1})


def coefficient_one_poly(num_vars: int, support: Iterable[ExponentVector]) -> GradedPolynomial:
    return graded_polynomial(num_vars, {tuple(e): 1 for e in support})


def contract(op: GradedPolynomial, f: GradedPolynomial) -> GradedPolynomial:
    """Apply the operator to the polynomial; bilinear extension of the
    dual-basis monomial rule.  The result may be zero."""
    if op.num_vars != f.num_vars:
        raise ValueError("operator and polynomial have different variable counts")
    if op.degree > f.degree:
        raise ValueError("operator degree exceeds polynomial degree")
    out: dict[ExponentVector, Fraction] = {}
    for a, ca in op.terms.items():
        for b, cb in f.terms.items():
            if any(o > t for o, t in zip(a, b)):
                continue
            r = tuple(bi - ai for ai, bi in zip(a, b))
            value = out.get(r, _ZERO) + ca * cb
            if value:
                out[r] = value
            else:
                out.pop(r, None)
    return GradedPolynomial(f.num_vars, f.degree - op.degree, out)


def catalecticant_matrix(f: GradedPolynomial, j: int) -> RationalMatrix:
    """Matrix of "contract f" from degree-j operators to degree-(d-j) polynomials.

    Rows are indexed by the degree-(d-j) basis, columns by the degree-j basis,
    both in the pinned ascending lex order.  Entries are ``int`` where
    integral and ``Fraction`` otherwise.

    The matrix is Hankel, entry (r, c) being the coefficient of x^(r+c): each
    term of f is written at the positions of its degree-j divisors, memoized
    per term exponent and pair {j, d-j}, so only the exponents f uses expand.
    """
    if not 0 <= j <= f.degree:
        raise ValueError(f"degree {j} outside 0..{f.degree}")
    low = min(j, f.degree - j)
    return _scatter(f, j, [
        (c.numerator if c.denominator == 1 else c, _hankel_positions(b, low)[j > low])
        for b, c in f.terms.items()
    ])


def _scatter(f: GradedPolynomial, j: int, placed) -> RationalMatrix:
    """C_j from (coefficient, flat positions in C_j) pairs, one per term of
    ``f``, each coefficient already an ``int`` where integral."""
    rows = monomial_count(f.num_vars, f.degree - j)
    cols = monomial_count(f.num_vars, j)
    flat: list = [0] * (rows * cols)
    for coeff, positions in placed:
        for pos in positions:
            flat[pos] = coeff
    return RationalMatrix(rows, cols, tuple(flat))


@lru_cache(maxsize=1 << 13)
def _hankel_positions(b: ExponentVector, low: int) -> tuple[tuple[int, ...], ...]:
    """Flat positions of x^b's coefficient in C_low and C_(d-low), d = |b| >= 2 low:
    entries (r, c) and (c, r) for each split x^b = x^c x^r with |c| = low."""
    at_low, at_high = basis_index(len(b), low), basis_index(len(b), sum(b) - low)
    into_low, into_high = [], []
    for c in product(*[range(min(e, low) + 1) for e in b]):
        if sum(c) == low:
            s, t = at_low[c], at_high[tuple(map(sub, b, c))]
            into_low.append(t * len(at_low) + s)
            into_high.append(s * len(at_high) + t)
    return tuple(into_low), tuple(into_high)


@lru_cache(maxsize=1 << 13)
def _term_positions(b: ExponentVector) -> tuple[tuple[int, ...], ...]:
    """:func:`_hankel_positions` of x^b for every degree j = 0..|b|, in order."""
    d = sum(b)
    return tuple(_hankel_positions(b, min(j, d - j))[2 * j > d] for j in range(d + 1))


def differentiation_form(f: GradedPolynomial) -> GradedPolynomial:
    """The form ``sum b! f_b x^b``, whose contraction catalecticants stand
    for ``f``'s under differentiation.  Coefficients keep their type.

    Differentiation puts f_b b!/r! at entry (r, c) of C_j, with b = r + c:
    that is diag(1/r!) times C_j of ``differentiation_form(f)``.  A row
    scaling changes neither the rank nor the right kernel, so Hilbert
    vectors and annihilator bases read the same off either matrix.
    """
    terms = {b: c * prod(map(factorial, b)) for b, c in f.terms.items()}
    return GradedPolynomial(f.num_vars, f.degree, terms)


def annihilator_dimension(f: GradedPolynomial, j: int) -> int:
    """Dimension of the degree-j slice of the annihilator ideal of ``f``.

    Beyond the degree of ``f`` every operator annihilates.
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    if j < 0:
        raise ValueError("degree must be nonnegative")
    if j > f.degree:
        return monomial_count(f.num_vars, j)
    m = catalecticant_matrix(f, j)
    return m.cols - rank(m)


def annihilator_basis(f: GradedPolynomial, j: int) -> list[GradedPolynomial]:
    """Canonical basis of the degree-j annihilator slice, as operator
    polynomials over the pinned lex basis.  Deterministic."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    m = catalecticant_matrix(f, j)
    col_basis = enumerate_exponents(f.num_vars, j)
    out = []
    for vec in kernel_basis(m):
        terms = {col_basis[t]: vec[t] for t in range(len(vec)) if vec[t]}
        out.append(GradedPolynomial(f.num_vars, j, terms))
    return out


def hilbert_vector(f: GradedPolynomial, at_most=None) -> tuple[int, ...]:
    """Dimensions of the graded quotient algebra, degree by degree.

    Entry j is the rank of its own catalecticant C_j; the symmetry of the
    result is a theorem, not an assumption, and the test suite checks it.
    Each term's positions in every C_j are looked up once per form; C_j is
    then scattered into a zero matrix and ranked before C_(j+1) is built,
    so one dense catalecticant is held at a time.
    ``at_most``, one cap per degree, stops each rank early: entry j is then
    min(h_j, cap_j), exact, which compares with any c_j < cap_j as h_j does.
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    caps = (None,) * (f.degree + 1) if at_most is None else tuple(at_most)
    if len(caps) != f.degree + 1:
        raise ValueError(f"need {f.degree + 1} rank caps, got {len(caps)}")
    coefficients = [c.numerator if c.denominator == 1 else c for c in f.terms.values()]
    by_degree = zip(*map(_term_positions, f.terms))
    # C_j is a temporary: it is ranked and dropped before C_(j+1) is built
    return tuple(
        rank(_scatter(f, j, zip(coefficients, at)), cap)
        for j, (at, cap) in enumerate(zip(by_degree, caps))
    )


def is_standard(f: GradedPolynomial) -> bool:
    """True when no nonzero degree-1 operator annihilates ``f``."""
    return annihilator_dimension(f, 1) == 0


class HilbertOrder(Enum):
    LESS_EQ = "LESS_EQ"
    GREATER_EQ = "GREATER_EQ"
    EQUAL = "EQUAL"
    INCOMPARABLE = "INCOMPARABLE"


def compare_hilbert(a: tuple[int, ...], b: tuple[int, ...]) -> HilbertOrder:
    """Coordinatewise comparison over all entries.

    Vectors of different lengths (different socle degrees) are rejected;
    ``LESS_EQ`` and ``GREATER_EQ`` are strict dominations, ``EQUAL`` requires
    identity.
    """
    if len(a) != len(b):
        raise ValueError("Hilbert vectors of different lengths are incomparable")
    if tuple(a) == tuple(b):
        return HilbertOrder.EQUAL
    if all(x <= y for x, y in zip(a, b)):
        return HilbertOrder.LESS_EQ
    if all(x >= y for x, y in zip(a, b)):
        return HilbertOrder.GREATER_EQ
    return HilbertOrder.INCOMPARABLE
