"""Structured annihilator generators for coefficient-one polynomials.

For a polynomial with all coefficients equal to one, the annihilator ideal is
generated by three structured families:

* top powers of the dual variables (one degree above the socle degree),
* minimal non-face monomials of the divisor-closure complex,
* differences of coefficient-one operator polynomials with equal image.

``extract_generators`` emits these families degree by degree, pruning every
candidate that already lies in the ideal generated so far, so the output is
non-redundant and deterministic.  The degree-j slice of the annihilator is
the kernel of the catalecticant C_j, whose columns are the only contraction
images this module reads.  Every non-cell is a multiple of a minimal
non-face of at most its degree, and extraction keeps them all, so their
multiples are the non-cells' unit vectors: each degree's span lives over
the degree-j cells alone (at degree d+1, over its minimal non-faces), and
membership is unchanged, as span(U + B) = span(U) + (B projected off U).
A degree stops once its span has (cells - rank C_j) pivots, and a degree
saturated before its image scan skips it, guard and all: the subset guard
counts only the subsets a scan walks.  ``verify_generators``
checks degree-wise, independently of extraction, that a generator set
generates the whole annihilator; it uses the same lemma with U the
monomials that the set's own one-term generators divide.

Every generator is built by ``_operator`` from term maps.  Extraction's
maps have coefficients ±1, so its operators are ``int`` polynomials, and
``_vector`` writes the same maps over a monomial index for the spans.
"""

from __future__ import annotations

from math import lcm
from operator import add, mul
from types import MappingProxyType
from typing import Mapping

from .complexes import complex_of, minimal_nonfaces
from .errors import DEFAULT_SUBSET_GUARD, check_guard
from .linalg import Echelon, rank
from .monomials import ExponentVector, enumerate_exponents, unit_power
from .polynomials import GradedPolynomial, catalecticant_matrix
from .values import Record

_NO_TERMS: Mapping = MappingProxyType({})


class GeneratorSet(Record):
    """Degree-structured generators of an annihilator ideal.

    ``powers`` holds (variable index, exponent) pairs, 1-based; nonface
    monomials and difference pairs are grouped by degree, in read-only
    copies of the mappings passed in, with frozenset and tuple values.
    """

    _fields = ("num_vars", "socle_degree", "powers", "nonface_monomials", "differences")
    __slots__ = _fields

    def __init__(self, num_vars, socle_degree, powers, nonface_monomials, differences):
        nf = {j: frozenset(m) for j, m in nonface_monomials.items()}
        pairs = {j: tuple(map(tuple, p)) for j, p in differences.items()}
        nf, pairs = MappingProxyType(nf), MappingProxyType(pairs)
        self._set(num_vars, socle_degree, frozenset(powers), nf, pairs)

    def polynomials(self) -> list[tuple[int, GradedPolynomial]]:
        """All generators as (degree, operator polynomial), deterministic order.

        The degree is read from each polynomial; the dict keys only group.
        """
        n, nf = self.num_vars, self.nonface_monomials
        polys = [_operator(n, {m: 1}) for j in sorted(nf) for m in sorted(nf[j])]
        for j in sorted(self.differences):
            polys += [_operator(n, p.terms, q.terms) for p, q in self.differences[j]]
        polys += [_operator(n, {unit_power(n, *p): 1}) for p in sorted(self.powers)]
        return [(p.degree, p) for p in polys]


def _operator(n: int, terms: Mapping, minus: Mapping = _NO_TERMS) -> GradedPolynomial:
    """The operator ``terms - minus`` in n variables, with the coefficients'
    own types.  A difference that is zero or spans two degrees is refused."""
    out = dict(terms)
    for e, c in minus.items():
        out[e] = out.get(e, 0) - c
    out = {e: c for e, c in out.items() if c}
    degrees = set(map(sum, out))
    if len(degrees) != 1:
        raise ValueError(f"inhomogeneous or zero operator: degrees {sorted(degrees)}")
    return GradedPolynomial(n, degrees.pop(), out)


def _vector(index: Mapping, terms: Mapping, minus: Mapping = _NO_TERMS) -> list:
    """The operator ``terms - minus`` as a vector over the basis ``index``."""
    v = [0] * len(index)
    for e, c in terms.items():
        v[index[e]] += c
    for e, c in minus.items():
        v[index[e]] -= c
    return v


def _ideal_span(generators: list, index: Mapping, j: int) -> Echelon:
    """Span of all degree-j monomial multiples of the (degree, operator)
    generators, as an echelon over the monomials of ``index``: a multiple's
    terms outside it are dropped.  Over a whole degree-j basis that is the
    span itself; over the complement of a set U of coordinates it is the
    span's projection, and span(U + B) = span(U) + (B projected off U)."""
    span = Echelon()
    for degree, poly in generators:
        if degree > j:
            continue
        terms = tuple(poly.terms.items())
        for m in enumerate_exponents(poly.num_vars, j - degree):
            v = [0] * len(index)
            for e, c in terms:
                t = index.get(tuple(map(add, e, m)))
                if t is not None:
                    v[t] = c
            span.add(v)
    return span


def contraction_image_classes(
    f: GradedPolynomial,
    j: int,
    max_subsets: int = DEFAULT_SUBSET_GUARD,
) -> list[list[tuple[ExponentVector, ...]]]:
    """Partition of coefficient-one degree-j operator polynomials by image.

    Polynomials are identified with their supports (nonempty subsets of the
    monomials that do not annihilate ``f``); two belong to the same class
    exactly when they contract ``f`` to the same polynomial.  The image of
    the degree-j monomial X^c is column c of the catalecticant C_j, so a
    support's image is the sum of its columns.  Each nonzero column, scaled
    by the lcm of the denominators, is packed into one ``int`` as signed
    base-2^w digits, one per nonzero row, with 2^w > B for B the largest
    row sum of absolute values.  In every row two supports' sums differ by
    at most B, a signed sum over the cells in only one of them, so their
    keys are equal exactly when their images are: at the lowest digit
    where the images differ, the keys' difference would need a nonzero
    multiple of 2^w.  The scan walks the supports depth first in lex
    order, adding one column per support, so each class fills up sorted
    and the classes come in the order of their first members.  The subset
    guard counts the nonzero columns, the degree-j cells of the complex of
    ``f``.
    """
    if not 1 <= j <= f.degree:
        raise ValueError(f"degree {j} outside 1..{f.degree}")
    c_j = catalecticant_matrix(f, j)
    cells, columns = [], []
    for c, m in enumerate(enumerate_exponents(f.num_vars, j)):
        column = c_j.column(c)
        if any(column):
            cells.append(m)
            columns.append(column)
    subsets = len(cells) and 1 << len(cells)  # with no cells there is no scan
    check_guard("subset count", subsets, max_subsets, "--max-subsets / max_subsets")
    rows = [row for row in zip(*columns) if any(row)]
    scale = lcm(*(x.denominator for row in rows for x in row))
    width = int(scale * max((sum(map(abs, row)) for row in rows), default=0)).bit_length()
    keys = [
        sum(int(x * scale) << width * r for r, x in enumerate(column) if x)
        for column in zip(*rows)
    ]
    groups: dict[int, list] = {}
    last = len(cells)
    stack = [(0, (), 0)] if cells else []  # (key, support, cell to add to it)
    while stack:
        key, support, i = stack.pop()
        image, member = key + keys[i], support + (cells[i],)
        groups.setdefault(image, []).append(member)
        if i + 1 < last:
            stack.append((key, support, i + 1))  # the next sibling, after ...
            stack.append((image, member, i + 1))  # ... every extension of member
    return list(groups.values())


def extract_generators(
    f: GradedPolynomial,
    max_subsets: int = DEFAULT_SUBSET_GUARD,
) -> GeneratorSet:
    """Structured generator extraction for a coefficient-one polynomial.

    Candidates are processed in a fixed order (non-faces by degree, then
    consecutive-pair differences within each equal-image class, then top
    powers) and kept only when outside the ideal generated so far.
    Differences are searched in every degree up to the socle degree.  Every
    minimal non-face is kept, so a degree's span lives over its cells, and
    a degree stops once the span has (cells - rank C_j) pivots; a degree
    saturated before its image scan skips it, so the subset guard, checked
    in the scan, bounds only the degrees scanned.  A top power outside the
    degree d+1 minimal non-faces is a multiple of a kept non-face, so only
    the others are tried.
    """
    if not f.is_coefficient_one():
        raise ValueError("generator extraction requires all coefficients equal to 1")
    n, d = f.num_vars, f.degree
    zeta = complex_of(f)
    kept: list[tuple[int, GradedPolynomial]] = []  # differences; non-faces stay out
    nonfaces: dict[int, frozenset] = {}
    differences: dict[int, tuple] = {}
    for j in range(1, d + 1):
        cells = zeta.layers[j]
        full = len(cells) - rank(catalecticant_matrix(f, j))
        nf = minimal_nonfaces(zeta, j)
        if nf:
            nonfaces[j] = frozenset(nf)
        index = {m: t for t, m in enumerate(cells)}
        span = _ideal_span(kept, index, j)
        pairs = []
        if len(span.pivots) < full:
            classes = contraction_image_classes(f, j, max_subsets)
            for left, right in (p for cls in classes for p in zip(cls, cls[1:])):
                plus, minus = dict.fromkeys(left, 1), dict.fromkeys(right, 1)
                if span.add(_vector(index, plus, minus)):
                    pairs.append((_operator(n, plus), _operator(n, minus)))
                    kept.append((j, _operator(n, plus, minus)))
                    if len(span.pivots) == full:
                        break
        if pairs:
            differences[j] = tuple(pairs)
    index = {m: t for t, m in enumerate(minimal_nonfaces(zeta, d + 1))}
    top_span = _ideal_span(kept, index, d + 1)
    powers = set()
    for k in range(1, n + 1):
        power = unit_power(n, k, d + 1)
        if power in index and top_span.add(_vector(index, {power: 1})):
            powers.add((k, d + 1))
    return GeneratorSet(n, d, frozenset(powers), nonfaces, differences)


def verify_generators(f: GradedPolynomial, gens: GeneratorSet) -> bool:
    """Degree-wise check that the generator set generates the annihilator.

    The degree-j multiples of the set's one-term generators are the unit
    vectors of U, the degree-j monomials those generators divide, and
    span(U + B) = span(U) + (B projected off U).  So for every degree j up
    to the socle degree, the catalecticant C_j must have zero columns at
    U and kill every pivot row of the other generators' span over the
    remaining monomials (the rest), and |U| plus the pivot count must be
    dim ker C_j, that is, the rest must exceed the pivots by rank C_j.  One
    degree above, the span must be the whole rest.  U is read from the
    generator set, not from the complex of ``f``, and each C_j is built
    and ranked here, so the check is independent of extraction.  A
    generator set in another number of variables than ``f`` is refused.
    """
    n, d = f.num_vars, f.degree
    if gens.num_vars != n:
        raise ValueError(f"generator set has {gens.num_vars} variables, the form {n}")
    generators = gens.polynomials()
    if any(degree == 0 for degree, _ in generators):
        return False  # a constant kills no nonzero f
    units = {m for _, poly in generators if len(poly.terms) == 1 for m in poly.terms}
    others = [(degree, poly) for degree, poly in generators if len(poly.terms) > 1]
    rest = [(0,) * n]
    for j in range(1, d + 2):
        # a monomial is in the rest when it is no unit and each of its
        # facets is, that is, when each variable it uses lowers it into
        # the rest below
        raised: dict = {}
        for m in rest:
            for k, e in enumerate(m):
                up = m[:k] + (e + 1,) + m[k + 1 :]
                raised[up] = raised.get(up, 0) + 1
        rest = [m for m, c in raised.items() if c == n - m.count(0) and m not in units]
        index = {m: t for t, m in enumerate(rest)}
        pivots = _ideal_span(others, index, j).pivots
        if j > d:
            return len(pivots) == len(rest)
        c_j = catalecticant_matrix(f, j)
        basis = enumerate_exponents(n, j)
        nonzero = [c for c in range(c_j.cols) if any(c_j.column(c))]
        at = [index.get(basis[c]) for c in nonzero]
        if None in at:
            return False  # C_j is nonzero at a column of U
        rows = [[row[c] for c in nonzero] for row in map(c_j.row, range(c_j.rows))]
        vectors = [[v[t] for t in at] for _, v in pivots]
        images = (sum(map(mul, row, v)) for v in vectors for row in rows)
        if any(images) or len(rest) - len(pivots) != rank(c_j):
            return False
