from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apolar.linalg import Echelon, RationalMatrix, kernel_basis, rank
from apolar.monomials import enumerate_exponents
from apolar.polynomials import GradedPolynomial, annihilator_basis
from apolar.rng import substream

from oracles import nullspace_rref, row_reduce_rank


def _from_rows(data):
    return RationalMatrix(len(data), len(data[0]), tuple(x for row in data for x in row))


def _rows(m):
    return [list(m.row(i)) for i in range(m.rows)]


def test_rank_identity():
    m = _from_rows([[1, 0], [0, 1]])
    assert rank(m) == 2


def test_rank_zero_matrix():
    m = RationalMatrix(3, 4, (0,) * 12)
    assert rank(m) == 0


def test_rank_proportional_rows():
    m = _from_rows([[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]])
    assert rank(m) == 1


# rank eliminates the longer side and stops at min(rows, cols) pivots; these
# cases sit at the edges of that stop
_EARLY_STOP_CASES = {
    # wide: columns 1 and 2 are multiples of column 0, the rest independent
    "wide_dependent_leading_columns": [[1, 2, -3, 0, 5, 1], [2, 4, -6, 1, 0, 1]],
    # tall: full column rank after two rows, then nonzero rows that are
    # dependent on them and would change nothing
    "tall_full_rank_before_trailing_rows": [[1, 0], [0, 1], [3, 4], [Fraction(1, 2), 7], [5, -6]],
    # the second pivot arrives on the last row
    "tall_full_rank_on_last_row": [[1, 2], [2, 4], [-3, -6], [0, 5]],
    # the second pivot arrives on the last column
    "wide_full_rank_on_last_column": [[1, 2, 3, 0], [2, 4, 6, Fraction(1, 3)]],
    # never full rank: every line is reduced
    "square_rank_deficient": [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
}


@pytest.mark.parametrize("case", sorted(_EARLY_STOP_CASES))
def test_rank_early_stop_edges_agree_with_the_oracle(case):
    data = _EARLY_STOP_CASES[case]
    assert rank(_from_rows(data)) == row_reduce_rank(data)
    transposed = [list(col) for col in zip(*data)]
    assert rank(_from_rows(transposed)) == row_reduce_rank(transposed)


@pytest.mark.parametrize("rows, cols", [(0, 0), (0, 4), (4, 0)])
def test_rank_of_empty_matrices(rows, cols):
    data = [[] for _ in range(rows)]
    assert rank(RationalMatrix(rows, cols, ())) == row_reduce_rank(data) == 0


@pytest.mark.parametrize("transpose", [False, True])
def test_rank_stops_after_the_shorter_side_on_full_rank(monkeypatch, transpose):
    calls = []
    add = Echelon.add

    def counting_add(self, row):
        calls.append(len(row))
        return add(self, row)

    monkeypatch.setattr(Echelon, "add", counting_add)
    data = [[1, 0, 0], [0, 2, 0], [0, 0, 3]] + [[k, k + 1, k + 2] for k in range(20)]
    if transpose:
        data = [list(col) for col in zip(*data)]
    assert rank(_from_rows(data)) == 3 == row_reduce_rank(data)
    # a tall matrix gives its rows, a wide one its columns: 3 lines of 3
    assert calls == [3, 3, 3]


# tall, wide and rank-deficient matrices, each also transposed
_CAP_CASES = {
    **_EARLY_STOP_CASES,
    "tall_rank_deficient": [[1, 2, 0], [2, 4, 0], [0, 0, 0], [3, 6, 0], [1, 2, 0]],
    "wide_full_rank": [[1, 0, 2, 0, Fraction(1, 3)], [0, 1, 0, 5, 1], [2, 2, 1, 0, 0]],
}


@pytest.mark.parametrize("case", sorted(_CAP_CASES))
def test_capped_rank_is_the_smaller_of_rank_and_cap(case):
    data = _CAP_CASES[case]
    for lines in (data, [list(col) for col in zip(*data)]):
        m = _from_rows(lines)
        # from 0 to two past min(rows, cols), where the cap cannot bite
        for at_most in range(min(m.rows, m.cols) + 3):
            assert rank(m, at_most) == min(row_reduce_rank(lines), at_most)


def test_capped_rank_stops_at_the_cap(monkeypatch):
    calls = []
    add = Echelon.add

    def counting_add(self, row):
        calls.append(len(row))
        return add(self, row)

    monkeypatch.setattr(Echelon, "add", counting_add)
    m = _from_rows([[int(i == j) + i * j for j in range(6)] for i in range(6)])
    assert rank(m) == 6
    for at_most in range(7):
        calls.clear()
        assert rank(m, at_most) == at_most
        assert len(calls) == at_most


@pytest.mark.parametrize("transpose", [False, True])
def test_rank_adds_only_nonzero_lines(monkeypatch, transpose):
    calls = []
    add = Echelon.add

    def counting_add(self, row):
        calls.append(tuple(row))
        return add(self, row)

    monkeypatch.setattr(Echelon, "add", counting_add)
    # 1 x 40 with its only nonzero entry last, or 40 x 1 with it in the last row
    data = [[0] * 39 + [7]]
    if transpose:
        data = [list(col) for col in zip(*data)]
    assert rank(_from_rows(data)) == 1
    assert calls == [(7,)]
    calls.clear()
    assert rank(_from_rows([[0] * 5] * 3 if transpose else [[0] * 3] * 5)) == 0
    assert calls == []


def test_rank_refuses_a_negative_cap():
    with pytest.raises(ValueError, match="rank cap must be nonnegative, got -1"):
        rank(_from_rows([[1, 0], [0, 1]]), -1)


def test_kernel_identity_empty():
    m = _from_rows([[1, 0], [0, 1]])
    assert kernel_basis(m) == []


def test_kernel_single_relation_canonical():
    m = _from_rows([[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]])
    assert kernel_basis(m) == [(Fraction(1), Fraction(-1))]


def test_kernel_coordinate_case():
    m = _from_rows([[Fraction(1), Fraction(0), Fraction(0)]])
    assert kernel_basis(m) == [
        (Fraction(0), Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1)),
    ]


def test_kernel_of_zero_row_matrix_is_standard_basis():
    m = RationalMatrix(0, 3, ())
    basis = kernel_basis(m)
    assert len(basis) == 3
    for i, v in enumerate(basis):
        assert v[i] == 1 and sum(map(abs, v)) == 1
    assert rank(m) == 0


def test_degenerate_no_columns():
    m = RationalMatrix(2, 0, ())
    assert rank(m) == 0
    assert kernel_basis(m) == []


def _random_matrix(rng, rows, cols):
    return _from_rows(
        [
            [Fraction(rng.nonzero_int(5)) if rng.coin() else 0 for _ in range(cols)]
            for _ in range(rows)
        ]
    )


@pytest.mark.parametrize("trial", range(40))
def test_rank_plus_kernel_equals_cols(trial):
    rng = substream(1001, trial)
    m = _random_matrix(rng, 1 + rng.below(6), 1 + rng.below(6))
    assert rank(m) + len(kernel_basis(m)) == m.cols


@pytest.mark.parametrize("trial", range(40))
def test_kernel_vectors_annihilate_exactly(trial):
    rng = substream(1002, trial)
    m = _random_matrix(rng, 1 + rng.below(6), 1 + rng.below(6))
    for v in kernel_basis(m):
        assert len(v) == m.cols
        for i in range(m.rows):
            assert sum(x * y for x, y in zip(m.row(i), v)) == 0


@pytest.mark.parametrize("trial", range(30))
def test_rank_invariant_under_row_transforms(trial):
    rng = substream(1003, trial)
    m = _random_matrix(rng, 2 + rng.below(5), 2 + rng.below(5))
    rows = _rows(m)
    # random row permutation plus nonzero row scalings
    order = list(range(len(rows)))
    for i in range(len(order) - 1, 0, -1):
        j = rng.below(i + 1)
        order[i], order[j] = order[j], order[i]
    scale = [Fraction(rng.nonzero_int(7), 1 + rng.below(5)) for _ in rows]
    transformed = _from_rows(
        [[scale[i] * x for x in rows[order[i]]] for i in range(len(rows))]
    )
    assert rank(transformed) == rank(m)


@pytest.mark.parametrize("trial", range(30))
def test_rank_matches_independent_row_reduction(trial):
    rng = substream(1004, trial)
    m = _random_matrix(rng, 1 + rng.below(7), 1 + rng.below(7))
    assert rank(m) == row_reduce_rank(_rows(m))


def test_kernel_deterministic_bit_for_bit():
    rng = substream(1005, 0)
    m = _random_matrix(rng, 5, 7)
    assert kernel_basis(m) == kernel_basis(m)


def test_entry_count_validation():
    with pytest.raises(ValueError):
        RationalMatrix(2, 2, (Fraction(1),))


def test_matrix_keeps_a_copy_of_its_entries():
    entries = [1, 0, 0, 1]
    m = RationalMatrix(2, 2, entries)
    entries[3] = 0
    assert m.entries == (1, 0, 0, 1)
    assert rank(m) == 2
    assert hash(m) == hash(RationalMatrix(2, 2, (1, 0, 0, 1)))


# The canonical kernels pinned above, for the same matrices given with int
# entries, with int and Fraction entries mixed, and with non-integral
# entries (each row scaled by a nonzero rational).
_PINNED_KERNELS = [
    (
        (2, 2, (1, 1, 2, 2)),
        (2, 2, (1, Fraction(1), 2, Fraction(2))),
        (2, 2, (Fraction(1, 3), Fraction(1, 3), Fraction(-2, 5), Fraction(-2, 5))),
        [(Fraction(1), Fraction(-1))],
    ),
    (
        (1, 3, (1, 0, 0)),
        (1, 3, (Fraction(1), 0, Fraction(0))),
        (1, 3, (Fraction(7, 2), 0, 0)),
        [
            (Fraction(0), Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(0), Fraction(1)),
        ],
    ),
]


@pytest.mark.parametrize("case", range(len(_PINNED_KERNELS)))
def test_kernel_is_exact_for_int_mixed_and_fractional_entries(case):
    *shapes, expected = _PINNED_KERNELS[case]
    for rows, cols, entries in shapes:
        basis = kernel_basis(RationalMatrix(rows, cols, entries))
        assert basis == expected
        assert all(type(x) is Fraction for v in basis for x in v)


def test_annihilator_basis_is_exact_for_int_mixed_and_fractional_coefficients():
    # x1^2 + x1*x2 in degree 2: the canonical basis of span{X2^2, X1^2 - X1*X2}
    # over the lex basis (X2^2, X1*X2, X1^2)
    expected = [{(0, 2): 1}, {(1, 1): 1, (2, 0): -1}]
    for terms in (
        {(2, 0): 1, (1, 1): 1},
        {(2, 0): 1, (1, 1): Fraction(1)},
        {(2, 0): Fraction(-3, 4), (1, 1): Fraction(-3, 4)},
    ):
        f = GradedPolynomial(2, 2, terms)
        basis = annihilator_basis(f, 2)
        assert [op.terms for op in basis] == expected
        assert all(type(c) is Fraction for op in basis for c in op.terms.values())


_entries = st.one_of(
    st.just(0),
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 8)),
)


@st.composite
def _matrices(draw):
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    data = [[draw(_entries) for _ in range(cols)] for _ in range(rows)]
    # sometimes a dependent row, a zero row and a zero column
    if rows > 2 and draw(st.booleans()):
        a, b = draw(_entries), draw(_entries)
        data[-1] = [a * x + b * y for x, y in zip(data[0], data[1])]
    if rows and cols and draw(st.booleans()):
        data[draw(st.integers(0, rows - 1))] = [0] * cols
    if rows and cols and draw(st.booleans()):
        zero_col = draw(st.integers(0, cols - 1))
        for row in data:
            row[zero_col] = 0
    return data


@settings(max_examples=300, deadline=None)
@given(_matrices())
# the pivots arrive out of column order: columns 1, 0, 2
@example([[0, 1, 0], [2, -1, -1], [1, 0, 0]])
def test_rank_agrees_with_the_oracle(data):
    cols = len(data[0]) if data else 0
    m = RationalMatrix(len(data), cols, tuple(x for row in data for x in row))
    assert rank(m) == row_reduce_rank(data)
    assert rank(m) + len(kernel_basis(m)) == cols


@settings(max_examples=200, deadline=None)
@given(_matrices(), st.integers(0, 8))
def test_capped_rank_agrees_with_the_oracle(data, at_most):
    cols = len(data[0]) if data else 0
    m = RationalMatrix(len(data), cols, tuple(x for row in data for x in row))
    assert rank(m, at_most) == min(row_reduce_rank(data), at_most)


@settings(max_examples=300, deadline=None)
@given(_matrices())
# kernel_basis eliminates the column-reversed rows; in these the pivots
# arrive out of column order: columns 2, 0, and columns 2, 0, 1
@example([[1, 0, 0], [0, 0, 1]])
@example([[3, 0, 0], [0, 0, 2], [1, 1, 1]])
# the second reversed row is zero in the first pivot column, whose pivot 2
# differs from the previous pivot 1: unless that row is scaled by 2 / 1, the
# Gauss-Jordan step that divides by 2 is inexact
@example([[1, 2, 0], [0, 0, 1]])
# the third reversed row skips the last pivot 1 after a step by pivot 3: its
# scale is 1 / 3, which is no integer factor
@example([[-1, -1, 3], [0, 0, 1], [0, -1, 3]])
def test_kernel_basis_agrees_with_the_oracle(data):
    cols = len(data[0]) if data else 0
    m = RationalMatrix(len(data), cols, tuple(x for row in data for x in row))
    assert kernel_basis(m) == nullspace_rref(data, cols)


_nonzero = st.one_of(
    st.integers(-6, 6).filter(bool),
    st.builds(Fraction, st.integers(1, 9) | st.integers(-9, -1), st.integers(1, 8)),
)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_span_dimension_and_membership_agree_with_the_oracle(data):
    n, j = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    basis = enumerate_exponents(n, j)
    operator_terms = st.dictionaries(st.sampled_from(basis), _nonzero, min_size=1)
    polys = [
        GradedPolynomial(n, j, terms)
        for terms in data.draw(st.lists(operator_terms, max_size=8))
    ]

    def vector(poly):
        return [poly.terms.get(m, 0) for m in basis]

    if len(polys) > 1 and data.draw(st.booleans()):
        # a combination of two inserted operators, zero included
        a, b = data.draw(_nonzero), data.draw(_nonzero)
        combo = [a * x + b * y for x, y in zip(vector(polys[0]), vector(polys[-1]))]
        candidate = GradedPolynomial(
            n, j, {m: c for m, c in zip(basis, combo) if c}
        )
    else:
        candidate = GradedPolynomial(n, j, data.draw(operator_terms))

    span = Echelon()
    for poly in polys:
        span.add(vector(poly))
    stacked = [vector(p) for p in polys]
    assert len(span.pivots) == row_reduce_rank(stacked)
    inside = row_reduce_rank(stacked + [vector(candidate)]) == len(span.pivots)
    assert (not any(span.reduce(vector(candidate)))) == inside
    assert span.add(vector(candidate)) == (not inside)
