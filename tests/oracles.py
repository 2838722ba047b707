"""Independent brute-force oracles.

These deliberately avoid the library's elimination and catalecticant code
paths: plain first-nonzero-pivot row reduction and direct dictionary
contraction, so golden values checked against them are genuinely
double-computed.
"""

from fractions import Fraction
from itertools import product
from math import comb, factorial

from apolar.monomials import enumerate_exponents


def row_reduce_rank(rows):
    """Textbook forward elimination over the rationals."""
    rows = [[Fraction(x) for x in row] for row in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                factor = rows[i][col] / pv
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _rref(rows, ncols):
    """Textbook Gauss-Jordan over the rationals: the nonzero rows of the
    reduced row echelon form and their pivot columns."""
    rows = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(ncols):
        top = len(pivots)
        pivot = next((i for i in range(top, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[top], rows[pivot] = rows[pivot], rows[top]
        rows[top] = [x / rows[top][col] for x in rows[top]]
        for i, row in enumerate(rows):
            if i != top and row[col]:
                rows[i] = [a - row[col] * b for a, b in zip(row, rows[top])]
        pivots.append(col)
    return rows[: len(pivots)], pivots


def nullspace_rref(rows, ncols):
    """Canonical basis of the right null space: one vector per free column
    of the RREF, then those vectors brought to their own RREF."""
    reduced, pivots = _rref(rows, ncols)
    basis = []
    for free in range(ncols):
        if free not in pivots:
            v = [Fraction(0)] * ncols
            v[free] = Fraction(1)
            for row, col in zip(reduced, pivots):
                v[col] = -row[free]
            basis.append(v)
    return [tuple(v) for v in _rref(basis, ncols)[0]]


def contract_dual(op_exps, terms):
    """Dual-basis contraction of a term dict by a single operator monomial."""
    out = {}
    for b, coeff in terms.items():
        if all(o <= e for o, e in zip(op_exps, b)):
            r = tuple(e - o for o, e in zip(op_exps, b))
            out[r] = out.get(r, Fraction(0)) + Fraction(coeff)
    return {k: v for k, v in out.items() if v}


def catalecticant_by_lookup(num_vars, terms, j, differentiate=False):
    """Rows of the degree-j catalecticant read entry by entry: entry (r, c)
    is the coefficient of x^(r+c), times prod (r+c)_i! / r_i! when
    differentiating.  Rows run over the degree-(d-j) basis, columns over the
    degree-j basis."""
    degree = sum(next(iter(terms)))
    out = []
    for r in enumerate_exponents(num_vars, degree - j):
        row = []
        for c in enumerate_exponents(num_vars, j):
            b = tuple(x + y for x, y in zip(r, c))
            value = Fraction(terms.get(b, 0))
            if differentiate:
                for bi, ri in zip(b, r):
                    value *= Fraction(factorial(bi), factorial(ri))
            row.append(value)
        out.append(row)
    return out


def hilbert_via_pairing(num_vars, terms):
    """Hilbert vector computed by contracting every basis operator and row
    reducing, degree by degree."""
    degree = sum(next(iter(terms)))
    out = []
    for j in range(degree + 1):
        target = enumerate_exponents(num_vars, degree - j)
        index = {m: t for t, m in enumerate(target)}
        rows = []
        for op in enumerate_exponents(num_vars, j):
            image = contract_dual(op, terms)
            vec = [Fraction(0)] * len(target)
            for e, c in image.items():
                vec[index[e]] = c
            rows.append(vec)
        out.append(row_reduce_rank(rows))
    return tuple(out)


def divisor_set(exps):
    """All divisors of degree >= 1, by direct product enumeration."""
    return {
        d for d in product(*(range(e + 1) for e in exps)) if sum(d) >= 1
    }


def lower_at(vec, k):
    """The exponent shift of the partial derivative by the ``k``-th variable
    (1-based): ``vec - e_k``, or None where the ``k``-th exponent is zero."""
    if not 1 <= k <= len(vec):
        raise ValueError(f"variable index {k} out of range 1..{len(vec)}")
    if vec[k - 1] == 0:
        return None
    return vec[: k - 1] + (vec[k - 1] - 1,) + vec[k:]


def lower_last(vec):
    """Lower the last positive exponent by one."""
    return lower_at(vec, max(k for k, e in enumerate(vec, 1) if e))


def lex_min_preimage(vec):
    """The lift: the lex-smallest vector of one higher degree that
    :func:`lower_last` sends to ``vec``, by search over the whole degree."""
    higher = enumerate_exponents(len(vec), sum(vec) + 1)
    return min(up for up in higher if lower_last(up) == vec)


def full_perazzo_reference(n, d):
    """The closed form h_0 = h_d = 1, h_k = tau(n, k) + tau(n, d - k) for
    0 < k < d, with tau(n, k) = C(n + k - 1, k)."""
    tau = [comb(n + k - 1, k) for k in range(d + 1)]
    return tuple(1 if k in (0, d) else tau[k] + tau[d - k] for k in range(d + 1))


def family_dimension(support):
    """Dimension of the GL-saturated family on a support S of degree-d
    monomials: rank(span{x_i d_j f} + span S) - 1, where f is the sum of
    the monomials of S and i, j run over all variables.  Differentiates
    and ranks here, with nothing from the library."""
    n = len(support[0])
    vectors = [{s: 1} for s in support]
    for i, j in product(range(n), repeat=2):
        image = {}
        for s in support:
            if s[j]:
                m = tuple(e + (k == i) - (k == j) for k, e in enumerate(s))
                image[m] = image.get(m, 0) + s[j]
        vectors.append(image)
    monomials = sorted(set().union(*vectors))
    return row_reduce_rank([[v.get(m, 0) for m in monomials] for v in vectors]) - 1


def projection_images(n, d):
    """The column images of the two projection maps between ambient Perazzo
    spaces, evaluated vector by vector as their docstrings state them.

    x-variable t is paired with the t-th degree-(d-1) u-monomial.  Returns
    ``(u_elimination, degree_step)``; the second is None when d < 3.
    """
    pairing = enumerate_exponents(n, d - 1)
    p = len(pairing)
    divisible = [t for t in range(p) if pairing[t][-1] > 0]
    source = enumerate_exponents(p + n, d)

    # eliminate the last u-variable: a monomial dies when u_n divides it or
    # one of its x-variables is paired with a monomial that u_n divides;
    # a survivor drops those (zero) x-coordinates and its u_n coordinate
    target = enumerate_exponents(p - len(divisible) + n - 1, d)
    position = {vec: i for i, vec in enumerate(target)}
    elimination = []
    for vec in source:
        x, u = vec[:p], vec[p:]
        if u[-1] > 0 or any(x[t] > 0 for t in divisible):
            elimination.append(None)
            continue
        kept = tuple(x[t] for t in range(p) if t not in divisible)
        elimination.append(position[kept + u[:-1]])
    if d < 3:
        return tuple(elimination), None

    # lower the degree: a monomial survives when it is one x-variable paired
    # with a monomial that u_n divides, times a degree-(d-1) u-monomial that
    # u_n divides; the x-variable is re-indexed by its rank among those paired
    # with a u_n-divisible monomial, and the last u-exponent drops by one
    target = enumerate_exponents(len(divisible) + n, d - 1)
    position = {vec: i for i, vec in enumerate(target)}
    step = []
    for vec in source:
        x, u = vec[:p], vec[p:]
        t = x.index(1) if sum(x) == 1 else None  # the one x-variable, if any
        if t not in divisible or u[-1] == 0:
            step.append(None)
            continue
        new_x = [0] * len(divisible)
        new_x[divisible.index(t)] = 1
        step.append(position[tuple(new_x) + lower_last(u)])
    return tuple(elimination), tuple(step)


def missing_annihilator_dimensions(num_vars, terms, generators):
    """How many dimensions of each degree-j slice of the annihilator, j = 1
    .. d+1, the degree-j monomial multiples of ``generators`` (pairs of a
    degree and a term dict) fail to span: dim ker C_j, from the textbook
    rank of the looked-up catalecticant (the whole space above d), minus the
    textbook rank of the multiples.  Degrees that miss nothing are left out."""
    degree = sum(next(iter(terms)))
    missing = {}
    for j in range(1, degree + 2):
        basis = enumerate_exponents(num_vars, j)
        index = {m: t for t, m in enumerate(basis)}
        multiples = []
        for k, op in generators:
            for m in enumerate_exponents(num_vars, j - k) if k <= j else ():
                row = [0] * len(basis)
                for e, c in op.items():
                    row[index[tuple(a + b for a, b in zip(e, m))]] = c
                multiples.append(row)
        kernel = len(basis)
        if j <= degree:
            kernel -= row_reduce_rank(catalecticant_by_lookup(num_vars, terms, j))
        gap = kernel - row_reduce_rank(multiples)
        if gap:
            missing[j] = gap
    return missing
