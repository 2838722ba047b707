"""Perazzo polynomials, their Hilbert vectors, and minimality sampling.

A Perazzo polynomial of degree d is bihomogeneous of bidegree (1, d-1): a sum
of x-variables each multiplied by a distinct degree-(d-1) monomial in the
u-variables.  This module builds the full case, where the u-monomials run
over the entire monomial basis, so there are tau(n, d-1) x-variables.
Variables are always ordered x-block first, then u-block, and the
u-monomial basis is the pinned lex order.

The sampling harness draws random polynomials of the matching codimension
and socle degree and compares their Hilbert vectors against the full Perazzo
one.  A strict violator (a vector coordinatewise below and not equal) would
falsify minimality; the harness makes such an event loud and reproducible
from the seed, never impossible by construction.
"""

from __future__ import annotations

import os
from collections import Counter
from itertools import compress
from typing import Optional

from .errors import DEFAULT_MATRIX_GUARD, check_guard
from .linalg import rank
from .monomials import enumerate_exponents, monomial_count, unit_power
from .parsing import format_monomial
from .polynomials import (
    GradedPolynomial,
    HilbertOrder,
    catalecticant_matrix,
    coefficient_one_poly,
    compare_hilbert,
    hilbert_vector,
    is_standard,
)
from .rng import coin_of, nonzero_of, substream
from .values import Record

RESAMPLE_CAP = 50


def build_full_perazzo(n: int, d: int) -> GradedPolynomial:
    """Coefficient-one full Perazzo polynomial in x-block-then-u-block
    variables: the i-th x-variable times the i-th degree-(d-1) u-monomial,
    summed over the whole u-basis.  The terms are homogeneous and distinct
    by construction, so it is built without :func:`graded_polynomial`."""
    if n < 2 or d < 2:
        raise ValueError("need n >= 2 and d >= 2")
    monomials = enumerate_exponents(n, d - 1)
    p = len(monomials)
    terms = {unit_power(p, i + 1, 1) + m: 1 for i, m in enumerate(monomials)}
    return GradedPolynomial(p + n, d, terms)


def is_bihomogeneous(f: GradedPolynomial, x_count: int) -> Optional[tuple[int, int]]:
    """Bidegree of ``f`` under the prefix split into ``x_count`` x-variables
    and the remaining u-variables, or ``None`` when terms disagree."""
    if not 0 <= x_count <= f.num_vars:
        raise ValueError("split out of range")
    bidegrees = {
        (sum(e[:x_count]), sum(e[x_count:])) for e in f.terms
    }
    if len(bidegrees) == 1:
        return bidegrees.pop()
    return None


def full_perazzo_hilbert(
    n: int,
    d: int,
    max_dim: int = DEFAULT_MATRIX_GUARD,
) -> tuple[int, ...]:
    if n < 2 or d < 2:
        raise ValueError("need n >= 2 and d >= 2")
    num_vars = n + monomial_count(n, d - 1)
    # the largest catalecticant side is the degree-d basis (C_0 and C_d)
    size = monomial_count(num_vars, d)
    check_guard("catalecticant dimension", size, max_dim, "--max-dim / max_dim")
    return hilbert_vector(build_full_perazzo(n, d))


class Degree2Census(Record):
    """Classification of a canonical degree-2 annihilator basis.

    Greedy and deterministic: first every annihilating monomial, then
    independent sign-pattern binomials, the remainder is "other"; the three
    counts always add up to the full degree-2 annihilator dimension, which
    is the operator count minus ``h2``, the rank of C_2.
    """

    _fields = ("monomial_count", "binomial_count", "other_count", "total_dim", "h2")
    __slots__ = _fields

    def __init__(self, monomial_count, binomial_count, other_count, total_dim, h2):
        self._set(monomial_count, binomial_count, other_count, total_dim, h2)


def degree2_census(f: GradedPolynomial) -> Degree2Census:
    """Count monomial, binomial and leftover generators of the degree-2
    annihilator slice.

    The image of a quadratic monomial is its column of the catalecticant
    C_2.  Monomials annihilating ``f`` (zero columns) are independent basis
    vectors; binomials (+1/-1 differences of distinct non-annihilating
    monomials with equal image) contribute one less than each equal-column
    class size; whatever dimension remains is classified as other.
    """
    if f.degree < 2:
        raise ValueError("degree-2 census needs socle degree at least 2")
    c_2 = catalecticant_matrix(f, 2)
    columns = map(c_2.column, range(c_2.cols))
    images = Counter(column for column in columns if any(column))
    killed = c_2.cols - sum(images.values())
    binomials = sum(size - 1 for size in images.values())
    h2 = rank(c_2)
    total = c_2.cols - h2
    return Degree2Census(killed, binomials, total - killed - binomials, total, h2)


def _draw_polynomial(rng, basis, num_vars: int) -> Optional[GradedPolynomial]:
    """One sampling attempt: each basis monomial kept with probability 1/2
    (one coin per monomial, in lex order), then uniform nonzero ``int``
    coefficients in [-9, 9] over the chosen support (again in lex order).
    The draw is homogeneous of the basis degree, nonzero and duplicate-free
    by construction, so it is built without :func:`graded_polynomial`."""
    support = list(compress(basis, map(coin_of, rng.take(len(basis)))))
    if not support:
        return None
    terms = dict(zip(support, map(nonzero_of, rng.take(len(support)))))
    return GradedPolynomial(num_vars, sum(basis[0]), terms)


def _standard_draw(seed: int, trial: int, basis, num_vars: int) -> Optional[GradedPolynomial]:
    rng = substream(seed, trial)
    for _ in range(RESAMPLE_CAP):
        f = _draw_polynomial(rng, basis, num_vars)
        if f is not None and is_standard(f):
            return f
    return None


def _dominated_draw(h, terms) -> dict:
    """The record of a draw whose Hilbert vector ``h`` lies strictly below the
    vector it was compared with: ``h`` and the draw's coefficients."""
    return {
        "hilbert": list(h),
        "coefficients": [
            [format_monomial(e), str(c)] for e, c in sorted(terms.items())
        ],
    }


def _conjecture_trial(args) -> dict:
    seed, trial, num_vars, d, reference = args
    basis = enumerate_exponents(num_vars, d)
    f = _standard_draw(seed, trial, basis, num_vars)
    if f is None:
        return {"trial": trial, "verdict": "SKIPPED"}
    # capped one past the reference: the verdict and a violator's vector stay exact
    h = hilbert_vector(f, [r + 1 for r in reference])
    verdict = compare_hilbert(h, reference)
    out = {"trial": trial, "verdict": verdict.value}
    if verdict is HilbertOrder.LESS_EQ:
        out["violator"] = _dominated_draw(h, f.terms)
    return out


def worker_count(jobs: int, trials: int, cpus: int | None) -> int:
    """``min(jobs, cpus, trials)`` workers, at least 1; ``jobs`` below 1 is refused."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    return max(1, min(jobs, cpus or 1, trials))


def conjecture_sample_check(
    n: int,
    d: int,
    trials: int,
    seed: int,
    jobs: int = 1,
    max_dim: int = DEFAULT_MATRIX_GUARD,
) -> dict:
    """Randomized minimality stress test for the full Perazzo Hilbert vector.

    Draws standard polynomials of the matching codimension and socle degree
    and tallies their Hilbert vectors against the full Perazzo one.  The
    report is a stable JSON-ready dict: byte-identical for identical inputs,
    regardless of ``jobs``, which :func:`worker_count` bounds.
    """
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    workers = worker_count(jobs, trials, os.cpu_count())
    reference = full_perazzo_hilbert(n, d, max_dim=max_dim)
    num_vars = n + monomial_count(n, d - 1)
    work = [(seed, t, num_vars, d, reference) for t in range(trials)]
    if workers > 1:
        # imported here: the pool's modules are ~30% of a serial command's start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_conjecture_trial, work, chunksize=16))
    else:
        results = [_conjecture_trial(w) for w in work]
    tallies = {order.value: 0 for order in HilbertOrder}
    skipped = 0
    violators = []
    for result in results:
        if result["verdict"] == "SKIPPED":
            skipped += 1
            continue
        tallies[result["verdict"]] += 1
        if "violator" in result:
            violators.append({"trial": result["trial"], **result["violator"]})
    return {
        "n": n,
        "d": d,
        "codimension": num_vars,
        "socle_degree": d,
        "seed": seed,
        "trials": trials,
        "skipped_trials": skipped,
        "hilbert_full_perazzo": list(reference),
        "tallies": tallies,
        "violators": violators,
    }


def coefficient_one_minimality_check(
    support,
    num_vars: int,
    trials: int,
    seed: int,
) -> dict:
    """Compare the coefficient-one Hilbert vector on a support against random
    nonzero coefficient assignments on the same support.

    The coefficient-one vector should never dominate a random one.  A
    counterexample is a draw whose vector is strictly below it (verdict
    ``GREATER_EQ``, the same rule as the conjecture harness's violators) and
    is reported with full reproduction data; an ``INCOMPARABLE`` draw is
    recorded in ``verdicts`` only.  Coefficients are
    drawn like the conjecture harness: uniform nonzero integers in [-9, 9],
    one per support monomial in lex order, from the per-trial substream.
    """
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    support = sorted(tuple(m) for m in support)
    if not support:
        raise ValueError("empty support")
    ones = coefficient_one_poly(num_vars, support)
    h_ones = hilbert_vector(ones)
    caps = [h + 1 for h in h_ones]
    verdicts = []
    counterexamples = []
    for trial in range(trials):
        rng = substream(seed, trial)
        terms = dict(zip(support, map(nonzero_of, rng.take(len(support)))))
        h_random = hilbert_vector(GradedPolynomial(num_vars, ones.degree, terms), caps)
        verdict = compare_hilbert(h_ones, h_random)
        verdicts.append(verdict.value)
        if verdict is HilbertOrder.GREATER_EQ:
            counterexamples.append({"trial": trial, **_dominated_draw(h_random, terms)})
    return {
        "support": [format_monomial(m) for m in support],
        "num_vars": num_vars,
        "standard": h_ones[1:2] == (num_vars,),
        "hilbert_ones": list(h_ones),
        "seed": seed,
        "trials": trials,
        "verdicts": verdicts,
        "counterexamples": counterexamples,
    }
