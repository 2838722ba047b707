"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (visible with
``pytest -s`` or in failure output) and then asserts.  Golden values are
exact; timed criteria assert their stated wall-clock budgets.
"""

import itertools
import json
import time

import apolar as ap
from apolar.generators import GeneratorSet
from apolar.monomials import iter_exponents
from apolar.rng import substream

from oracles import divisor_set, hilbert_via_pairing
from sampling import random_coefficient_one_standard, random_standard_polynomial

SEED_SYMMETRY = 52001
SEED_COMPLETENESS = 52002
SEED_MINIMALITY = 52003
SEED_CONJECTURE_24 = 52004
SEED_CONJECTURE_23 = 52005


def _report(criterion: int, ok: bool, detail: str = "") -> None:
    line = f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" - {detail}"
    print(line)
    assert ok, line


def test_criterion_01_quadric_annihilator():
    start = time.monotonic()
    f = ap.graded_polynomial(2, {(2, 0): 1, (1, 1): 1})
    basis = ap.annihilator_basis(f, 2)
    expected = [
        ap.graded_polynomial(2, {(0, 2): 1}),
        ap.graded_polynomial(2, {(2, 0): 1, (1, 1): -1}),
    ]
    spans_match = len(basis) == 2 and all(
        ap.contract(v, f).is_zero() for v in expected
    )
    # same 2-dimensional space: expected vectors annihilate, dimension pins it
    published = GeneratorSet(
        2,
        2,
        frozenset({(1, 3)}),
        {2: frozenset({(0, 2)})},
        {2: ((ap.monomial_poly(2, (2, 0)), ap.monomial_poly(2, (1, 1))),)},
    )
    verified = ap.verify_generators(f, published)
    elapsed = time.monotonic() - start
    _report(
        1,
        spans_match and verified and elapsed < 1.0,
        f"span ok={spans_match}, published ideal verified={verified}, {elapsed:.3f}s",
    )


def test_criterion_02_symmetric_cubic_memberships():
    start = time.monotonic()
    support = [
        tuple(1 if i in c else 0 for i in range(4))
        for c in itertools.combinations(range(4), 3)
    ]
    f = ap.coefficient_one_poly(4, support)

    def pair(i, j):
        out = [0, 0, 0, 0]
        out[i] += 1
        out[j] += 1
        return tuple(out)

    ok = True
    for i, j, k, l in itertools.permutations(range(4)):
        member = ap.graded_polynomial(
            4, {pair(i, j): 1, pair(k, l): 1, pair(i, l): -1, pair(j, k): -1}
        )
        ok = ok and ap.contract(member, f).is_zero()
    for i, j, k in itertools.permutations(range(4), 3):
        non_member = ap.graded_polynomial(4, {pair(i, j): 1, pair(j, k): -1})
        ok = ok and not ap.contract(non_member, f).is_zero()
    elapsed = time.monotonic() - start
    _report(2, ok and elapsed < 1.0, f"{elapsed:.3f}s")


def test_criterion_03_square_difference_membership():
    f = ap.coefficient_one_poly(2, [(3, 0), (2, 1), (1, 2), (0, 3)])
    member = ap.graded_polynomial(2, {(2, 0): 1, (0, 2): -1})
    _report(3, ap.contract(member, f).is_zero())


def test_criterion_04_power_chain_skeletons():
    ok = True
    for d in range(1, 11):
        zeta = ap.divisor_closure([(d,)], 1)
        for k in range(d):
            ok = ok and ap.skeleton_count(zeta, k) == k + 1
    _report(4, ok)


def test_criterion_05_gorenstein_symmetry_200():
    start = time.monotonic()
    dims = [(1, 3), (2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4), (3, 5)]
    ok = True
    for t in range(200):
        rng = substream(SEED_SYMMETRY, t)
        n, d = dims[t % len(dims)]
        h = ap.hilbert_vector(random_standard_polynomial(rng, n, d))
        ok = ok and h == tuple(reversed(h))
    elapsed = time.monotonic() - start
    _report(5, ok and elapsed < 60.0, f"200 draws, {elapsed:.1f}s")


def test_criterion_06_subcomplex_equals_divisibility():
    monomials = [m for d in range(1, 5) for m in ap.enumerate_exponents(3, d)]
    ok = all(
        ap.is_subcomplex(g, h) == (divisor_set(g) <= divisor_set(h))
        for g in monomials
        for h in monomials
    )
    _report(6, ok, f"{len(monomials) ** 2} pairs")


def _completeness_samples():
    dims = [(1, 3), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (1, 4)]
    out = []
    for t in range(50):
        rng = substream(SEED_COMPLETENESS, t)
        n, d = dims[t % len(dims)]
        out.append(random_coefficient_one_standard(rng, n, d))
    return out


def test_criterion_07_generator_completeness_50():
    start = time.monotonic()
    ok = True
    for f in _completeness_samples():
        ok = ok and ap.verify_generators(f, ap.extract_generators(f))
    elapsed = time.monotonic() - start
    _report(7, ok and elapsed < 120.0, f"50 draws, {elapsed:.1f}s")


# The support and the violating draw that README quotes (x1^4, x1^2*x2^2,
# x1*x2^3, x2^4 with coefficients 3, 3, -3, 6).
README_COUNTEREXAMPLE = {(4, 0): 3, (2, 2): 3, (1, 3): -3, (0, 4): 6}


def test_criterion_08_coefficient_one_minimality():
    # The sampled claim -- the coefficient-one form has the least Hilbert
    # vector among all nonzero coefficient assignments on its support -- is
    # false.  On {x1^4, x1^2*x2^2, x1*x2^3, x2^4} the coefficient-one C_2 has
    # determinant -1, so the vector is (1,2,3,2,1), while the draw 3,3,-3,6
    # gives a singular C_2 and (1,2,2,2,1); the trinomial X2^2+X1*X2-X1^2
    # annihilates only the latter (pinned in
    # tests/test_generators.py::test_coefficient_one_hilbert_not_always_minimal).
    # This criterion therefore guards the harness's report of the refutation:
    # every verdict and every counterexample is recomputed from the documented
    # draw contract with the independent pairing oracle, and README's
    # counterexample must be among the violations.  A counterexample is a
    # draw strictly below the coefficient-one vector (GREATER_EQ).
    dims = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)]
    mismatches = []
    violations = []
    readme_found = False
    for t in range(20):
        n, d = dims[t % len(dims)]
        f = random_coefficient_one_standard(substream(SEED_MINIMALITY, t), n, d)
        seed = SEED_MINIMALITY + 1000 + t
        report = ap.coefficient_one_minimality_check(
            f.support(), n, trials=20, seed=seed
        )
        support = sorted(f.support())
        names = [ap.format_monomial(m) for m in support]
        h_ones = hilbert_via_pairing(n, {m: 1 for m in support})
        if report["support"] != names or report["hilbert_ones"] != list(h_ones):
            mismatches.append(
                f"support {t}: {report['support']} ones "
                f"{report['hilbert_ones']}, oracle {list(h_ones)}"
            )
        verdicts = []
        expected = []
        for trial in range(20):
            rng = substream(seed, trial)
            terms = {m: rng.nonzero_int(9) for m in support}
            h = hilbert_via_pairing(n, terms)
            verdict = ap.compare_hilbert(h_ones, h)
            verdicts.append(verdict.value)
            if verdict is ap.HilbertOrder.GREATER_EQ:
                expected.append(
                    {
                        "trial": trial,
                        "hilbert": list(h),
                        "coefficients": [
                            [name, str(terms[m])] for name, m in zip(names, support)
                        ],
                    }
                )
                violations.append(
                    f"support {names}, ones {list(h_ones)}, draw "
                    f"{[f'{c}*{name}' for name, c in zip(names, terms.values())]}"
                    f" -> {list(h)}"
                )
                readme_found = readme_found or terms == README_COUNTEREXAMPLE
        if report["verdicts"] != verdicts:
            mismatches.append(
                f"support {t} verdicts: {report['verdicts']}, oracle {verdicts}"
            )
        if report["counterexamples"] != expected:
            mismatches.append(
                f"support {t} counterexamples: {report['counterexamples']}, "
                f"oracle {expected}"
            )
    _report(
        8,
        not mismatches and readme_found,
        f"20 supports x 20 draws; harness agrees with the oracle: "
        f"{not mismatches}; README counterexample among the violations: "
        f"{readme_found}; claim refuted by {violations}"
        + (f"; mismatches: {mismatches}" if mismatches else ""),
    )


def test_criterion_09_hilbert_bounded_by_cell_counts():
    ok = True
    for f in _completeness_samples():
        h = ap.hilbert_vector(f)
        s = ap.cell_count_vector(ap.complex_of(f), f.degree)
        ok = ok and all(1 <= hj <= sj for hj, sj in zip(h, s))
    _report(9, ok)


def test_criterion_10_projection_map_formulas():
    mismatches = []
    guarded_out = []
    ok = True
    for n in (2, 3):
        for d in (2, 3, 4, 5):
            try:
                first = ap.projection_map_report(n, d)
                second = ap.projection_map_report(n, d)
            except ap.GuardExceeded:
                guarded_out.append((n, d))
                continue
            # hard requirement: the computation is reproducible and consistent
            ok = ok and first == second
            for name, data in first.items():
                ok = ok and data["kernel_dim"] == data["cols"] - data["rank"]
                if not data["formula_matches"]:
                    mismatches.append(
                        f"({n},{d}) {name}: computed {data['kernel_dim']}, "
                        f"published {data['published_kernel_formula']}"
                    )
    detail = f"guarded out: {guarded_out}; "
    if mismatches:
        detail += "discrepancies reported (computed values kept): " + "; ".join(
            mismatches
        )
    else:
        detail += "all formulas matched"
    _report(10, ok, detail)


def test_criterion_11_full_perazzo_hilbert_with_oracle():
    start = time.monotonic()
    ok = True
    for n, d, expected in [(2, 3, (1, 5, 5, 1)), (2, 4, (1, 6, 6, 6, 1))]:
        f = ap.build_full_perazzo(n, d)
        computed = ap.hilbert_vector(f)
        oracle = hilbert_via_pairing(f.num_vars, f.terms)
        ok = ok and computed == expected == oracle
    elapsed = time.monotonic() - start
    _report(11, ok and elapsed < 10.0, f"{elapsed:.2f}s")


def test_criterion_12_degree2_census():
    f = ap.build_full_perazzo(2, 3)
    census = ap.degree2_census(f)
    ok = (
        census.monomial_count == 8
        and census.binomial_count == 2
        and census.total_dim == 10
        and census.h2 == 5
        and ap.hilbert_vector(f)[2] == 5
    )
    _report(12, ok, str(census.as_dict()))


def test_criterion_13_conjecture_harness():
    start = time.monotonic()
    big = ap.conjecture_sample_check(2, 4, 500, seed=SEED_CONJECTURE_24)
    elapsed_big = time.monotonic() - start
    ok = big["violators"] == [] and elapsed_big < 120.0

    second_a = ap.conjecture_sample_check(2, 3, 500, seed=SEED_CONJECTURE_23)
    second_b = ap.conjecture_sample_check(2, 3, 500, seed=SEED_CONJECTURE_23)
    parallel = ap.conjecture_sample_check(
        2, 3, 500, seed=SEED_CONJECTURE_23, jobs=2
    )
    stable = (
        json.dumps(second_a, sort_keys=True)
        == json.dumps(second_b, sort_keys=True)
        == json.dumps(parallel, sort_keys=True)
    )
    ok = ok and second_a["violators"] == [] and stable
    _report(
        13,
        ok,
        f"(2,4): {big['tallies']} in {elapsed_big:.1f}s; "
        f"(2,3) byte-stable across reruns and jobs={stable}",
    )


def test_criterion_14_count_recurrence():
    start = time.monotonic()
    ok = True
    for n in range(2, 13):
        for d in range(1, 13):
            ok = ok and ap.monomial_count(n, d) == ap.monomial_count(
                n - 1, d
            ) + ap.monomial_count(n, d - 1)
    # enumeration count agreement on every grid pair small enough for the
    # 1-second budget (basis size <= 20000 covers 134 of the 156 pairs)
    for n in range(1, 13):
        for d in range(0, 13):
            if ap.monomial_count(n, d) <= 20000:
                ok = ok and sum(1 for _ in iter_exponents(n, d)) == ap.monomial_count(
                    n, d
                )
    elapsed = time.monotonic() - start
    _report(14, ok and elapsed < 1.0, f"{elapsed:.2f}s")
