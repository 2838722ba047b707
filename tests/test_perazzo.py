import hashlib
import itertools
import json
from collections import Counter
from fractions import Fraction

import pytest

from apolar.cli import main
from apolar.errors import GuardExceeded
from apolar.monomials import enumerate_exponents, monomial_count
from apolar.perazzo import (
    RESAMPLE_CAP,
    _conjecture_trial,
    _dominated_draw,
    _draw_polynomial,
    _standard_draw,
    build_full_perazzo,
    coefficient_one_minimality_check,
    conjecture_sample_check,
    degree2_census,
    full_perazzo_hilbert,
    is_bihomogeneous,
    worker_count,
)
from apolar.polynomials import (
    HilbertOrder,
    annihilator_basis,
    catalecticant_matrix,
    coefficient_one_poly,
    compare_hilbert,
    differentiation_form,
    graded_polynomial,
    hilbert_vector,
    is_standard,
)
from apolar.rng import GAMMA, SplitMix64, mix, substream

from oracles import full_perazzo_reference


def test_build_full_perazzo_2_3():
    f = build_full_perazzo(2, 3)
    assert f.num_vars == 5
    assert f.support() == (
        (0, 0, 1, 2, 0),
        (0, 1, 0, 1, 1),
        (1, 0, 0, 0, 2),
    )
    assert f.is_coefficient_one()


def test_build_full_perazzo_2_2():
    f = build_full_perazzo(2, 2)
    # two x-variables, u-basis is (u2, u1) in lex order
    assert f.support() == ((0, 1, 1, 0), (1, 0, 0, 1))


def test_every_term_has_one_x_of_exponent_one():
    f = build_full_perazzo(3, 3)
    p = monomial_count(3, 2)
    for exps in f.support():
        assert sum(exps[:p]) == 1


def test_build_rejects_bad_spec():
    with pytest.raises(ValueError):
        build_full_perazzo(1, 3)
    with pytest.raises(ValueError):
        build_full_perazzo(2, 1)


@pytest.mark.parametrize("n,d", [(2, 3), (2, 4), (3, 3)])
def test_full_perazzo_equals_the_validated_coefficient_one_form(n, d):
    # built straight from its terms with int 1: the same value, hash and
    # printed coefficients as the normalizing constructor on its support
    f = build_full_perazzo(n, d)
    g = coefficient_one_poly(f.num_vars, f.support())
    assert f == g and hash(f) == hash(g)
    assert (f.num_vars, f.degree) == (g.num_vars, g.degree) == (n + monomial_count(n, d - 1), d)
    assert {type(c) for c in f.terms.values()} == {int}
    assert [str(f.terms[e]) for e in f.support()] == [str(g.terms[e]) for e in g.support()]


def test_bihomogeneous():
    f = build_full_perazzo(2, 3)
    assert is_bihomogeneous(f, 3) == (1, 2)
    mixed = graded_polynomial(2, {(2, 1): 1, (1, 2): 1})
    assert is_bihomogeneous(mixed, 1) is None
    pure = graded_polynomial(2, {(0, 3): 1})
    assert is_bihomogeneous(pure, 0) == (0, 3)


def test_full_perazzo_is_standard_and_bihomogeneous():
    for n, d in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)]:
        f = build_full_perazzo(n, d)
        assert is_standard(f)
        assert is_bihomogeneous(f, monomial_count(n, d - 1)) == (1, d - 1)


def test_full_perazzo_hilbert_golden():
    assert full_perazzo_hilbert(2, 3) == (1, 5, 5, 1)
    assert full_perazzo_hilbert(2, 4) == (1, 6, 6, 6, 1)


def test_full_perazzo_hilbert_shape():
    for n, d in [(2, 2), (2, 3), (2, 4), (3, 3)]:
        h = full_perazzo_hilbert(n, d)
        assert h[1] == n + monomial_count(n, d - 1)
        assert h == tuple(reversed(h))


def test_full_perazzo_hilbert_matches_the_closed_form():
    # a measured identity, not a theorem: the closed form agrees with the
    # computed vector at every shape with n, d <= 11 the default guard allows
    shapes = []
    for n, d in itertools.product(range(2, 12), repeat=2):
        try:
            h = full_perazzo_hilbert(n, d)
        except GuardExceeded:
            continue
        shapes.append((n, d))
        assert h == full_perazzo_reference(n, d), (n, d)
    assert len(shapes) == 23


def test_census_full_perazzo_2_3():
    census = degree2_census(build_full_perazzo(2, 3))
    assert census.monomial_count == 8
    assert census.binomial_count == 2
    assert census.other_count == 0
    assert census.total_dim == 10


def test_census_paper_quadric():
    census = degree2_census(graded_polynomial(2, {(2, 0): 1, (1, 1): 1}))
    assert census.monomial_count == 1  # X2^2
    assert census.binomial_count == 1  # X1^2 - X1*X2
    assert census.total_dim == 2


def test_census_single_variable_power():
    census = degree2_census(graded_polynomial(1, {(5,): 1}))
    assert census.total_dim == 0


def test_census_totals_match_annihilator():
    from apolar.polynomials import annihilator_dimension

    for n, d in [(2, 2), (2, 3), (3, 2), (2, 4)]:
        f = build_full_perazzo(n, d)
        census = degree2_census(f)
        assert (
            census.monomial_count + census.binomial_count + census.other_count
            == census.total_dim
            == annihilator_dimension(f, 2)
        )


def test_h2_values():
    assert degree2_census(build_full_perazzo(2, 3)).h2 == 5
    assert degree2_census(graded_polynomial(2, {(2, 0): 1, (1, 1): 1})).h2 == 1
    assert degree2_census(graded_polynomial(1, {(4,): 1})).h2 == 1


def test_all_monomials_linear_annihilator_has_full_difference_basis():
    # for the sum of every degree-3 monomial in 3 variables, the linear slice
    # of the annihilator has dimension n - 1 (consecutive differences)
    f = coefficient_one_poly(3, list(__import__("apolar").enumerate_exponents(3, 3)))
    basis = annihilator_basis(f, 1)
    assert len(basis) == 2


def test_conjecture_report_deterministic_and_stable():
    a = conjecture_sample_check(2, 3, 30, seed=7)
    b = conjecture_sample_check(2, 3, 30, seed=7)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert a["violators"] == []
    assert sum(a["tallies"].values()) + a["skipped_trials"] == 30


def test_conjecture_jobs_do_not_change_output():
    serial = conjecture_sample_check(2, 3, 24, seed=11, jobs=1)
    parallel = conjecture_sample_check(2, 3, 24, seed=11, jobs=2)
    assert json.dumps(serial, sort_keys=True) == json.dumps(parallel, sort_keys=True)


def test_conjecture_zero_trials():
    report = conjecture_sample_check(2, 4, 0, seed=5)
    assert report["trials"] == 0
    assert report["hilbert_full_perazzo"] == [1, 6, 6, 6, 1]
    assert sum(report["tallies"].values()) == 0


def test_minimality_check_full_support_cubic():
    report = coefficient_one_minimality_check(
        [(3, 0), (2, 1), (1, 2), (0, 3)], 2, trials=20, seed=3
    )
    assert report["hilbert_ones"] == [1, 1, 1, 1]
    assert report["standard"] is False
    assert set(report["verdicts"]) <= {"LESS_EQ", "EQUAL"}
    assert report["counterexamples"] == []


def test_minimality_check_full_perazzo_support():
    f = build_full_perazzo(2, 3)
    report = coefficient_one_minimality_check(f.support(), f.num_vars, 20, seed=9)
    assert set(report["verdicts"]) <= {"LESS_EQ", "EQUAL"}
    assert report["counterexamples"] == []


def test_minimality_check_single_monomial_always_equal():
    report = coefficient_one_minimality_check([(2, 1)], 2, trials=10, seed=13)
    assert report["verdicts"] == ["EQUAL"] * 10


def test_criterion_8_reports_match_their_digest():
    # the 20 reports of tests/test_acceptance.py's criterion 8 (seed 52003),
    # recorded while every draw's C_j was still ranked to its full rank
    from sampling import random_coefficient_one_standard

    dims = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)]
    reports = []
    for t in range(20):
        n, d = dims[t % len(dims)]
        f = random_coefficient_one_standard(substream(52003, t), n, d)
        reports.append(
            coefficient_one_minimality_check(f.support(), n, trials=20, seed=53003 + t)
        )
    text = json.dumps(reports, sort_keys=True)
    assert sum(len(r["counterexamples"]) for r in reports) == 1
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "39ee36ae57a633bd9304afcd747ddf8881c24ca3124f2a718df21f674a73aa1c"
    )


DRAW_SEED = 4242
DRAW_SHAPES = [(2, 3), (2, 4), (3, 3)]


def _draw_space(n, d):
    num_vars = n + monomial_count(n, d - 1)
    return num_vars, enumerate_exponents(num_vars, d)


class CountingStream(SplitMix64):
    """SplitMix64 that counts the 64-bit words it emits, read off the state's
    advance (each word moves it by GAMMA mod 2**64), so that a batch counts
    as many words as it returns."""

    def __init__(self, state):
        super().__init__(state)
        self._start = self._state

    @property
    def words(self):
        return (self._state - self._start) * pow(GAMMA, -1, 2**64) % 2**64


def _counting_substream(seed, trial):
    # the substream state of the rng module's output contract
    return CountingStream(mix(seed ^ mix(trial + 1)))


@pytest.mark.parametrize("n,d", DRAW_SHAPES)
def test_draws_equal_their_normalized_form(n, d):
    # a draw skips graded_polynomial; it must be the same value as the
    # normalized form with Fraction coefficients, down to every C_j
    num_vars, basis = _draw_space(n, d)
    for trial in range(50):
        f = _standard_draw(DRAW_SEED, trial, basis, num_vars)
        assert f is not None
        assert all(type(c) is int and c for c in f.terms.values())
        g = graded_polynomial(num_vars, {m: Fraction(c) for m, c in f.terms.items()})
        assert f == g and hash(f) == hash(g)
        for j in range(d + 1):
            a = catalecticant_matrix(f, j)
            b = catalecticant_matrix(g, j)
            assert (a.rows, a.cols, a.entries) == (b.rows, b.cols, b.entries)
            assert annihilator_basis(differentiation_form(f), j) == annihilator_basis(
                differentiation_form(g), j
            )
        assert hilbert_vector(f) == hilbert_vector(g)
        assert hilbert_vector(differentiation_form(f)) == hilbert_vector(
            differentiation_form(g)
        )


def test_dominated_draw_prints_int_and_fraction_terms_alike():
    num_vars, basis = _draw_space(2, 4)
    for trial in range(20):
        f = _standard_draw(DRAW_SEED, trial, basis, num_vars)
        h = hilbert_vector(f)
        as_fractions = {m: Fraction(c) for m, c in f.terms.items()}
        assert _dominated_draw(h, f.terms) == _dominated_draw(h, as_fractions)
    signed = {(2, 0): -3, (1, 1): 9, (0, 2): -1}
    record = _dominated_draw((1, 2, 1), signed)
    assert record["coefficients"] == [["x2^2", "-1"], ["x1*x2", "9"], ["x1^2", "-3"]]
    assert record == _dominated_draw((1, 2, 1), {m: Fraction(c) for m, c in signed.items()})


@pytest.mark.parametrize("n,d", [(1, 2)] + DRAW_SHAPES)
def test_draw_takes_one_word_per_basis_and_support_monomial(n, d):
    # (1, 2) has a 3-monomial basis, so about one attempt in 8 is empty
    num_vars, basis = _draw_space(n, d)
    rng = _counting_substream(DRAW_SEED, 0)
    assert rng.next_u64() == substream(DRAW_SEED, 0).next_u64()
    empty = 0
    for _ in range(200):
        before = rng.words
        f = _draw_polynomial(rng, basis, num_vars)
        support = len(f.terms) if f is not None else 0
        empty += f is None
        assert rng.words - before == len(basis) + support
    if len(basis) < 4:
        assert empty


@pytest.mark.parametrize("n,d", DRAW_SHAPES)
def test_standard_draw_leaves_the_stream_where_a_replay_does(n, d, monkeypatch):
    # replay the sampling contract on a fresh substream: one coin per basis
    # monomial, then one nonzero_int per support monomial, until standard
    num_vars, basis = _draw_space(n, d)
    streams = []

    def counting(seed, trial):
        streams.append(_counting_substream(seed, trial))
        return streams[-1]

    monkeypatch.setattr("apolar.perazzo.substream", counting)
    for trial in range(20):
        f = _standard_draw(DRAW_SEED, trial, basis, num_vars)
        assert f is not None
        used = streams[-1]
        replay = _counting_substream(DRAW_SEED, trial)
        for _ in range(RESAMPLE_CAP):
            support = [m for m in basis if replay.coin()]
            if not support:
                continue
            terms = {m: replay.nonzero_int(9) for m in support}
            if is_standard(graded_polynomial(num_vars, terms)):
                break
        assert dict(f.terms) == terms
        assert used.words == replay.words
        reference = substream(DRAW_SEED, trial)
        for _ in range(used.words):
            reference.next_u64()
        assert used.next_u64() == reference.next_u64()


# a reference vector above every (2,4) draw's, so each draw is a violator
ABOVE_EVERY_DRAW = (1, 99, 99, 99, 1)


def test_conjecture_trial_reports_a_dominated_draw():
    num_vars, basis = _draw_space(2, 4)
    for t in range(5):
        result = _conjecture_trial((DRAW_SEED, t, num_vars, 4, ABOVE_EVERY_DRAW))
        f = _standard_draw(DRAW_SEED, t, basis, num_vars)
        assert result == {
            "trial": t,
            "verdict": "LESS_EQ",
            "violator": _dominated_draw(hilbert_vector(f), f.terms),
        }


def test_conjecture_report_lists_every_violator(monkeypatch):
    monkeypatch.setattr(
        "apolar.perazzo.full_perazzo_hilbert", lambda n, d, max_dim: ABOVE_EVERY_DRAW
    )
    report = conjecture_sample_check(2, 4, 5, seed=DRAW_SEED)
    num_vars, _ = _draw_space(2, 4)
    assert len(report["violators"]) == 5
    for t, violator in enumerate(report["violators"]):
        result = _conjecture_trial((DRAW_SEED, t, num_vars, 4, ABOVE_EVERY_DRAW))
        assert violator == {"trial": t, **result["violator"]}
    assert report["tallies"]["LESS_EQ"] == 5
    assert report["skipped_trials"] == 0


def _spy_hilbert_vectors(monkeypatch):
    """Record (form, caps, vector) for every Hilbert vector the harness takes."""
    seen = []

    def spy(f, at_most=None):
        seen.append((f, at_most, hilbert_vector(f, at_most)))
        return seen[-1][2]

    monkeypatch.setattr("apolar.perazzo.hilbert_vector", spy)
    return seen


def _check_capped_vectors(seen):
    """Each capped vector is min(h_j, cap_j) of the exact one; returns how
    many vectors a cap changed."""
    bitten = 0
    for f, caps, h in seen:
        exact = hilbert_vector(f)
        assert h == (exact if caps is None else tuple(map(min, exact, caps)))
        bitten += h != exact
    return bitten


# every (2,4) draw below has the vector (1,6,21,6,1); against these references
# the draws are LESS_EQ, EQUAL, GREATER_EQ (the real reference) and
# INCOMPARABLE, and the caps r_j + 1 bite on C_2 in the last two
PATCHED_REFERENCES = {
    "LESS_EQ": (ABOVE_EVERY_DRAW, False),
    "EQUAL": ((1, 6, 21, 6, 1), False),
    "GREATER_EQ": ((1, 6, 6, 6, 1), True),
    "INCOMPARABLE": ((1, 6, 6, 6, 2), True),
}


@pytest.mark.parametrize("verdict", sorted(PATCHED_REFERENCES))
def test_capped_verdicts_match_the_uncapped_comparison(verdict, monkeypatch):
    reference, bites = PATCHED_REFERENCES[verdict]
    monkeypatch.setattr(
        "apolar.perazzo.full_perazzo_hilbert", lambda n, d, max_dim: reference
    )
    seen = _spy_hilbert_vectors(monkeypatch)
    trials = 6
    report = conjecture_sample_check(2, 4, trials, seed=DRAW_SEED)
    assert [caps for _, caps, _ in seen] == [[r + 1 for r in reference]] * trials
    assert (_check_capped_vectors(seen) == trials) is bites
    num_vars, basis = _draw_space(2, 4)
    tallies = dict.fromkeys(report["tallies"], 0)
    violators = []
    for t in range(trials):
        f = _standard_draw(DRAW_SEED, t, basis, num_vars)
        h = hilbert_vector(f)
        exact = compare_hilbert(h, reference)
        tallies[exact.value] += 1
        if exact is HilbertOrder.LESS_EQ:
            violators.append({"trial": t, **_dominated_draw(h, f.terms)})
    assert tallies[verdict] == trials
    assert report["tallies"] == tallies
    assert report["violators"] == violators


def test_minimality_check_caps_each_draw_past_the_coefficient_one_vector(monkeypatch):
    # every ternary quadric with coefficient one has C_1 of rank 1, while a
    # random draw's has rank 3: the cap h_1 + 1 = 2 bites
    support = enumerate_exponents(3, 2)
    seen = _spy_hilbert_vectors(monkeypatch)
    report = coefficient_one_minimality_check(support, 3, trials=10, seed=DRAW_SEED)
    assert report["hilbert_ones"] == [1, 1, 1]
    ones, draws = seen[0], seen[1:]
    assert ones[1] is None and [caps for _, caps, _ in draws] == [[2, 2, 2]] * 10
    assert _check_capped_vectors(draws) > 0
    verdicts = [compare_hilbert((1, 1, 1), hilbert_vector(f)).value for f, _, _ in draws]
    assert report["verdicts"] == verdicts


def _counting(calls, name, fn):
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return counted


@pytest.mark.parametrize("n,d,trials", [(2, 3, 20), (2, 4, 12), (2, 5, 3)])
def test_conjecture_takes_one_vector_per_report_entry_and_one_rank_per_degree(
    n, d, trials, monkeypatch
):
    # the counting rule of the benchmark's trace check: one hilbert_vector
    # call per reported vector (the reference and each completed trial), one
    # rank per entry of it, and one more rank per is_standard call
    import apolar.linalg
    import apolar.perazzo
    import apolar.polynomials

    calls = Counter()
    for module in (apolar.linalg, apolar.polynomials, apolar.perazzo):
        for name in ("rank", "hilbert_vector", "is_standard"):
            original = getattr(module, name, None)
            if original is not None:
                monkeypatch.setattr(module, name, _counting(calls, name, original))
    report = conjecture_sample_check(n, d, trials, seed=DRAW_SEED)
    vectors = 1 + report["trials"] - report["skipped_trials"]
    assert calls["hilbert_vector"] == vectors
    assert calls["rank"] == (d + 1) * vectors + calls["is_standard"]


def test_conjecture_report_counts_skipped_trials(monkeypatch):
    monkeypatch.setattr("apolar.perazzo.is_standard", lambda f: False)
    num_vars, _ = _draw_space(2, 3)
    assert _conjecture_trial((DRAW_SEED, 0, num_vars, 3, (1, 5, 5, 1))) == {
        "trial": 0,
        "verdict": "SKIPPED",
    }
    report = conjecture_sample_check(2, 3, 3, seed=DRAW_SEED)
    assert report["skipped_trials"] == report["trials"] == 3
    assert set(report["tallies"].values()) == {0}
    assert report["violators"] == []


@pytest.mark.parametrize("n,d,draws", [(2, 3, 20), (2, 4, 20)])
def test_full_perazzo_maximizes_degree2_annihilator(n, d, draws):
    # sampled check that no coefficient-one standard polynomial of the same
    # codimension and socle degree has a larger degree-2 annihilator slice
    from apolar.polynomials import annihilator_dimension
    from apolar.rng import substream

    from sampling import random_coefficient_one_standard

    num_vars = n + monomial_count(n, d - 1)
    reference = annihilator_dimension(build_full_perazzo(n, d), 2)
    observed = []
    for t in range(draws):
        rng = substream(60000 + 100 * n + d, t)
        f = random_coefficient_one_standard(rng, num_vars, d)
        observed.append(annihilator_dimension(f, 2))
    print(
        f"degree-2 annihilator stats at ({n},{d}): reference {reference}, "
        f"sampled max {max(observed)}, min {min(observed)}, draws {draws}"
    )
    assert max(observed) <= reference


def test_worker_count_clamps_to_cpus_and_trials():
    assert worker_count(1, 500, 8) == 1
    assert worker_count(4, 500, 8) == 4
    assert worker_count(64, 500, 8) == 8
    assert worker_count(64, 3, 8) == 3
    assert worker_count(4, 0, 8) == 1
    assert worker_count(4, 1, 8) == 1
    assert worker_count(4, 500, None) == 1


@pytest.mark.parametrize("jobs", [0, -3])
def test_worker_count_rejects_jobs_below_one(jobs):
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        worker_count(jobs, 500, 8)


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_cli_rejects_jobs_below_one(jobs, capsys):
    # rejected before any trial runs or any worker starts
    argv = ["conjecture", "--n", "2", "--d", "3", "--trials", "4", "--seed", "1"]
    assert main(argv + ["--jobs", jobs]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"jobs must be at least 1, got {jobs}" in captured.err


def _refuse_build(*args):
    raise AssertionError("Perazzo polynomial built before the guard was checked")


# codimension 2 + tau(2, 2) = 5; its largest catalecticant side is tau(5, 3)
@pytest.mark.parametrize(
    "call",
    [
        lambda limit: full_perazzo_hilbert(2, 3, max_dim=limit),
        lambda limit: conjecture_sample_check(2, 3, 1, 7, max_dim=limit),
    ],
    ids=["full_perazzo_hilbert", "conjecture_sample_check"],
)
def test_guard_refuses_just_over_limit_before_building(call, monkeypatch):
    size = monomial_count(5, 3)
    with monkeypatch.context() as patched:
        patched.setattr("apolar.perazzo.build_full_perazzo", _refuse_build)
        with pytest.raises(GuardExceeded) as refused:
            call(size - 1)
    message = str(refused.value)
    assert f"{size} exceeds the guard of {size - 1}" in message
    assert "max_dim" in message
    call(size)


@pytest.mark.parametrize(
    "call",
    [
        lambda: full_perazzo_hilbert(9, 8),
        lambda: conjecture_sample_check(9, 8, 1, 7),
    ],
    ids=["full_perazzo_hilbert", "conjecture_sample_check"],
)
def test_guard_refuses_9_8_before_building(call, monkeypatch):
    monkeypatch.setattr("apolar.perazzo.build_full_perazzo", _refuse_build)
    with pytest.raises(GuardExceeded) as refused:
        call()
    size = monomial_count(9 + monomial_count(9, 7), 8)
    assert str(size) in str(refused.value)
    assert "20000" in str(refused.value) and "max_dim" in str(refused.value)
