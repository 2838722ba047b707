"""Every input check that the rest of the suite never reaches in-process
still raises, with its message.  These are safety checks on the public
entry points: removing one would otherwise go unnoticed."""

import re

import pytest

from apolar.cli import main
from apolar.complexes import (
    CellComplex,
    complex_of,
    divisor_closure,
    is_subcomplex,
    minimal_nonfaces,
)
from apolar.generators import (
    contraction_image_classes,
    extract_generators,
    verify_generators,
)
from apolar.linalg import RationalMatrix
from apolar.locus import degree_step_matrix, u_elimination_matrix
from apolar.monomials import iter_exponents, lift_image, monomial_count
from apolar.parsing import format_polynomial
from apolar.perazzo import (
    coefficient_one_minimality_check,
    conjecture_sample_check,
    degree2_census,
    full_perazzo_hilbert,
    is_bihomogeneous,
)
from apolar.polynomials import (
    GradedPolynomial,
    annihilator_basis,
    annihilator_dimension,
    catalecticant_matrix,
    graded_polynomial,
    hilbert_vector,
    is_standard,
)
from apolar.rng import SplitMix64

QUADRIC = graded_polynomial(2, {(2, 0): 1, (1, 1): 1})
LINEAR = graded_polynomial(2, {(1, 0): 1, (0, 1): 1})
TERNARY = graded_polynomial(3, {(1, 1, 0): 1, (0, 1, 1): 1})
ZERO = GradedPolynomial(2, 2, {})

CHECKS = {
    "is_subcomplex-lengths": (
        lambda: is_subcomplex((1,), (1, 0)),
        "exponent vectors of different lengths",
    ),
    "divisor_closure-variable-count": (
        lambda: divisor_closure([(1, 0)], 3),
        "support monomial with wrong variable count",
    ),
    "divisor_closure-negative-exponent": (
        lambda: divisor_closure([(-1, 2)], 2),
        "negative exponent in (-1, 2)",
    ),
    # without these checks the monomial 1 would enter layer 0 twice, and
    # (-1, 2) layer 1
    "CellComplex-degree-0-cell": (
        lambda: CellComplex(2, {(0, 0), (1, 0)}),
        "cell (0, 0) has degree 0",
    ),
    "CellComplex-negative-exponent": (
        lambda: CellComplex(2, {(-1, 2), (1, 0)}),
        "cell (-1, 2) has a negative exponent",
    ),
    "CellComplex-cell-length": (
        lambda: CellComplex(2, {(1, 0), (1, 0, 0)}),
        "cell (1, 0, 0) does not have 2 entries",
    ),
    "complex_of-zero": (lambda: complex_of(ZERO), "zero polynomial"),
    "minimal_nonfaces-degree-0": (
        lambda: minimal_nonfaces(complex_of(QUADRIC), 0),
        "degree must be at least 1",
    ),
    "verify_generators-fewer-variables": (
        # would raise a bare KeyError from a basis index lookup
        lambda: verify_generators(QUADRIC, extract_generators(TERNARY)),
        "generator set has 3 variables, the form 2",
    ),
    "verify_generators-more-variables": (
        lambda: verify_generators(TERNARY, extract_generators(QUADRIC)),
        "generator set has 2 variables, the form 3",
    ),
    "contraction_image_classes-degree-0": (
        lambda: contraction_image_classes(QUADRIC, 0),
        "degree 0 outside 1..2",
    ),
    "RationalMatrix-negative-rows": (
        lambda: RationalMatrix(-1, 0, ()),
        "matrix dimensions must be nonnegative",
    ),
    "u_elimination_matrix-n-1": (
        lambda: u_elimination_matrix(1, 3),
        "need n >= 2 and d >= 2",
    ),
    "degree_step_matrix-d-2": (
        lambda: degree_step_matrix(2, 2),
        "need n >= 2 and d >= 3",
    ),
    "monomial_count-negative-degree": (
        lambda: monomial_count(2, -1),
        "degree must be nonnegative",
    ),
    "iter_exponents-no-variables": (
        lambda: list(iter_exponents(0, 1)),
        "need at least one variable",
    ),
    "iter_exponents-negative-degree": (
        lambda: list(iter_exponents(1, -1)),
        "degree must be nonnegative",
    ),
    "lift_image-degree-0": (lambda: lift_image(2, 0), "degree must be at least 1"),
    "is_bihomogeneous-split": (
        lambda: is_bihomogeneous(QUADRIC, QUADRIC.num_vars + 1),
        "split out of range",
    ),
    "full_perazzo_hilbert-n-1": (
        lambda: full_perazzo_hilbert(1, 3),
        "need n >= 2 and d >= 2",
    ),
    "degree2_census-linear": (
        lambda: degree2_census(LINEAR),
        "degree-2 census needs socle degree at least 2",
    ),
    "conjecture_sample_check-negative-trials": (
        lambda: conjecture_sample_check(2, 3, -1, 1),
        "trials must be nonnegative",
    ),
    "conjecture_sample_check-d-0": (
        # the reference's own check, not monomial_count's "degree must be ..."
        lambda: conjecture_sample_check(2, 0, 1, 1),
        "need n >= 2 and d >= 2",
    ),
    "conjecture_sample_check-n-0": (
        lambda: conjecture_sample_check(0, 3, 1, 1),
        "need n >= 2 and d >= 2",
    ),
    "coefficient_one_minimality_check-negative-trials": (
        lambda: coefficient_one_minimality_check([(2, 0)], 2, -3, 1),
        "trials must be nonnegative",
    ),
    "coefficient_one_minimality_check-empty": (
        lambda: coefficient_one_minimality_check([], 2, 1, 1),
        "empty support",
    ),
    "graded_polynomial-no-variables": (
        lambda: graded_polynomial(0, {(): 1}),
        "need at least one variable",
    ),
    "graded_polynomial-negative-exponent": (
        lambda: graded_polynomial(2, {(3, -1): 1}),
        "negative exponent in (3, -1)",
    ),
    "graded_polynomial-non-integral-exponent": (
        # int() would truncate it to x1^2, a degree-2 form from degree 3
        lambda: graded_polynomial(2, {(2.5, 0.5): 1}),
        "non-integral exponent in (2.5, 0.5)",
    ),
    "GradedPolynomial-negative-exponent": (
        # of the right length and degree: would read as x1*x2 alone
        lambda: GradedPolynomial(2, 2, {(-1, 3): 1, (1, 1): 1}),
        "term (-1, 3) has a negative exponent",
    ),
    "GradedPolynomial-zero-coefficient": (
        # would differ from x1*x2 in ==, hash and the cell count vector
        lambda: GradedPolynomial(2, 2, {(2, 0): 0, (1, 1): 1}),
        "term (2, 0) has a zero coefficient",
    ),
    "catalecticant_matrix-above-degree": (
        lambda: catalecticant_matrix(QUADRIC, 3),
        "degree 3 outside 0..2",
    ),
    "annihilator_dimension-zero": (
        lambda: annihilator_dimension(ZERO, 1),
        "zero polynomial",
    ),
    "annihilator_basis-zero": (lambda: annihilator_basis(ZERO, 1), "zero polynomial"),
    "hilbert_vector-zero": (lambda: hilbert_vector(ZERO), "zero polynomial"),
    "hilbert_vector-cap-count": (
        lambda: hilbert_vector(QUADRIC, (1, 2)),
        "need 3 rank caps, got 2",
    ),
    "is_standard-zero": (lambda: is_standard(ZERO), "zero polynomial"),
    "annihilator_dimension-negative-degree": (
        lambda: annihilator_dimension(QUADRIC, -1),
        "degree must be nonnegative",
    ),
    "SplitMix64-below-0": (
        lambda: SplitMix64(1).below(0),
        "bound must be positive",
    ),
}


@pytest.mark.parametrize("call, message", CHECKS.values(), ids=CHECKS.keys())
def test_input_check_raises_its_message(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_ann_degree_above_the_socle_is_an_input_error(capsys):
    assert main(["ann", "--poly", "x1^2", "--nvars", "1", "--degree", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --degree must be in 1..2\n"


@pytest.mark.parametrize("n, d", [(2, 0), (0, 3)])
def test_conjecture_shape_error_names_the_shape_rule(capsys, n, d):
    argv = ["conjecture", "--n", str(n), "--d", str(d)]
    assert main([*argv, "--trials", "1", "--seed", "1"]) == 1
    assert capsys.readouterr().err == "error: need n >= 2 and d >= 2\n"


def test_format_polynomial_renders_zero_and_constants():
    assert format_polynomial(ZERO) == "0"
    assert format_polynomial(GradedPolynomial(2, 0, {(0, 0): 3})) == "3"
