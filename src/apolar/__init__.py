"""Exact apolarity computations for graded Artinian Gorenstein algebras.

The package computes annihilator ideals and Hilbert vectors of the graded
algebras attached to homogeneous polynomials by the apolarity pairing, models
the divisor-closure cell complex of a support, characterizes admissible
supports of the standard locus, and stress-tests Hilbert-vector minimality of
full Perazzo algebras at desk scale.  All arithmetic is exact rational.
"""

from .complexes import (
    CellComplex,
    cell_count_vector,
    complex_of,
    divisor_closure,
    is_subcomplex,
    minimal_nonfaces,
    skeleton_count,
)
from .errors import GuardExceeded
from .generators import (
    GeneratorSet,
    contraction_image_classes,
    extract_generators,
    verify_generators,
)
from .linalg import RationalMatrix, kernel_basis, rank
from .locus import (
    ComponentDescriptor,
    ProjectionMap,
    SupportConditions,
    degree_step_matrix,
    enumerate_admissible_supports,
    projection_map_report,
    support_conditions,
    u_elimination_matrix,
)
from .monomials import (
    enumerate_exponents,
    iter_exponents,
    lift_image,
    monomial_count,
)
from .parsing import (
    PolynomialSyntaxError,
    format_monomial,
    format_polynomial,
    format_rational,
    parse_polynomial,
)
from .perazzo import (
    Degree2Census,
    build_full_perazzo,
    coefficient_one_minimality_check,
    conjecture_sample_check,
    degree2_census,
    full_perazzo_hilbert,
    is_bihomogeneous,
)
from .polynomials import (
    GradedPolynomial,
    HilbertOrder,
    annihilator_basis,
    annihilator_dimension,
    catalecticant_matrix,
    coefficient_one_poly,
    compare_hilbert,
    contract,
    differentiation_form,
    graded_polynomial,
    hilbert_vector,
    is_standard,
    monomial_poly,
)

__all__ = [name for name in dir() if not name.startswith("_")]
