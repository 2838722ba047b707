import hashlib
import json

import pytest

from apolar.cli import main
from apolar.errors import GuardExceeded
from apolar.linalg import RationalMatrix, rank
from apolar.locus import (
    ComponentDescriptor,
    ProjectionMap,
    SupportConditions,
    degree_step_matrix,
    enumerate_admissible_supports,
    projection_map_report,
    support_conditions,
    u_elimination_matrix,
)
from apolar.monomials import basis_index, enumerate_exponents, monomial_count
from apolar.parsing import format_polynomial
from apolar.perazzo import build_full_perazzo
from apolar.polynomials import coefficient_one_poly, is_standard
from oracles import family_dimension, lower_at, projection_images


def test_power_sum_support_is_admissible():
    for n, d in [(2, 2), (3, 2), (3, 4)]:
        support = [
            tuple(d if i == k else 0 for i in range(n)) for k in range(n)
        ]
        assert support_conditions(support, n).all_hold


def test_cross_collision_support():
    conditions = support_conditions([(2, 1), (1, 2)], 2)
    assert conditions.covers_all_variables
    assert not conditions.unique_derivative_source
    assert not conditions.no_cross_collision
    # the linear-algebra notion disagrees: this polynomial is standard
    assert is_standard(coefficient_one_poly(2, [(2, 1), (1, 2)]))


def test_missing_variable_fails_coverage():
    conditions = support_conditions([(2, 0)], 2)
    assert not conditions.covers_all_variables


def test_a_support_is_a_set():
    # a repeated monomial is one source, not two sharing every derivative
    repeated = support_conditions([(2, 1), (2, 1)], 2)
    assert repeated == support_conditions([(2, 1)], 2)
    assert repeated.unique_derivative_source and repeated.no_cross_collision


@pytest.mark.parametrize("monomial", [(2,), (2, 1, 0)])
def test_monomial_of_the_wrong_length_is_refused(monomial):
    with pytest.raises(ValueError, match="does not have 2 entries"):
        support_conditions([(1, 1), monomial], 2)


def _literal_conditions(support, n):
    """The three admissibility predicates, evaluated as literally stated on
    the (source monomial, variable, derivative) triples of the support."""
    pairs = []
    for vec in support:
        for k in range(1, n + 1):
            down = lower_at(vec, k)
            if down is not None:
                pairs.append((vec, k, down))
    cover = {k for _, k, _ in pairs} == set(range(1, n + 1))
    seen = {}
    unique = True
    for vec, k, down in pairs:
        if down in seen and seen[down] != (vec, k):
            unique = False
        seen.setdefault(down, (vec, k))
    collision = any(
        d1 == d2 and v1 != v2 and k1 != k2
        for v1, k1, d1 in pairs
        for v2, k2, d2 in pairs
    )
    return cover, unique, not collision


def _bruteforce_admissible(n, d):
    """Independent re-evaluation of the admissibility predicates."""
    basis = enumerate_exponents(n, d)
    out = []
    for mask in range(1, 1 << len(basis)):
        support = [basis[b] for b in range(len(basis)) if mask >> b & 1]
        if all(_literal_conditions(support, n)):
            out.append(tuple(support))
    return out


@pytest.mark.parametrize(
    "n,d",
    [
        (1, 1), (1, 4), (2, 1), (3, 1), (2, 2), (2, 3), (3, 2),
        (2, 4), (2, 6), (3, 3), (4, 2),
    ],
)
def test_enumeration_matches_bruteforce(n, d):
    enumerated = [c.support for c in enumerate_admissible_supports(n, d)]
    assert enumerated == _bruteforce_admissible(n, d)


def test_enumeration_scans_no_subsets(monkeypatch):
    def refuse(*args):
        raise AssertionError("support_conditions called by the enumeration")

    monkeypatch.setattr("apolar.locus.support_conditions", refuse)
    comps = enumerate_admissible_supports(3, 4)
    assert len(comps) == 350
    index = basis_index(3, 4)
    masks = [sum(1 << index[m] for m in c.support) for c in comps]
    assert all(a < b for a, b in zip(masks, masks[1:]))


def test_enumeration_dimensions_and_derived_sets():
    for n, d in [(2, 3), (3, 4), (4, 3)]:
        for comp in enumerate_admissible_supports(n, d):
            assert comp.dim_support == len(comp.support) - 1
            assert comp.dim_derived == len(comp.derived_set) - 1
            derived = {lower_at(m, k) for m in comp.support for k in range(1, n + 1)}
            assert comp.derived_set == tuple(sorted(derived - {None}))


def test_power_sum_component_present_with_dimension():
    comps = enumerate_admissible_supports(3, 2)
    power_support = tuple(sorted(
        tuple(2 if i == k else 0 for i in range(3)) for k in range(3)
    ))
    match = [c for c in comps if c.support == power_support]
    assert len(match) == 1
    assert match[0].dim_support == 2


def test_enumeration_guard():
    with pytest.raises(GuardExceeded):
        enumerate_admissible_supports(3, 4, max_basis=10)


def test_enumeration_deterministic():
    a = enumerate_admissible_supports(2, 3)
    b = enumerate_admissible_supports(2, 3)
    assert a == b


def _gcd_bound_holds(support):
    """Every pair of distinct degree-d monomials has gcd degree at most d - 2."""
    return all(
        sum(map(min, a, b)) <= sum(a) - 2
        for i, a in enumerate(support)
        for b in support[i + 1 :]
    )


@pytest.mark.parametrize("n,d", [(2, 2), (2, 3), (3, 2)])
def test_admissible_supports_satisfy_gcd_bound(n, d):
    for comp in enumerate_admissible_supports(n, d):
        assert _gcd_bound_holds(comp.support)


def test_full_perazzo_support_is_admissible_at_2_2():
    # ambient split: 2 + tau(2,1) = 4 variables of degree 2
    f = build_full_perazzo(2, 2)
    assert support_conditions(f.support(), f.num_vars).all_hold
    comps = enumerate_admissible_supports(4, 2)
    supports = {c.support for c in comps}
    assert tuple(sorted(f.support())) in supports
    match = next(c for c in comps if c.support == tuple(sorted(f.support())))
    # the full Perazzo locus has dimension tau(n, d-1) - 1
    assert match.dim_support == monomial_count(2, 1) - 1


# The full Perazzo form of (n, d) lies in the catalog at (nvars, degree) =
# (tau(n, d-1) + n, d), enumerated under the basis guard given.  Pinned per
# (n, d): the form, the catalog size, the Perazzo support's (dim_support,
# dim_derived), and the smallest dim_support and dim_derived, each with how
# many supports reach it.
PERAZZO_IN_CATALOG = {
    (2, 2): ((4, 2, 20), "x1*x4 + x2*x3", 10, (1, 3), (1, 3), (3, 10)),
    (2, 3): ((5, 3, 35), "x1*x5^2 + x2*x4*x5 + x3*x4^2", 24385, (2, 6), (1, 35),
             (4, 111)),
}


@pytest.mark.parametrize("n, d", sorted(PERAZZO_IN_CATALOG))
def test_full_perazzo_support_catalog_dimensions(n, d):
    # dim_support is |S| - 1 and dim_derived is |derived set| - 1.  At (2, 3)
    # neither count makes the Perazzo support minimal: a discrepancy with the
    # paper's minimal components left visible, not a refutation, since the
    # paper's hypotheses are not available here.
    (nvars, degree, guard), text, count, dims, support_min, derived_min = (
        PERAZZO_IN_CATALOG[n, d]
    )
    f = build_full_perazzo(n, d)
    assert (f.num_vars, f.degree, format_polynomial(f)) == (nvars, degree, text)
    comps = enumerate_admissible_supports(nvars, degree, max_basis=guard)
    assert len(comps) == count
    (perazzo,) = [c for c in comps if c.support == tuple(sorted(f.support()))]
    assert (perazzo.dim_support, perazzo.dim_derived) == dims
    for field, (least, reach) in (("dim_support", support_min),
                                  ("dim_derived", derived_min)):
        values = [getattr(c, field) for c in comps]
        assert (min(values), values.count(min(values))) == (least, reach)


# The family dimension of a support S is that of the GL-saturated family on
# it, rank(span{x_i d_j f} + span S) - 1 (oracles.family_dimension).  At
# (4,2) every catalog support has the Perazzo support's 9.  At (5,3) the
# Perazzo support has 18, and one scan of the whole catalog found 130
# supports below it, all at 17: each is written as a mask over the lex basis
# enumerate_exponents(5, 3), bit k for its k-th cubic, and the digest is
# that of repr(sorted(supports)).
SMALLER_FAMILIES_AT_5_3 = """
    80020042 8000042 40010082 4000082 80001102 420102 80020102 8000102
    1001002 40002002 404002 80004002 810002 1020002 40010014 4000014
    40000484 110084 40010084 4000084 80020104 8000104 800404 102004
    40002004 80004004 810004 1020004 100008050 2040050 100040050 10000050
    100040110 10000110 40000810 2004010 100004010 1008010 210010 1040010
    40000420 80001020 100008020 110020 40010020 420020 80020020 2040020
    100040020 4000020 8000020 10000020 1000400c0 100000c0 80000840 2002040
    100002040 808040 220040 840040 200480 100880 40000880 100004080 210080
    1040080 400900 80000900 201100 100002100 220100 840100 20009400
    200009400 200041400 10001400 20004400 200004400 200028400 8008400
    10020400 8040400 20008800 200008800 200040800 800800 1000800 10000800
    20003000 200003000 200019000 4009000 10011000 4041000 200022000 202000
    1002000 8002000 200014000 204000 804000 4004000 8018000 4028000
    22500000 202500000 10500000 120500000 21100000 201100000 a100000
    a2100000 108100000 90100000 22200000 202200000 10200000 120200000
    20c00000 200c00000 6400000 62400000 104400000 50400000 8800000 a0800000
    5000000 61000000 86000000 4a000000
"""
SMALLER_FAMILIES_DIGEST = "43c254b9d52d0eb049a4b9642842da77da4de17c775fb517a507aad30927b358"


def test_full_perazzo_support_family_dimension_at_4_2():
    f = build_full_perazzo(2, 2)
    assert family_dimension(f.support()) == 9
    comps = enumerate_admissible_supports(4, 2)
    assert [family_dimension(c.support) for c in comps] == [9] * 10


def test_supports_with_a_smaller_family_than_full_perazzo_at_5_3():
    # a discrepancy with the paper's minimal components left visible, as
    # for dim_support and dim_derived
    f = build_full_perazzo(2, 3)
    assert family_dimension(f.support()) == 18
    basis = enumerate_exponents(5, 3)
    supports = [
        tuple(m for k, m in enumerate(basis) if int(mask, 16) >> k & 1)
        for mask in SMALLER_FAMILIES_AT_5_3.split()
    ]
    assert len(supports) == 130
    assert hashlib.sha256(repr(sorted(supports)).encode()).hexdigest() == (
        SMALLER_FAMILIES_DIGEST
    )
    assert ((0, 0, 2, 0, 1), (0, 1, 0, 1, 1), (1, 0, 0, 0, 2)) in supports
    for support in supports:
        assert support_conditions(support, 5).all_hold
        assert family_dimension(support) == 17


def test_component_keeps_a_copy_of_its_support():
    support, derived = [(2, 0), (0, 2)], [(1, 0), (0, 1)]
    comp = ComponentDescriptor(support, derived, 1, 1)
    support.append((1, 1))
    derived.clear()
    assert comp.support == ((2, 0), (0, 2))
    assert comp.derived_set == ((1, 0), (0, 1))
    assert hash(comp) == hash(
        ComponentDescriptor(((2, 0), (0, 2)), ((1, 0), (0, 1)), 1, 1)
    )


def test_projection_map_keeps_a_copy_of_its_images():
    images = [0, None, 1]
    m = ProjectionMap(2, images)
    images.append(5)
    assert m.images == (0, None, 1)
    assert m.cols == 3
    assert hash(m) == hash(ProjectionMap(2, (0, None, 1)))


def _distinct_images(m):
    return len(set(m.images) - {None})


def test_u_elimination_2_2_hand_derived():
    m = u_elimination_matrix(2, 2)
    # domain: degree-2 monomials in x1, x2, u1, u2; target: in x1, u1
    assert (m.rows, m.cols) == (3, 10)
    assert _distinct_images(m) == 3
    source = enumerate_exponents(4, 2)
    target = enumerate_exponents(2, 2)
    killed = 0
    for vec, image in zip(source, m.images, strict=True):
        x_part, u_part = vec[:2], vec[2:]
        if u_part[1] or x_part[0]:
            assert image is None
            killed += 1
        else:
            assert image == target.index((x_part[1],) + (u_part[0],))
    assert killed == 7


def test_degree_step_2_3_hand_derived():
    m = degree_step_matrix(2, 3)
    assert (m.rows, m.cols) == (10, 35)
    assert _distinct_images(m) == 4
    source = enumerate_exponents(5, 3)
    target = enumerate_exponents(4, 2)
    # survivors: x_k * (u-part in the lift image), re-indexed, degree lowered
    survivors = {
        vec: target[image]
        for vec, image in zip(source, m.images, strict=True)
        if image is not None
    }
    assert survivors == {
        (1, 0, 0, 0, 2): (1, 0, 0, 1),
        (1, 0, 0, 1, 1): (1, 0, 1, 0),
        (0, 1, 0, 0, 2): (0, 1, 0, 1),
        (0, 1, 0, 1, 1): (0, 1, 1, 0),
    }


def test_degree_step_reindexes_by_rank():
    # at n=3, d=3 the eligible x-positions are 1, 2, 4: position 4 maps to 3
    m = degree_step_matrix(3, 3)
    p = monomial_count(3, 2)
    source = enumerate_exponents(p + 3, 3)
    target = enumerate_exponents(monomial_count(3, 1) + 3, 2)
    checked = 0
    for vec, image in zip(source, m.images, strict=True):
        if image is not None and vec[:p][3]:  # original position 4
            assert target[image][:3] == (0, 0, 1)
            checked += 1
    assert checked


@pytest.mark.parametrize("n, d", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)])
def test_map_rank_is_distinct_image_count(n, d):
    # Bareiss on the dense 0/1 expansion agrees with counting images
    report = projection_map_report(n, d)
    builders = {"u_elimination": u_elimination_matrix, "degree_step": degree_step_matrix}
    for key in report:
        m = builders[key](n, d)
        dense = RationalMatrix(
            m.rows,
            m.cols,
            tuple(int(image == r) for r in range(m.rows) for image in m.images),
        )
        assert rank(dense) == _distinct_images(m) == report[key]["rank"]


# every guard-accepted (n, d) from (2,2) to (5,3), then (2,7) and (4,4)
WHOLE_SPACE = [
    (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (3, 4),
    (4, 2), (4, 3), (5, 2), (5, 3), (2, 7), (4, 4),
]


@pytest.mark.parametrize("n, d", WHOLE_SPACE)
def test_u_elimination_whole_space_closed_form(n, d):
    # on the whole degree-d space the map is onto, so its kernel is the
    # difference of the two basis sizes, not the published Perazzo-space value
    tau = monomial_count
    elim = projection_map_report(n, d)["u_elimination"]
    assert elim["surjective"] is True
    assert elim["kernel_dim"] == (
        tau(tau(n, d - 1) + n, d) - tau(tau(n - 1, d - 1) + n - 1, d)
    )


@pytest.mark.parametrize("n, d", WHOLE_SPACE)
def test_map_images_match_the_literal_rules(n, d):
    elimination, step = projection_images(n, d)
    assert u_elimination_matrix(n, d).images == elimination
    if d >= 3:
        assert degree_step_matrix(n, d).images == step


# SHA-256 of repr((u_elimination images, degree_step images)), recorded on the
# per-coordinate loops that preceded the index getters
IMAGE_DIGESTS = {
    (2, 6): "5a0b8602f3b6b42b0571e7ee0b6fd9245c7d2e04e90343a78fd37f6dec29fc93",
    (5, 3): "f7f8ddc980cbfee43dcac8fc75852329acf5811466640da9d6040292a4924a0c",
    (2, 7): "1245fcb08d89ee38b807d2025e7443f66a77cde7cea72c790e114ac11fb96e76",
    (4, 4): "4f98552bbef05f55eada58d4c024abf46d730ac8dead327471a94c6ecc3327fd",
}


@pytest.mark.parametrize("shape", sorted(IMAGE_DIGESTS))
def test_map_images_digest(shape):
    images = (u_elimination_matrix(*shape).images, degree_step_matrix(*shape).images)
    digest = hashlib.sha256(repr(images).encode()).hexdigest()
    assert digest == IMAGE_DIGESTS[shape]


@pytest.mark.parametrize(
    "n, d", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (4, 2)]
)
def test_unique_source_and_no_cross_collision_agree(n, d):
    # support_conditions reads one derivative table and gives the last two
    # predicates one value; the literal evaluation keeps them apart.  Two
    # sources (a, k) != (b, l) of one derivative a - e_k = b - e_l differ in
    # both monomial and variable, so the two coincide; and two distinct
    # degree-d monomials share a derivative exactly when their gcd has degree
    # d - 1, so both equal the pairwise gcd bound
    basis = enumerate_exponents(n, d)
    for mask in range(1, 1 << len(basis)):
        support = [basis[b] for b in range(len(basis)) if mask >> b & 1]
        cover, unique, no_collision = _literal_conditions(support, n)
        assert support_conditions(support, n) == SupportConditions(
            cover, unique, no_collision
        )
        assert unique == no_collision == _gcd_bound_holds(support)


def test_projection_report_discrepancies_are_reported_not_patched():
    report = projection_map_report(2, 2)
    elim = report["u_elimination"]
    assert elim["kernel_dim"] == elim["cols"] - elim["rank"] == 7
    assert elim["published_kernel_formula"] == 2
    assert elim["formula_matches"] is False
    assert elim["surjective"] is True
    report = projection_map_report(2, 3)
    step = report["degree_step"]
    assert step["kernel_dim"] == 31
    assert step["published_kernel_formula"] == 1
    assert step["formula_matches"] is False
    assert step["surjective"] is False


def test_projection_report_reproducible():
    a = json.dumps(projection_map_report(3, 3), sort_keys=True)
    b = json.dumps(projection_map_report(3, 3), sort_keys=True)
    assert a == b


def test_matrix_guard():
    with pytest.raises(GuardExceeded):
        u_elimination_matrix(3, 5, max_dim=1000)


def _refuse_enumeration(*args):
    raise AssertionError("basis enumerated before the guard was checked")


# (call with a guard of ``limit``, size the call would build, override name)
JUST_OVER_LIMIT = {
    "enumerate": (
        lambda limit: enumerate_admissible_supports(3, 4, max_basis=limit),
        15,
        "max_basis",
    ),
    "u_elimination": (
        lambda limit: u_elimination_matrix(3, 4, max_dim=limit),
        1820,
        "max_dim",
    ),
    "degree_step": (
        lambda limit: degree_step_matrix(3, 4, max_dim=limit),
        1820,
        "max_dim",
    ),
}


@pytest.mark.parametrize("site", sorted(JUST_OVER_LIMIT))
def test_guard_refuses_just_over_limit_before_enumerating(site, monkeypatch):
    call, size, override = JUST_OVER_LIMIT[site]
    with monkeypatch.context() as patched:
        patched.setattr("apolar.locus.enumerate_exponents", _refuse_enumeration)
        patched.setattr("apolar.locus.lift_image", _refuse_enumeration)
        with pytest.raises(GuardExceeded) as refused:
            call(size - 1)
    assert f"{size} exceeds the guard of {size - 1}" in str(refused.value)
    assert override in str(refused.value)
    call(size)


def test_locus_maps_refuses_large_n_before_enumerating(monkeypatch, capsys):
    monkeypatch.setattr("apolar.locus.enumerate_exponents", _refuse_enumeration)
    monkeypatch.setattr("apolar.locus.lift_image", _refuse_enumeration)
    assert main(["locus", "maps", "--n", "4", "--d", "5"]) == 2
    err = capsys.readouterr().err
    assert "962598" in err and "20000" in err and "--max-dim" in err


@pytest.mark.parametrize("fmt", [[], ["--format", "csv"]])
def test_enumerate_names_each_catalog_monomial_once(fmt, monkeypatch, capsys):
    from apolar import cli

    named, name = [], cli.format_monomial

    def counting(m, *args):
        named.append(m)
        return name(m, *args)

    monkeypatch.setattr(cli, "format_monomial", counting)
    assert main(["locus", "enumerate", "--nvars", "3", "--degree", "4", *fmt]) == 0
    assert capsys.readouterr().out
    # 15 degree-4 support monomials and 10 degree-3 derived ones, once each
    assert len(named) == len(set(named)) == 25
