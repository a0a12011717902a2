import itertools

import pytest

from lamrho import (
    JOIN2,
    TRIVIAL,
    Z2,
    ComposeMismatchError,
    FiniteSemigroup,
    SizeCapError,
    Homomorphism,
    LrSystem,
    MapRangeError,
    SquareViolationError,
    SystemMorphism,
    Transformation,
    builtin_system,
    canonical_component_alt,
    canonical_components,
    canonical_transformation,
    compose_transformations,
    free_monoid_system,
    free_semigroup_system,
    identity_transformation,
    induced_free_hom,
    induced_hom,
    is_system_isomorphism,
    pullback_system,
    restrict,
    singleton_system,
    validate_axioms,
    validate_transformation,
)
from lamrho.category import FreeInducedHom, FreeTransformation
from lamrho.product import ProductElement, multiply, universe_size

FLIP = builtin_system("flip_flop")
LZ = builtin_system("left_zero")


def test_identity_transformation_is_valid():
    for system in (FLIP, LZ, builtin_system("non_semidirect")):
        validate_transformation(identity_transformation(system))


def test_restriction_is_a_valid_transformation():
    restricted, arrow = restrict(FLIP, [1])
    validate_transformation(arrow)
    assert restricted == LZ  # the flip-flop system restricted to 1 is left-zero
    assert arrow.h.map == (1,)


def test_restrict_to_singleton_zero():
    restricted, _ = restrict(FLIP, [0])
    assert restricted.index_sizes == (1,)
    validate_axioms(restricted)


def test_restrict_full_is_identity():
    restricted, arrow = restrict(FLIP, [0, 1])
    assert restricted == FLIP
    assert arrow == identity_transformation(FLIP)


def test_restrict_non_semidirect_to_top():
    restricted, _ = restrict(builtin_system("non_semidirect"), [1])
    assert restricted.index_sizes == (2,)
    assert restricted.lam_map(0, 0) == (0, 1)
    assert restricted.rho_map(0, 0) == (0, 1)


def test_restrict_rejects_non_closed():
    from lamrho import NotClosedError, Z3

    system = validate_axioms(LrSystem(Z3, (1, 1, 1), ((0,),) * 9, ((0,),) * 9))
    with pytest.raises(NotClosedError):
        restrict(system, [1])


def test_square_violation_detected():
    # the constant-1 endomap breaks the rho square against rho[1,1] = 0
    tr = Transformation(
        FLIP,
        FLIP,
        Homomorphism.identity(JOIN2),
        ((0,), (1, 1)),
    )
    with pytest.raises(SquareViolationError):
        validate_transformation(tr)


def test_system_morphism_wraps_as_transformation():
    target = validate_axioms(
        LrSystem(TRIVIAL, (2,), ((0, 0),), ((0, 0),))
    )
    morph = SystemMorphism(LZ, target, ((0, 0),))
    validate_transformation(morph.as_transformation())


def chain():
    """A fixed three-arrow chain used for the category-law checks."""
    b_sys, f1 = restrict(FLIP, [1])  # A -> B
    c_sys = validate_axioms(LrSystem(TRIVIAL, (2,), ((0, 0),), ((0, 0),)))
    f2 = validate_transformation(
        Transformation(b_sys, c_sys, Homomorphism.identity(TRIVIAL), ((0, 0),))
    )
    f = Homomorphism(Z2, TRIVIAL, (0, 0))
    d_sys = pullback_system(f, c_sys)
    f3 = validate_transformation(
        Transformation(c_sys, d_sys, f, ((0, 1), (0, 1)))
    )
    return f1, f2, f3


def test_composition_unit_laws():
    f1, f2, f3 = chain()
    left_id = identity_transformation(f1.target)
    right_id = identity_transformation(f1.source)
    assert compose_transformations(left_id, f1) == f1
    assert compose_transformations(f1, right_id) == f1


def test_composition_associativity():
    f1, f2, f3 = chain()
    left = compose_transformations(f3, compose_transformations(f2, f1))
    right = compose_transformations(compose_transformations(f3, f2), f1)
    assert left == right


def test_composition_of_restrictions():
    restricted, arrow1 = restrict(FLIP, [1])
    again, arrow2 = restrict(restricted, [0])
    composite = compose_transformations(arrow2, arrow1)
    assert composite.h.map == (1,)
    validate_transformation(composite)


def test_compose_rejects_mismatch():
    f1, f2, f3 = chain()
    with pytest.raises(ComposeMismatchError):
        compose_transformations(f1, f2)


def test_pullback_identity():
    assert pullback_system(Homomorphism.identity(JOIN2), FLIP) == FLIP


def test_pullback_along_collapse():
    f = Homomorphism(Z2, TRIVIAL, (0, 0))
    pulled = pullback_system(f, LZ)
    assert pulled.index_sizes == (2, 2)
    validate_axioms(pulled)


def test_pullback_along_inclusion_is_restriction():
    restricted, arrow = restrict(FLIP, [1])
    pulled = pullback_system(arrow.h, FLIP)
    assert pulled == restricted


def test_is_system_isomorphism():
    assert is_system_isomorphism(identity_transformation(FLIP))
    _, arrow = restrict(FLIP, [1])
    assert not is_system_isomorphism(arrow)


def test_induced_hom_identity():
    hom = induced_hom(Z2, identity_transformation(FLIP))
    assert hom.map == tuple(range(6))


def test_induced_hom_contravariance():
    f1, f2, f3 = chain()
    h12 = induced_hom(Z2, compose_transformations(f2, f1))
    h1 = induced_hom(Z2, f1)
    h2 = induced_hom(Z2, f2)
    assert h12.map == tuple(h1.map[h2.map[i]] for i in range(h12.domain.size))


def test_free_semigroup_system_sizes():
    free = free_semigroup_system([2], 3)
    assert free.fiber_size((0,)) == 2
    assert free.fiber_size((0, 0)) == 4
    assert free.fiber_size((0, 0, 0)) == 8
    two = free_semigroup_system([1, 2], 2)
    assert two.fiber_size((0, 1)) == 2
    assert two.fiber_size((1, 0)) == 2


def test_free_semigroup_system_axioms():
    for sizes in ([2], [1, 2], [2, 2]):
        report = free_semigroup_system(sizes, 3).check_axioms()
        assert report.ok
        assert report.instances > 0


def test_free_system_mul_respects_bound():
    free = free_semigroup_system([2], 3)
    assert free.mul((0,), (0, 0)) == (0, 0, 0)
    assert free.mul((0, 0), (0, 0)) is None


def test_canonical_transformation_letters_are_identity():
    canon = canonical_transformation(FLIP, bound=3)
    assert canon.maps[(0,)] == (0,)
    assert canon.maps[(1,)] == (0, 1)


def test_canonical_transformation_two_letter_formula():
    canon = canonical_transformation(FLIP, bound=2)
    for s1 in (0, 1):
        for s2 in (0, 1):
            prod = JOIN2.mul(s1, s2)
            for z in range(FLIP.index_sizes[prod]):
                expected = (
                    FLIP.lam_map(s1, s2)[z],
                    FLIP.rho_map(s1, s2)[z],
                )
                point = canon.free.fiber((s1, s2))[
                    canon.maps[(s1, s2)][z]
                ]
                assert point == expected


def test_canonical_middle_component_formulas_agree():
    for system in (FLIP, LZ, builtin_system("non_semidirect")):
        for word in itertools.product(system.base.elements(), repeat=3):
            ow = system.base.mul(system.base.mul(word[0], word[1]), word[2])
            for z in range(system.index_sizes[ow]):
                comps = canonical_components(system, word, z)
                assert comps[1] == canonical_component_alt(system, word, 1, z)


def test_canonical_transformation_squares_commute():
    for system in (FLIP, LZ):
        canon = canonical_transformation(system, bound=3)
        report = canon.square_report()
        assert report.ok
        assert report.pairs_checked > 0
        validate_transformation(canon)


def test_induced_free_hom_surjective_homomorphism():
    canon = canonical_transformation(FLIP, bound=3)
    result = induced_free_hom(Z2, canon)
    assert result.homomorphic
    assert result.surjective
    assert result.codomain_size == 6
    assert result.pairs_checked > 0


def test_induced_free_hom_caps_the_element_pairs_it_checks():
    # 14 one-point words, so 420 elements over a cyclic group of order 30,
    # but 20 in-bound word pairs of 30 * 30 element pairs each
    cyclic = FiniteSemigroup(30, [[(i + j) % 30 for j in range(30)] for i in range(30)])
    canon = canonical_transformation(singleton_system(JOIN2), bound=3)
    with pytest.raises(SizeCapError, match="18000 element pairs"):
        induced_free_hom(cyclic, canon, cap=10_000)
    assert induced_free_hom(cyclic, canon, cap=18_000).pairs_checked == 18_000


def _free_hom_by_evaluation(h, tr):
    """induced_free_hom's report, with every element pair multiplied by
    ``product.multiply`` on both sides."""
    system, free = tr.source, tr.free

    def fiber(w):
        return list(itertools.product(range(h.size), repeat=free.fiber_size(w)))

    def image(x, w):
        return ProductElement(tr.base_image(w), tuple(x[v] for v in tr.maps[w]))

    hit = {image(x, w) for w in free.words for x in fiber(w)}
    homomorphic, pairs = True, 0
    for w, u in itertools.product(free.words, repeat=2):
        wu = free.mul(w, u)
        if wu is None:
            continue
        lam, rho = free.lam_map(w, u), free.rho_map(w, u)
        for x, y in itertools.product(fiber(w), fiber(u)):
            pairs += 1
            z = tuple(h.mul(x[i], y[j]) for i, j in zip(lam, rho))
            if image(z, wu) != multiply(h, system, image(x, w), image(y, u)):
                homomorphic = False
    domain = sum(len(fiber(w)) for w in free.words)
    size = universe_size(h, system)
    return FreeInducedHom(homomorphic, len(hit) == size, pairs, domain, size)


def _broken(canon, maps):
    """The canonical arrow with some word maps replaced."""
    return FreeTransformation(canon.source, canon.free, {**canon.maps, **maps})


def test_induced_free_hom_reports_a_broken_word_map():
    canon = canonical_transformation(FLIP, bound=3)
    whole = induced_free_hom(Z2, canon)
    assert whole == _free_hom_by_evaluation(Z2, canon)
    # (1, 1) evaluates to 1, whose 2 points the canonical map sends to
    # different points of the word's 4-point fiber
    assert canon.maps[1, 1] != (0, 0)
    broken = _broken(canon, {(1, 1): (0, 0)})
    report = induced_free_hom(Z2, broken)
    assert report == _free_hom_by_evaluation(Z2, broken)
    assert not report.homomorphic and report.surjective
    assert (report.pairs_checked, report.domain_size) == (whole.pairs_checked, whole.domain_size)


def test_induced_free_hom_reports_a_missed_image():
    # every word evaluating to 1 reads its first point twice, so no tuple
    # with two different values at anchor 1 is hit
    canon = canonical_transformation(FLIP, bound=2)
    whole = induced_free_hom(Z2, canon)
    assert whole.ok
    broken = _broken(canon, {w: (0, 0) for w in canon.free.words if canon.base_image(w) == 1})
    report = induced_free_hom(Z2, broken)
    assert report == _free_hom_by_evaluation(Z2, broken)
    assert not report.surjective
    assert (report.pairs_checked, report.domain_size) == (whole.pairs_checked, whole.domain_size)


def test_free_monoid_singleton_shared_set():
    free = free_monoid_system(1, [[0, 0], [0]], [[0, 0], [0]], bound=2)
    # chain conditions are vacuous, so word fibers are full products
    assert free.fiber_size((0, 1)) == 2
    assert free.fiber_size((0, 0)) == 4
    assert free.check_axioms().ok


def test_free_monoid_chain_filter():
    free = free_monoid_system(2, [[0, 1]], [[0, 1]], bound=3)
    assert free.fiber((0, 0)) == [(0, 0), (1, 1)]
    assert free.fiber_size((0, 0)) == 2
    assert free.fiber_size((0, 0, 0)) == 2
    assert free.check_axioms().ok


def test_free_monoid_unit_maps_are_identities():
    free = free_monoid_system(2, [[0, 1]], [[1, 0]], bound=3)
    for w in free.words:
        ident = tuple(range(free.fiber_size(w)))
        assert free.rho_map((), w) == ident
        assert free.lam_map(w, ()) == ident
    assert free.unital_on_truncated()
    assert free.check_axioms().ok


def test_free_monoid_boundary_maps():
    free = free_monoid_system(2, [[0, 1]], [[1, 0]], bound=2)
    # lam[eps, x] is the per-letter lambda; rho[x, eps] the per-letter rho
    assert free.lam_map((), (0,)) == (0, 1)
    assert free.rho_map((0,), ()) == (1, 0)


@pytest.mark.parametrize("sizes,bound", [([2], 3), ([1, 2], 3), ([0, 3], 2), ([1], 5)])
def test_free_cap_counts_what_is_built(sizes, bound):
    free = free_semigroup_system(sizes, bound)
    held = sum(len(w) for w in free.words) + sum(
        len(pt) for w in free.words for pt in free.fiber(w)
    )
    assert free_semigroup_system(sizes, bound, cap=held).words == free.words
    with pytest.raises(SizeCapError, match=f"holds {held} letters .* cap is {held - 1}$"):
        free_semigroup_system(sizes, bound, cap=held - 1)


@pytest.mark.parametrize(
    "free",
    [
        free_semigroup_system([1], 10),
        free_semigroup_system([1, 2], 4),
        free_semigroup_system([], 3),
        free_monoid_system(2, [[0, 1]], [[1, 0]], 3),
        free_monoid_system(1, [], [], 4),
    ],
)
def test_free_axiom_cap_counts_the_triples_walked(free):
    from lamrho.category import _word_triples

    shortest = 0 if free.unit else 1
    counted = _word_triples(free.alphabet, shortest, free.bound, 10**6)
    assert counted == free.check_axioms().instances


def test_free_axiom_cap_applies_at_the_boundary():
    # bound 10 over one one-point letter: 110 letters and coordinates pass
    # either cap, and the axiom check walks C(10, 3) = 120 word triples
    assert free_semigroup_system([1], 10, cap=120).check_axioms().instances == 120
    with pytest.raises(SizeCapError, match="has at least 120 word triples to check, cap is 119$"):
        free_semigroup_system([1], 10, cap=119).check_axioms()


def test_free_axiom_cap_admits_the_bound_100_walk():
    from lamrho.category import _word_triples

    # free_semigroup_system([1], 100).check_axioms() walks 161,700 triples,
    # under the default cap of 10**6
    assert _word_triples(1, 1, 100, 10**6) == 161_700
    assert _word_triples(1, 1, 999, 10**6) > 10**6


def test_free_monoid_cap_counts_the_shared_set():
    # bound 1: one one-letter word, its two points and the three shared points
    free_monoid_system(3, [[0, 1]], [[0, 1]], bound=1, cap=1 + 2 + 3)
    with pytest.raises(SizeCapError, match="holds 6 letters"):
        free_monoid_system(3, [[0, 1]], [[0, 1]], bound=1, cap=5)


def _reference_restrict(system, subset):
    # reference: the restriction and its arrow, reindexed by hand
    from lamrho import subsemigroup_table

    elems = tuple(sorted(set(subset)))
    sub = subsemigroup_table(system.base, elems)
    sizes = tuple(system.index_sizes[e] for e in elems)
    pairs = [(a, b) for a in elems for b in elems]
    lam = tuple(system.lam_map(a, b) for a, b in pairs)
    rho = tuple(system.rho_map(a, b) for a, b in pairs)
    restricted = validate_axioms(LrSystem(sub, sizes, lam, rho))
    inclusion = Homomorphism(sub, system.base, elems)
    maps = tuple(tuple(range(k)) for k in sizes)
    return restricted, Transformation(system, restricted, inclusion, maps)


def test_restrict_matches_the_reference_reindexing():
    from lamrho import NotClosedError, Z3

    systems = [
        builtin_system(name) for name in ("flip_flop", "left_zero", "non_semidirect")
    ]
    systems.append(
        validate_axioms(LrSystem(Z3, (1, 1, 1), ((0,),) * 9, ((0,),) * 9))
    )
    closed = refused = 0
    for system in systems:
        elems = system.base.elements()
        for k in range(1, len(elems) + 1):
            for subset in itertools.combinations(elems, k):
                try:
                    expected = _reference_restrict(system, subset)
                except NotClosedError:
                    refused += 1
                    with pytest.raises(NotClosedError):
                        restrict(system, subset)
                    continue
                closed += 1
                assert restrict(system, subset) == expected
    # every subset of the built-in bases is closed; over Z3 only {0} and
    # the whole group are
    assert (closed, refused) == (7 + 2, 5)


@pytest.mark.parametrize(
    "source, maps, error",
    [
        (FLIP, ((0,), (0, 1)), ComposeMismatchError),  # a different base
        (LZ, (), MapRangeError),  # no map for the one base element
        (LZ, ((0,),), MapRangeError),  # one point short
        (LZ, ((0, 2),), MapRangeError),  # 2 is outside the target fiber
    ],
)
def test_system_morphism_shape_errors(source, maps, error):
    with pytest.raises(error):
        SystemMorphism(source, LZ, maps)
