import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lamrho import (
    CATALOG,
    JOIN2,
    L2,
    L2_1,
    R2,
    TRIVIAL,
    Z2,
    Z3,
    EmptyGeneratorsError,
    FiniteSemigroup,
    Homomorphism,
    InvalidPartitionError,
    NonAssociativeError,
    NotACongruenceError,
    NotAHomomorphismError,
    OutOfRangeEntryError,
    Partition,
    RightAction,
    TableFormatError,
    all_congruences,
    congruence_generated_by,
    direct_product,
    divides,
    find_isomorphism,
    from_right_action,
    from_two_sided_action,
    identity_element,
    is_congruence,
    is_group,
    natural_two_sided_action,
    product_table,
    builtin_system,
    quotient,
    subsemigroup_closure,
    subsemigroup_table,
    validate_table,
)
from lamrho import semigroup
from lamrho.semigroup import associativity_witness


def brute_force_nonassoc(table):
    """Independent exhaustive scan used as the oracle for validation."""
    n = len(table)
    for i, j, k in itertools.product(range(n), repeat=3):
        if table[table[i][j]][k] != table[i][table[j][k]]:
            return (i, j, k)
    return None


def test_validate_accepts_z2_and_left_zero():
    assert validate_table([[0, 1], [1, 0]]).size == 2
    assert validate_table([[0, 0], [1, 1]]).size == 2


def test_validate_rejects_with_witness():
    bad = [[1, 0], [0, 0]]
    assert brute_force_nonassoc(bad) is not None
    with pytest.raises(NonAssociativeError) as exc:
        validate_table(bad)
    i, j, k = exc.value.witness
    assert bad[bad[i][j]][k] != bad[i][bad[j][k]]


def test_validate_rejects_out_of_range():
    from lamrho import OutOfRangeEntryError

    with pytest.raises(OutOfRangeEntryError):
        validate_table([[0, 2], [1, 0]])


def test_validate_rejects_boolean_entries():
    # True == 1 in Python, but a bool names no element
    from lamrho import OutOfRangeEntryError

    with pytest.raises(OutOfRangeEntryError):
        validate_table([[True, 0], [0, 1]])
    with pytest.raises(OutOfRangeEntryError):
        FiniteSemigroup.from_rows([[0, False], [1, 1]])


def test_an_empty_names_list_is_checked_not_dropped():
    from lamrho import TableFormatError

    for names in ([], ["a"]):
        with pytest.raises(TableFormatError):
            FiniteSemigroup.from_rows([[0, 1], [1, 0]], names)
        with pytest.raises(TableFormatError):
            validate_table([[0, 1], [1, 0]], names)


def test_identity_element():
    assert identity_element(Z2) == 0
    assert identity_element(L2) is None
    assert identity_element(JOIN2) == 0


def test_is_group():
    assert is_group(Z2)
    assert not is_group(JOIN2)
    assert is_group(Z3)
    assert not is_group(L2_1)


def test_direct_product_klein_four():
    klein = direct_product(Z2, Z2)
    # oracle: the Klein group is commutative with every element self-inverse
    e = identity_element(klein)
    assert e == 0
    for a in klein.elements():
        assert klein.mul(a, a) == e
        for b in klein.elements():
            assert klein.mul(a, b) == klein.mul(b, a)
    assert is_group(klein)


def test_direct_product_with_trivial_is_isomorphic():
    assert find_isomorphism(direct_product(Z2, TRIVIAL), Z2) is not None


def test_direct_product_l2_z2_has_no_identity():
    prod = direct_product(L2, Z2)
    assert prod.size == 4
    assert identity_element(prod) is None


def test_subsemigroup_closure():
    assert subsemigroup_closure(Z2, [1]) == (0, 1)
    assert subsemigroup_closure(L2, [0]) == (0,)
    klein = direct_product(Z2, Z2)
    assert subsemigroup_closure(klein, [1, 2]) == (0, 1, 2, 3)
    with pytest.raises(EmptyGeneratorsError):
        subsemigroup_closure(Z2, [])


def test_is_congruence_on_paper_partitions():
    flip = product_table(Z2, builtin_system("flip_flop"))
    # classes {0,1}, {00,11}, {01,10} in the documented element order
    part = Partition.from_classes(6, [[0, 1], [2, 5], [3, 4]])
    assert is_congruence(flip, part)
    lz = product_table(Z2, builtin_system("left_zero"))
    assert is_congruence(lz, Partition.from_classes(4, [[0, 3], [1, 2]]))
    assert is_congruence(Z2, Partition.discrete(2))


def test_is_congruence_rejects_incompatible():
    part = Partition.from_classes(2, [[0, 1]])
    assert is_congruence(Z2, part)  # one class is always fine
    flip = product_table(Z2, builtin_system("flip_flop"))
    assert not is_congruence(flip, Partition.from_classes(6, [[0, 2], [1], [3], [4], [5]]))


def test_congruence_generated_by():
    assert congruence_generated_by(Z2, []) == Partition.discrete(2)
    assert congruence_generated_by(Z2, [(0, 1)]) == Partition.single(2)
    flip = product_table(Z2, builtin_system("flip_flop"))
    part = congruence_generated_by(flip, [(2, 5)])
    assert is_congruence(flip, part)
    cls = next(c for c in part.classes if 2 in c)
    assert set(cls) == {2, 5}
    # least: every congruence containing the pair is refined by it
    m = part.membership()
    for other in all_congruences(flip):
        om = other.membership()
        if om[2] == om[5]:
            assert all(
                om[x] == om[y]
                for x in range(6)
                for y in range(6)
                if m[x] == m[y]
            )


@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=6
    )
)
@settings(max_examples=50, deadline=None)
def test_generated_congruence_is_always_a_congruence(pairs):
    flip = product_table(Z2, builtin_system("flip_flop"))
    part = congruence_generated_by(flip, pairs)
    assert is_congruence(flip, part)


def test_quotient_golden():
    lz = product_table(Z2, builtin_system("left_zero"))
    q = quotient(lz, Partition.from_classes(4, [[0, 3], [1, 2]]))
    assert find_isomorphism(q, L2) is not None
    flip = product_table(Z2, builtin_system("flip_flop"))
    q2 = quotient(flip, Partition.from_classes(6, [[0, 1], [2, 5], [3, 4]]))
    assert find_isomorphism(q2, L2_1) is not None


def test_quotient_edge_partitions():
    for sg in (Z2, L2, JOIN2):
        assert quotient(sg, Partition.single(sg.size)).size == 1
        q = quotient(sg, Partition.discrete(sg.size))
        assert q.table == sg.table


def test_partition_with_an_empty_class_is_refused_by_name():
    for classes in ([[0, 1], []], [[], [0, 1]], [[0], [], [1]]):
        with pytest.raises(InvalidPartitionError, match="empty class"):
            Partition.from_classes(2, classes)


def test_quotient_rejects_non_congruence():
    flip = product_table(Z2, builtin_system("flip_flop"))
    with pytest.raises(NotACongruenceError):
        quotient(flip, Partition.from_classes(6, [[0, 2], [1], [3], [4], [5]]))


def test_find_isomorphism_relabelling():
    other = FiniteSemigroup.from_rows([[1, 0], [0, 1]])  # identity at index 1
    iso = find_isomorphism(Z2, other)
    assert iso is not None
    assert iso.map == (1, 0)


def test_find_isomorphism_l2_vs_r2_absent():
    # oracle: only two bijections exist on two points; check both by hand
    for mapping in ((0, 1), (1, 0)):
        ok = all(
            mapping[L2.mul(x, y)] == R2.mul(mapping[x], mapping[y])
            for x in range(2)
            for y in range(2)
        )
        assert not ok
    assert find_isomorphism(L2, R2) is None


def test_find_isomorphism_klein_vs_z4_absent():
    klein = direct_product(Z2, Z2)
    z4 = validate_table([[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]])
    # oracle: z4 has an element of order 4, klein does not
    from lamrho.semigroup import element_order_profile

    orders_klein = sorted(element_order_profile(klein, a) for a in klein.elements())
    orders_z4 = sorted(element_order_profile(z4, a) for a in z4.elements())
    assert orders_klein != orders_z4
    assert find_isomorphism(klein, z4) is None


def test_find_isomorphism_symmetry_on_catalog():
    # catalog entries plus a few derived tables, everything up to 6 elements
    pool = [sg for sg in CATALOG.values() if sg.size <= 3]
    pool.append(direct_product(Z2, Z2))
    pool.append(product_table(Z2, builtin_system("left_zero")))
    pool.append(product_table(Z2, builtin_system("flip_flop")))
    for a in pool:
        for b in pool:
            fwd = find_isomorphism(a, b) is not None
            bwd = find_isomorphism(b, a) is not None
            assert fwd == bwd


def test_divides_reports_inconclusive_when_truncated():
    from lamrho import SearchCapError

    # ruling out every map of the flip-flop product onto Z3 takes 4 nodes
    flip = product_table(Z2, builtin_system("flip_flop"))
    with pytest.raises(SearchCapError, match="capped at 3 map-search nodes"):
        divides(Z3, flip, quotient_only=True, congruence_cap=3)
    assert divides(Z3, flip, quotient_only=True, congruence_cap=4) is None


def test_homomorphism_validation():
    with pytest.raises(NotAHomomorphismError):
        Homomorphism(Z2, Z2, (0, 0) if Z2.mul(1, 1) != 0 else (1, 0))
    ident = Homomorphism.identity(Z3)
    assert ident.is_bijective()


def test_subsemigroup_table_reindexes():
    sub = subsemigroup_table(L2_1, [1, 2])
    assert find_isomorphism(sub, L2) is not None
    from lamrho import NotClosedError

    with pytest.raises(NotClosedError):
        subsemigroup_table(Z3, [1])


def test_divides_paper_witnesses():
    flip = product_table(Z2, builtin_system("flip_flop"))
    witness = divides(L2_1, flip, quotient_only=True)
    assert witness is not None
    assert witness.sub_generators is None
    q = quotient(flip, witness.partition)
    assert find_isomorphism(q, L2_1) is not None

    lz = product_table(Z2, builtin_system("left_zero"))
    witness2 = divides(L2, lz, quotient_only=True)
    assert witness2 is not None
    q2 = quotient(lz, witness2.partition)
    assert find_isomorphism(q2, L2) is not None


def test_divides_cardinality_absent():
    assert divides(Z3, Z2) is None


def test_divides_subsemigroup_route():
    # l2 sits inside l2_1 as a subsemigroup, so full search finds it
    witness = divides(L2, L2_1, quotient_only=False)
    assert witness is not None


def test_divides_a_table_past_the_isomorphism_cap_by_itself():
    # 64 elements, twice find_isomorphism's default cap: every semigroup
    # divides itself, and the quotient search onto t runs uncapped
    from lamrho import JOIN2, RightAction, from_right_action

    trivial = RightAction(JOIN2, 5, tuple((x, x) for x in range(5)))
    big = product_table(Z2, from_right_action(trivial))
    assert big.size == 64
    for quotient_only in (True, False):
        witness = divides(big, big, quotient_only=quotient_only)
        assert witness.sub_generators is None
        assert witness.partition.num_classes() == 64


def test_revalidation_of_constructions():
    flip = product_table(Z2, builtin_system("flip_flop"))
    validate_table([list(r) for r in flip.table])
    q = quotient(flip, Partition.from_classes(6, [[0, 1], [2, 5], [3, 4]]))
    validate_table([list(r) for r in q.table])
    validate_table([list(r) for r in direct_product(Z2, Z3).table])


# ---------------------------------------------------------------------------
# The congruence engine against independent oracles


def _set_partitions(n):
    """Every partition of range(n), as restricted growth strings."""

    def extend(prefix, blocks):
        if len(prefix) == n:
            yield prefix
            return
        for b in range(blocks + 1):
            yield from extend(prefix + [b], max(blocks, b + 1))

    for labels in extend([], 0):
        classes = {}
        for x, b in enumerate(labels):
            classes.setdefault(b, []).append(x)
        yield Partition.from_classes(n, classes.values())


def _small_semigroups():
    """Every semigroup of the oracle pool: at most 6 elements."""
    pool = list(CATALOG.values())
    pairs = [sg for sg in CATALOG.values() if sg.size == 2]
    pool += [direct_product(a, b) for a in pairs for b in pairs]
    for name in ("left_zero", "non_semidirect", "flip_flop"):
        prod = product_table(Z2, builtin_system(name))
        pool.append(prod)
        subs = {
            subsemigroup_closure(prod, gens)
            for k in range(1, prod.size + 1)
            for gens in itertools.combinations(range(prod.size), k)
        }
        pool += [subsemigroup_table(prod, elems) for elems in sorted(subs)]
    return pool


def test_all_congruences_matches_brute_force():
    for sg in _small_semigroups():
        expected = sorted(
            (p for p in _set_partitions(sg.size) if is_congruence(sg, p)),
            key=lambda p: (-p.num_classes(), p.classes),
        )
        assert all_congruences(sg) == expected


def test_greedy_generators_matches_closure_from_scratch():
    from lamrho.semigroup import greedy_generators

    for sg in _small_semigroups():
        gens, closed = [], set()
        while len(closed) < sg.size:
            gens.append(min(set(sg.elements()) - closed))
            closed = set(subsemigroup_closure(sg, gens))
        assert greedy_generators(sg) == tuple(gens)


def _all_products_closure(sg, gens):
    """The generated subsemigroup from its definition: adjoin every product
    of two members until none is new."""
    closed = set(gens)
    frontier = list(closed)
    while frontier:
        fresh = []
        for x in frontier:
            for y in list(closed):
                for z in (sg.mul(x, y), sg.mul(y, x)):
                    if z not in closed:
                        closed.add(z)
                        fresh.append(z)
        frontier = fresh
    return tuple(sorted(closed))


def test_closure_matches_all_products_reference():
    from lamrho.semigroup import greedy_generators

    for sg in _small_semigroups():
        for k in (1, 2, 3):
            for gens in itertools.combinations(sg.elements(), k):
                assert subsemigroup_closure(sg, gens) == _all_products_closure(sg, gens)
        gens, closed = [], set()
        for x in sg.elements():
            if x not in closed:
                gens.append(x)
                closed = set(_all_products_closure(sg, gens))
        assert greedy_generators(sg) == tuple(gens)


def _relabelled(sg, perm):
    rows = [[0] * sg.size for _ in sg.elements()]
    for i in sg.elements():
        for j in sg.elements():
            rows[perm[i]][perm[j]] = perm[sg.mul(i, j)]
    return FiniteSemigroup.from_rows(rows)


def test_isomorphism_witness_is_least_in_generator_image_order():
    # the documented contract: among all isomorphisms, the one whose tuple
    # of images of greedy_generators(a) is least
    from lamrho.semigroup import greedy_generators

    pool = _small_semigroups()
    pool_pairs = [(a, b) for a in pool for b in pool if a.size == b.size]
    for a in pool:
        perm = list(a.elements())
        perm.reverse()
        pool_pairs.append((a, _relabelled(a, perm)))
        perm = perm[1:] + perm[:1]
        pool_pairs.append((a, _relabelled(a, perm)))
    for a, b in pool_pairs:
        gens = greedy_generators(a)
        isos = [
            m for m in itertools.permutations(b.elements())
            if all(
                m[a.mul(x, y)] == b.mul(m[x], m[y])
                for x in a.elements() for y in a.elements()
            )
        ]
        least = min(isos, key=lambda m: tuple(m[g] for g in gens), default=None)
        found = find_isomorphism(a, b)
        assert (None if found is None else found.map) == least


def test_divides_builds_no_closure_when_the_whole_semigroup_hits(monkeypatch):
    import lamrho.semigroup as sgmod

    built, calls = [], []
    closures = sgmod._closures

    def counting_closures(sg, *args):
        # the list is built when the generator first runs
        built.append(sg)
        for item in closures(sg, *args):
            calls.append(item)
            yield item

    monkeypatch.setattr(sgmod, "_closures", counting_closures)
    s = product_table(Z2, builtin_system("flip_flop"))
    witness = divides(L2_1, s)
    assert witness is not None and witness.sub_generators is None
    assert built == calls == []
    # an absent division is settled by the preimage search: no closure
    assert divides(R2, s) is None
    assert built == calls == []
    # Z2 divides Z4 with a zero adjoined only through a proper closure: the
    # list is built and tried up to the witness
    rows = [[(i + j) % 4 for j in range(4)] + [4] for i in range(4)] + [[4] * 5]
    z4_zero = validate_table(rows)
    witness = divides(Z2, z4_zero)
    everything = list(closures(z4_zero, 2))
    assert built == [z4_zero]
    assert calls == everything[:everything.index((witness.sub_generators,
                                                   witness.sub_elements)) + 1]
    # L4 with an identity: all 4 elements of L4 are products of no two
    # others, so no list is built, and the witness comes from the preimage
    # search
    built.clear()
    l4_1 = validate_table([list(range(5))] + [[x] * 5 for x in range(1, 5)])
    witness = divides(FiniteSemigroup.from_rows([[x] * 4 for x in range(4)]), l4_1)
    assert built == []
    assert witness.sub_generators == (1, 2, 3, 4)


def test_all_congruences_cap_counts_held_congruences():
    from lamrho import SearchCapError

    # Z2 has two congruences: the discrete one and one principal
    with pytest.raises(SearchCapError):
        all_congruences(Z2, cap=1)
    assert len(all_congruences(Z2, cap=2)) == 2


def _translation_fixpoint(sg, pairs):
    """Least congruence by pushing identified pairs through all 2|S|
    translations until nothing changes."""
    label = list(sg.elements())

    def merge(x, y):
        old, new = label[y], label[x]
        if old == new:
            return False
        for i, lab in enumerate(label):
            if lab == old:
                label[i] = new
        return True

    for a, b in pairs:
        merge(a, b)
    changed = True
    while changed:
        changed = False
        for x, y in itertools.combinations(sg.elements(), 2):
            if label[x] == label[y]:
                for c in sg.elements():
                    changed |= merge(sg.mul(x, c), sg.mul(y, c))
                    changed |= merge(sg.mul(c, x), sg.mul(c, y))
    classes = {}
    for x, lab in enumerate(label):
        classes.setdefault(lab, []).append(x)
    return Partition.from_classes(sg.size, classes.values())


_GENERATED_POOL = [
    direct_product(a, b)
    for a in CATALOG.values()
    for b in CATALOG.values()
    if a.size > 1 and b.size > 1
] + [
    product_table(Z3, builtin_system("flip_flop")),
    direct_product(direct_product(Z2, L2), direct_product(R2, JOIN2)),
    direct_product(L2_1, direct_product(Z2, L2)),
]


@given(
    st.sampled_from(_GENERATED_POOL).flatmap(
        lambda sg: st.tuples(
            st.just(sg),
            st.lists(
                st.tuples(
                    st.integers(0, sg.size - 1), st.integers(0, sg.size - 1)
                ),
                max_size=4,
            ),
        )
    )
)
@settings(max_examples=60, deadline=None)
def test_generated_congruence_matches_translation_fixpoint(case):
    sg, pairs = case
    assert sg.size <= 16
    assert congruence_generated_by(sg, pairs) == _translation_fixpoint(sg, pairs)


def test_generated_congruence_on_a_long_merge_chain():
    # in the null semigroup translations push nothing, so the pairs alone
    # chain 1..7 into one class, one union at a time
    null8 = FiniteSemigroup.from_rows([[0] * 8] * 8)
    chain = [(x, x + 1) for x in range(6, 0, -1)]
    expected = Partition.from_classes(8, [[0], range(1, 8)])
    assert _translation_fixpoint(null8, chain) == expected
    assert congruence_generated_by(null8, chain) == expected


def _divides_over_full_lattice(t, s, quotient_only):
    """The documented division search, run over every congruence."""

    def subs():
        whole = tuple(s.elements())
        yield None, whole
        if quotient_only:
            return
        first_gens = {}
        for k in (1, 2, 3):
            for gens in itertools.combinations(whole, k):
                closed = subsemigroup_closure(s, gens)
                if closed != whole and len(closed) >= t.size:
                    first_gens.setdefault(closed, gens)
        yield from sorted(
            ((gens, closed) for closed, gens in first_gens.items()),
            key=lambda item: (len(item[1]), item[1]),
        )

    for gens, elems in subs():
        sub = s if gens is None else subsemigroup_table(s, elems)
        for part in all_congruences(sub):
            if part.num_classes() == t.size:
                iso = find_isomorphism(quotient(sub, part), t)
                if iso is not None:
                    return (gens, elems, part, iso.map)
    return None


def _witness(t, s, quotient_only=False, cap=20000):
    w = divides(t, s, quotient_only=quotient_only, congruence_cap=cap)
    return None if w is None else (w.sub_generators, w.sub_elements, w.partition, w.iso.map)


def _regular_action(base):
    act = tuple(tuple(base.mul(x, y) for y in base.elements()) for x in base.elements())
    return RightAction(base, base.size, act)


def test_divides_witness_matches_full_lattice_search():
    # the three small products and the 32-element product of Z2 over the
    # two-sided action of L2 against every catalog target, and Z3 wr Z3
    # (81 elements) against the targets it has as quotients
    products = [product_table(Z2, builtin_system(name))
                for name in ("left_zero", "non_semidirect", "flip_flop")]
    products.append(product_table(Z2, from_two_sided_action(natural_two_sided_action(L2))))
    w = product_table(Z3, from_right_action(_regular_action(Z3)))
    pairs = [(t, s) for s in products for t in CATALOG.values()] + [(Z3, w), (TRIVIAL, w)]
    for t, s in pairs:
        for quotient_only in (True, False):
            got = _witness(t, s, quotient_only)
            assert got == _divides_over_full_lattice(t, s, quotient_only)


def test_a_capped_decision_leaves_the_witness_search_as_it_was():
    # a search one node short of what it needs is inconclusive; at the
    # count it needs, the witness is the one the full search finds
    from lamrho import SearchCapError

    s = product_table(Z2, builtin_system("flip_flop"))
    for t, quotient_only, needed in ((L2_1, True, 15), (L2, False, 13)):
        with pytest.raises(SearchCapError):
            divides(t, s, quotient_only=quotient_only, congruence_cap=needed - 1)
        got = _witness(t, s, quotient_only, needed)
        assert got == _divides_over_full_lattice(t, s, quotient_only)


def test_choosing_twins_in_order_keeps_the_kernel_search_small():
    # every map of L8 into L4 is a homomorphism, and each kernel is met by
    # 4! of them; choosing the twin zeros of L4 in order meets it once
    from lamrho import SearchCapError
    from lamrho.semigroup import _maps, _node_budget, _targets, greedy_generators

    l4, l8 = (validate_table([[x] * n for x in range(n)]) for n in (4, 8))
    r4 = validate_table([list(range(4))] * 4)
    for t, s, cap in ((l4, l8, 4000), (R2, r4, 25)):
        assert _witness(t, s, cap=cap) == _divides_over_full_lattice(t, s, False)
        # the same search with twins in any order passes the cap
        fits = _targets(s, t)
        slots = [[(g, y) for y in fits[g]] for g in greedy_generators(s)]
        with pytest.raises(SearchCapError):
            list(_maps(s.table, t.table, slots, _node_budget(cap), onto=True))


def test_irreducible_images_keep_a_large_left_zero_target_under_the_cap():
    # every element of L8 is a product of no two others, so each is a chosen
    # image of an onto map, and a branch with too few slots left for the
    # missing ones is cut; with twins alone L8 in L9 passed 20,000 nodes
    l8, l9 = (validate_table([[x] * n for x in range(n)]) for n in (8, 9))
    w = divides(l8, l9, congruence_cap=600)
    assert (w.sub_generators, w.sub_elements) == (None, tuple(range(9)))
    assert w.partition.classes == tuple((x,) for x in range(7)) + ((7, 8),)


def test_divides_tries_the_smaller_closure_first():
    # Z4 with a zero adjoined has no Z2 quotient, but two closures do: Z4,
    # generated by 1, and {0, 2}, generated by 2. The smaller comes first.
    rows = [[(i + j) % 4 for j in range(4)] + [4] for i in range(4)] + [[4] * 5]
    s = validate_table(rows)
    w = divides(Z2, s)
    assert (w.sub_generators, w.sub_elements) == ((2,), (0, 2))
    assert _divides_over_full_lattice(Z2, s, False)[:2] == ((2,), (0, 2))


def test_extend_refuses_a_clash_and_a_repeated_image():
    from lamrho.semigroup import _extend

    # 1 -> 0 would send the Z2 generator's square 0 to 0 as well
    assert not _extend(Z2.table, Z2.table, {}, [], 1, 0)
    # 1 -> 1 in Z3 sends 1*1 = 0 to 2, and then 0*1 = 1 to 0, not 1
    assert not _extend(Z2.table, Z3.table, {}, [], 1, 1)
    phi = {}
    assert _extend(Z3.table, Z3.table, phi, [], 1, 2)
    assert phi == {0: 0, 1: 2, 2: 1}
    # the identity map on a closure grows by the edges the new element adds
    phi = {0: 0}
    assert _extend(L2_1.table, L2_1.table, phi, [0], 1, 1)
    assert phi == {0: 0, 1: 1}
    assert not _extend(L2_1.table, L2_1.table, dict(phi), [0, 1], 2, 1)


# ---------------------------------------------------------------------------
# Light's associativity test against the lexicographic scan


def test_associativity_witness_matches_scan_on_every_small_magma():
    # all 1 + 2^4 + 3^9 tables on at most three elements
    for n in (1, 2, 3):
        for entries in itertools.product(range(n), repeat=n * n):
            rows = [entries[i * n:(i + 1) * n] for i in range(n)]
            assert associativity_witness(rows) == brute_force_nonassoc(rows)


_MAGMA_POOL = list(CATALOG.values()) + [
    sg for sg in _GENERATED_POOL if sg.size <= 12
]


@st.composite
def _magmas(draw):
    """Random tables, and relabelled semigroups of the pool with at most one
    entry changed, on at most 12 elements."""
    kind = draw(st.sampled_from(("random", "semigroup", "perturbed")))
    if kind == "random":
        n = draw(st.integers(1, 12))
        return draw(
            st.lists(
                st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        )
    sg = draw(st.sampled_from(_MAGMA_POOL))
    n = sg.size
    p = draw(st.permutations(range(n)))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            rows[p[i]][p[j]] = p[sg.mul(i, j)]
    if kind == "perturbed":
        i, j, v = (draw(st.integers(0, n - 1)) for _ in range(3))
        rows[i][j] = v
    return rows


@given(_magmas())
@settings(max_examples=300, deadline=None)
def test_associativity_witness_matches_scan_on_random_magmas(rows):
    assert associativity_witness(rows) == brute_force_nonassoc(rows)


# ---------------------------------------------------------------------------
# The byte-row kernel at its size limits


def _tuple_light_witness(rows):
    """Light's test on tuple rows over the greedy generators, then the
    lexicographic scan: the kernel's path beyond 256 elements, written
    again as a reference."""
    rows = [tuple(r) for r in rows]
    n = len(rows)
    gens = semigroup._greedy_generators(rows)
    if n > 1 and all(
        tuple(row_x[v] for v in rows[g]) == rows[row_x[g]] for g in gens for row_x in rows
    ):
        return None
    return brute_force_nonassoc(rows)


def _first_failure_at(rows, a, b):
    """First failing triple of a table that associates but for the cell
    (a, b): every failing triple reads that cell as i*j, (i*j)*k, j*k or
    i*(j*k), so only those O(n^2) candidates are scanned."""
    n = len(rows)
    candidates = {(a, b, k) for k in range(n)} | {(i, a, b) for i in range(n)}
    candidates |= {(i, j, b) for i in range(n) for j in range(n) if rows[i][j] == a}
    candidates |= {(a, j, k) for j in range(n) for k in range(n) if rows[j][k] == b}
    for i, j, k in sorted(candidates):
        if rows[rows[i][j]][k] != rows[i][rows[j][k]]:
            return (i, j, k)
    return None


def _cyclic(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def _left_zero(n):
    # its only generating set is every element, so G = S
    return [[i] * n for i in range(n)]


def _left_zero_times_cyclic(m, n):
    return [[(i // n) * n + (i + j) % n for j in range(m * n)] for i in range(m * n)]


_EDGE = semigroup._GREEDY_FROM
_BYTES = semigroup._BYTE_ROWS
_EDGE_TABLES = {
    f"{name}{n}": (make, n)
    for n in (_EDGE - 1, _EDGE, _EDGE + 1, _BYTES - 1, _BYTES, _BYTES + 1)
    for name, make in (("cyclic", _cyclic), ("left_zero", _left_zero))
}
_EDGE_TABLES.update({
    "left_zero8_times_cyclic8": (lambda n: _left_zero_times_cyclic(8, 8), 64),
    "left_zero15_times_cyclic17": (lambda n: _left_zero_times_cyclic(15, 17), 255),
    "left_zero16_times_cyclic16": (lambda n: _left_zero_times_cyclic(16, 16), 256),
})


@pytest.mark.parametrize("name", sorted(_EDGE_TABLES))
def test_the_byte_kernel_at_its_size_limits(name):
    make, n = _EDGE_TABLES[name]
    rows = make(n)
    assert len(rows) == n
    assert associativity_witness(rows) is None
    if n <= _EDGE + 1:
        assert brute_force_nonassoc(rows) is None
    elif not name.startswith("left_zero"):  # n generators: n^3 steps in Python
        assert _tuple_light_witness(rows) is None
    # one entry changed late in lexicographic order; a left-zero table
    # beyond the byte limit is changed in row 1, as the tuple kernel's scan
    # walks n^2 triples for every row before the failing one
    a = 1 if n > _BYTES and name.startswith("left_zero") else n - 1
    b = n - 2
    rows[a][b] = (rows[a][b] + 1) % n
    witness = _first_failure_at(rows, a, b)
    assert witness is not None and associativity_witness(rows) == witness
    if n <= _EDGE + 1:
        assert brute_force_nonassoc(rows) == witness
    elif witness[0] < 2:
        assert _tuple_light_witness(rows) == witness


def test_small_tables_walk_no_generators_and_large_ones_do(monkeypatch):
    walked = []
    greedy = semigroup._greedy_generators
    monkeypatch.setattr(
        semigroup, "_greedy_generators", lambda rows: walked.append(len(rows)) or greedy(rows)
    )
    for n in (_EDGE - 1, _EDGE, _BYTES + 1):
        assert associativity_witness(_cyclic(n)) is None
    assert walked == [_EDGE, _BYTES + 1]


def test_a_failing_light_test_leaves_the_witness_to_the_full_scan():
    # Z_n with (n-1)*(n-2) changed: Light's test over G = (0, 1) first
    # fails in row n-2, but the first failing triple has j = n-1, no
    # generator, in an earlier row
    for n in (_EDGE, _BYTES):
        rows = _cyclic(n)
        rows[n - 1][n - 2] = 1
        assert semigroup._greedy_generators(rows) == (0, 1)
        light = semigroup._byte_witness(semigroup._checked_rows(rows), bytes((0, 1)))
        witness = _first_failure_at(rows, n - 1, n - 2)
        assert light[0] == n - 2 and witness[0] < light[0]
        assert associativity_witness(rows) == witness


@pytest.mark.parametrize("n", [2, 3, _EDGE, _BYTES - 1, _BYTES, _BYTES + 1])
@pytest.mark.parametrize("value", ["negative", "n", "byte"])
def test_an_entry_outside_the_elements_is_refused(n, value):
    rows = _cyclic(n)
    bad = {"negative": -1, "n": n, "byte": max(n, 256) + 44}[value]
    rows[n - 1][n - 1] = bad
    with pytest.raises(OutOfRangeEntryError) as err:
        associativity_witness(rows)
    assert str(err.value) == f"entry ({n - 1},{n - 1}) = {bad} is not an element index"


def test_a_negative_entry_is_not_read_from_the_end():
    with pytest.raises(OutOfRangeEntryError, match=r"entry \(1,1\) = -1"):
        associativity_witness([[0, 1], [1, -1]])


@pytest.mark.parametrize("n", [3, _BYTES + 1])
def test_a_short_row_is_refused(n):
    rows = _cyclic(n)
    rows[1] = rows[1][:-1]
    with pytest.raises(TableFormatError, match=f"row 1 has length {n - 1}, expected {n}"):
        associativity_witness(rows)


def test_a_row_that_is_no_sequence_is_refused():
    for table in ([2, 2], [(0, 1), 2]):
        with pytest.raises(TypeError):
            associativity_witness(table)
