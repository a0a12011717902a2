import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import _perturbed_single_axiom_candidates
from test_checkers import perturbations

from lamrho import (
    CATALOG,
    JOIN2,
    L2,
    L2_1,
    MEET2,
    TRIVIAL,
    Z2,
    Z3,
    EmptyFiberError,
    FiniteSemigroup,
    LrSystem,
    NotIdempotentError,
    ProductElement,
    associativity_oracle,
    axiom_violations,
    builtin_system,
    element_as_subset,
    embed_base,
    embed_fiber,
    empty_system,
    enumerate_systems,
    find_isomorphism,
    multiply,
    nonassociativity_witness,
    product_table,
    subset_multiply,
    triple_associates,
    universe,
    universe_size,
    validate_table,
)

# The two worked multiplication tables, frozen in their listed element
# order 0,1,00,11,01,10 and 00,11,01,10; values are positions in that order.
KNOWN_6X6 = [
    [0, 1, 2, 3, 4, 5],
    [1, 0, 3, 2, 5, 4],
    [2, 3, 2, 3, 2, 3],
    [3, 2, 3, 2, 3, 2],
    [4, 5, 4, 5, 4, 5],
    [5, 4, 5, 4, 5, 4],
]
KNOWN_6_ORDER = ["0:0", "0:1", "1:00", "1:11", "1:01", "1:10"]

KNOWN_4X4 = [
    [0, 1, 0, 1],
    [1, 0, 1, 0],
    [2, 3, 2, 3],
    [3, 2, 3, 2],
]
KNOWN_4_ORDER = ["0:00", "0:11", "0:01", "0:10"]


def remap(table_sg, listed_order):
    perm = [table_sg.names.index(n) for n in listed_order]
    inv = {m: p for p, m in enumerate(perm)}
    return [
        [inv[table_sg.table[perm[i]][perm[j]]] for j in range(table_sg.size)]
        for i in range(table_sg.size)
    ]


def test_universe_sizes():
    flip = builtin_system("flip_flop")
    assert universe_size(Z2, flip) == 6
    assert len(universe(Z2, flip)) == 6
    assert universe_size(Z2, builtin_system("non_semidirect")) == 5
    assert universe_size(MEET2, builtin_system("non_semidirect")) == 5
    for system in (flip, builtin_system("left_zero")):
        assert universe_size(TRIVIAL, system) == system.base.size


def test_universe_order_is_anchor_major_lexicographic():
    flip = builtin_system("flip_flop")
    elems = universe(Z2, flip)
    assert [e.label() for e in elems] == [
        "0:0", "0:1", "1:00", "1:01", "1:10", "1:11",
    ]


def test_universe_cap():
    from lamrho import SizeCapError

    with pytest.raises(SizeCapError):
        universe(Z3, builtin_system("flip_flop"), cap=5)


def test_product_table_checks_its_cap_before_any_row(monkeypatch):
    from lamrho import SizeCapError, product

    def no_rows(*args):
        raise AssertionError("a row was built")

    monkeypatch.setattr(product, "_rows", no_rows)
    with pytest.raises(SizeCapError):
        product_table(Z3, builtin_system("flip_flop"), cap=11)


def test_product_table_is_what_the_checked_constructor_accepts():
    # product_table skips the entry check of FiniteSemigroup; the checked
    # constructor must accept its result unchanged, every entry an exact int
    systems = [
        builtin_system(name)
        for name in ("left_zero", "flip_flop", "non_semidirect", "boolean_shadow")
    ]
    for base in CATALOG.values():
        for sizes in itertools.product(range(3), repeat=base.size):
            systems.extend(enumerate_systems(base, sizes))
    assert len(systems) == 4 + 2437
    for system in systems:
        for h in (Z2, Z3):
            t = product_table(h, system)
            assert FiniteSemigroup(t.size, t.table, t.names) == t
            assert all(type(v) is int for row in t.table for v in row)


def test_multiply_matches_listed_cells():
    flip = builtin_system("flip_flop")
    p = ProductElement(1, (0, 1))
    q = ProductElement(1, (1, 1))
    assert multiply(Z2, flip, p, q) == ProductElement(1, (1, 0))
    lz = builtin_system("left_zero")
    assert multiply(
        Z2, lz, ProductElement(0, (0, 1)), ProductElement(0, (1, 1))
    ) == ProductElement(0, (1, 0))
    es = empty_system(Z2)
    assert multiply(
        Z2, es, ProductElement(0, ()), ProductElement(1, ())
    ) == ProductElement(1, ())


def test_flip_flop_table_reproduces_listing():
    table = product_table(Z2, builtin_system("flip_flop"))
    assert remap(table, KNOWN_6_ORDER) == KNOWN_6X6


def test_left_zero_table_reproduces_listing():
    table = product_table(Z2, builtin_system("left_zero"))
    assert remap(table, KNOWN_4_ORDER) == KNOWN_4X4


def test_trivial_coefficients_reproduce_the_base():
    for system in (
        builtin_system("flip_flop"),
        builtin_system("left_zero"),
        empty_system(Z3),
    ):
        table = product_table(TRIVIAL, system)
        assert find_isomorphism(table, system.base) is not None


def test_product_tables_revalidate():
    for name in ("flip_flop", "left_zero", "non_semidirect"):
        t = product_table(Z2, builtin_system(name))
        validate_table([list(r) for r in t.table])


def test_associativity_oracle_on_valid_systems():
    assert associativity_oracle(Z2, builtin_system("flip_flop"))
    assert associativity_oracle(JOIN2, builtin_system("non_semidirect"))


def bad_trivial(lam, rho):
    return LrSystem(TRIVIAL, (len(lam),), (tuple(lam),), (tuple(rho),))


def test_associativity_oracle_finds_noncommuting_failure():
    # two constant maps that do not commute break the mixed axiom
    cand = bad_trivial([0, 0], [1, 1])
    report = axiom_violations(cand)
    assert {v.axiom for v in report} == {"gamma"}
    oracle = associativity_oracle(Z2, cand)
    assert not oracle
    p, q, r = oracle.witness
    assert not triple_associates(Z2, cand, (p, q, r))


def test_associativity_oracle_trivial_coefficients_always_pass():
    cand = bad_trivial([1, 0], [0, 1])  # wildly invalid candidate
    assert axiom_violations(cand)
    assert associativity_oracle(TRIVIAL, cand)


@pytest.mark.parametrize(
    "lam,rho,expected_axiom",
    [
        ([1, 0], [0, 0], "alpha"),  # swap fails idempotence
        ([0, 1], [1, 0], "beta"),
        ([0, 0], [1, 1], "gamma"),
    ],
)
def test_nonassociativity_witness_patterns(lam, rho, expected_axiom):
    cand = bad_trivial(lam, rho)
    report = axiom_violations(cand)
    first = report[0]
    assert first.axiom == expected_axiom
    h, triple = nonassociativity_witness(cand, first)
    validate_table([list(r) for r in h.table])  # the coefficient semigroup is real
    assert not triple_associates(h, cand, triple)
    assert not associativity_oracle(h, cand)


def test_nonassociativity_witness_on_larger_base():
    # flatten lambda[1,0]; this breaks (alpha) at the triple (1,0,1)
    z = builtin_system("flip_flop")
    lam = list(z.lam)
    lam[1 * 2 + 0] = (0, 0)
    cand = LrSystem(z.base, z.index_sizes, tuple(lam), z.rho)
    report = axiom_violations(cand)
    assert report
    h, triple = nonassociativity_witness(cand, report[0])
    assert not triple_associates(h, cand, triple)
    assert not associativity_oracle(h, cand)


def test_embed_base():
    flip = builtin_system("flip_flop")
    hom = embed_base(Z2, flip, 0)
    assert hom.is_injective()
    table = product_table(Z2, flip)
    assert [table.name_of(i) for i in hom.map] == ["0:0", "1:00"]
    with pytest.raises(NotIdempotentError):
        embed_base(Z2, flip, 1)


def test_embed_base_trivial_coefficients_is_the_iso():
    es = empty_system(Z2)
    hom = embed_base(TRIVIAL, es, 0)
    assert hom.is_bijective()


def test_embed_fiber():
    flip = builtin_system("flip_flop")
    hom = embed_fiber(Z2, flip, 1)
    table = product_table(Z2, flip)
    assert [table.name_of(i) for i in hom.map] == ["1:00", "1:11"]
    hom0 = embed_fiber(Z2, flip, 0)
    assert [table.name_of(i) for i in hom0.map] == ["0:0", "0:1"]
    with pytest.raises(EmptyFiberError):
        embed_fiber(Z2, builtin_system("non_semidirect"), 0)


def test_embed_base_left_zero_coefficients():
    # both elements of the left-zero semigroup are idempotent
    flip = builtin_system("flip_flop")
    for e in (0, 1):
        hom = embed_base(L2, flip, e)
        assert hom.is_injective()


def test_embed_fiber_singleton_system_gives_the_coefficient_factor():
    from lamrho import singleton_system

    hom = embed_fiber(Z2, singleton_system(JOIN2), 0)
    assert hom.is_injective()
    table = product_table(Z2, singleton_system(JOIN2))
    assert [table.name_of(i) for i in hom.map] == ["0:0", "0:1"]


@given(
    st.lists(st.integers(0, 1), min_size=3, max_size=3),
    st.lists(st.integers(0, 1), min_size=3, max_size=3),
    st.lists(st.integers(0, 2), min_size=4, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_pointwise_composition_law(xs, ys, f):
    # (x o f) . (y o f) == (x . y) o f, pointwise in any semigroup
    for sg in (Z2, L2, JOIN2):
        lhs = [sg.mul(xs[f[i] % 3], ys[f[i] % 3]) for i in range(4)]
        xy = [sg.mul(xs[i], ys[i]) for i in range(3)]
        rhs = [xy[f[i] % 3] for i in range(4)]
        assert lhs == rhs


def test_subset_form_agrees_with_tuple_form():
    flip = builtin_system("flip_flop")
    ops = {"join": JOIN2, "meet": MEET2, "left": L2, "xor": Z2}
    for op in ops.values():
        elems = universe(op, flip)
        for p in elems:
            for q in elems:
                direct = multiply(op, flip, p, q)
                shadow = subset_multiply(
                    op, flip, element_as_subset(p), element_as_subset(q)
                )
                assert shadow == element_as_subset(direct)


def test_product_names_follow_anchor_digit_scheme():
    t = product_table(Z2, builtin_system("non_semidirect"))
    assert t.names == ("0:", "1:00", "1:01", "1:10", "1:11")


# ---------------------------------------------------------------------------
# The integer engine against the cell-by-cell construction


def reference_product_table(h, system):
    """Every cell formed as a ProductElement by ``multiply`` and looked up
    in a universe-to-index dict; returns the table and the names."""
    elems = universe(h, system)
    index = {e: i for i, e in enumerate(elems)}
    table = tuple(
        tuple(index[multiply(h, system, p, q)] for q in elems) for p in elems
    )
    return table, tuple(e.label() for e in elems)


def reference_oracle_witness(h, system):
    """First failing triple of the reference table in lexicographic order."""
    elems = universe(h, system)
    table, _ = reference_product_table(h, system)
    for i, j, k in itertools.product(range(len(elems)), repeat=3):
        if table[table[i][j]][k] != table[i][table[j][k]]:
            return (elems[i], elems[j], elems[k])
    return None


def test_product_table_matches_reference_on_acceptance_systems():
    # the systems of criterion 05 (catalog bases of size <= 3, fibers <= 2,
    # 200 systems per vector) and the perturbed candidates of criterion 06
    systems = [
        system
        for base in CATALOG.values()
        if base.size <= 3
        for sizes in itertools.product(range(3), repeat=base.size)
        for system in enumerate_systems(base, sizes, limit=200)
    ]
    found, _ = _perturbed_single_axiom_candidates(minimum=50)
    systems += [cand for items in found.values() for cand, _ in items]
    for system in systems:
        for h in (Z2, L2, JOIN2):
            table = product_table(h, system)
            assert (table.table, table.names) == reference_product_table(h, system)


@st.composite
def shape_valid_systems(draw):
    """A coefficient semigroup and a system that is shape-valid but in
    general breaks the axioms: random fiber sizes, emptied where a product
    of an empty fiber would land, and random maps."""
    base = draw(st.sampled_from(list(CATALOG.values())))
    n = base.size
    sizes = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    changed = True
    while changed:
        changed = False
        for a, b in itertools.product(range(n), repeat=2):
            if sizes[base.mul(a, b)] and not (sizes[a] and sizes[b]):
                sizes[base.mul(a, b)] = 0
                changed = True
    lam, rho = [], []
    for a in range(n):
        for b in range(n):
            k = sizes[base.mul(a, b)]
            for maps, cod in ((lam, sizes[a]), (rho, sizes[b])):
                maps.append(tuple(
                    draw(st.lists(st.integers(0, cod - 1), min_size=k, max_size=k))
                    if k else ()
                ))
    h = draw(st.sampled_from([TRIVIAL, Z2, L2, JOIN2, Z3, L2_1]))
    return h, LrSystem(base, tuple(sizes), tuple(lam), tuple(rho))


@given(shape_valid_systems())
@settings(max_examples=80, deadline=None)
def test_product_table_matches_reference_on_random_systems(case):
    h, system = case
    table = product_table(h, system)
    assert (table.table, table.names) == reference_product_table(h, system)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_associativity_oracle_matches_reference_on_perturbations(name):
    # every system with fibers <= 2 over the base and every system one
    # entry away from one of them, as in test_checkers; for l2_1 (53k
    # distinct systems) every 50th of them
    base = CATALOG[name]
    seen = set()
    candidates = []
    for sizes in itertools.product(range(3), repeat=base.size):
        for system in enumerate_systems(base, sizes):
            for candidate in itertools.chain((system,), perturbations(system)):
                key = (candidate.index_sizes, candidate.lam, candidate.rho)
                if key not in seen:
                    seen.add(key)
                    candidates.append(candidate)
    if name == "l2_1":
        candidates = candidates[::50]
    failing = 0
    for candidate in candidates:
        expected = reference_oracle_witness(Z2, candidate)
        report = associativity_oracle(Z2, candidate)
        assert report.witness == expected
        assert bool(report) == (expected is None)
        failing += expected is not None
    assert failing > 0 or name == "trivial"
