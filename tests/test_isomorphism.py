"""The colour-refined isomorphism search against the fingerprint-filtered
search it replaced, the row-wise homomorphism check against the double
loop, and the incremental division closures against closures built from
scratch."""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lamrho.semigroup as sgmod
from lamrho import (
    CATALOG,
    JOIN2,
    L2,
    R2,
    TRIVIAL,
    Z2,
    Z3,
    FiniteSemigroup,
    Homomorphism,
    NotAHomomorphismError,
    RightAction,
    builtin_system,
    divides,
    find_isomorphism,
    from_right_action,
    from_two_sided_action,
    natural_two_sided_action,
    product_table,
    subsemigroup_closure,
    wreath_oracle,
)
from lamrho.semigroup import _closures, _colours, element_order_profile, greedy_generators


def regular_action(base):
    act = tuple(tuple(base.mul(x, s) for s in base.elements()) for x in base.elements())
    return RightAction(base, base.size, act)


def trivial_action(base, points):
    return RightAction(base, points, tuple((x,) * base.size for x in range(points)))


def shuffled(rng, n):
    p = list(range(n))
    rng.shuffle(p)
    return p


def relabelled(sg, p):
    """The copy of ``sg`` in which element i is called p[i]; not validated,
    so that magmas can be relabelled too."""
    rows = [[0] * sg.size for _ in sg.elements()]
    for i in sg.elements():
        for j in sg.elements():
            rows[p[i]][p[j]] = p[sg.mul(i, j)]
    return FiniteSemigroup.from_rows(rows)


PRODUCTS = {
    "P4": product_table(Z2, builtin_system("left_zero")),
    "P5": product_table(Z2, builtin_system("non_semidirect")),
    "P6": product_table(Z2, builtin_system("flip_flop")),
    "P8": product_table(Z2, from_right_action(regular_action(L2))),
    "P12": product_table(Z3, builtin_system("flip_flop")),
    "P16": product_table(Z2, from_right_action(trivial_action(JOIN2, 3))),
    "P32": product_table(Z2, from_two_sided_action(natural_two_sided_action(L2))),
}
Z3_WR_Z3 = product_table(Z3, from_right_action(regular_action(Z3)))
MAGMA = FiniteSemigroup.from_rows([[1, 0, 2], [2, 2, 0], [0, 1, 1]])  # not associative


# ---------------------------------------------------------------------------
# The search as it was before colour refinement, kept as the reference


def _old_fingerprint(sg, i):
    row = sg.table[i]
    col = tuple(sg.table[j][i] for j in sg.elements())
    return (
        sg.is_idempotent(i),
        element_order_profile(sg, i),
        tuple(sorted(Counter(row).values())),
        tuple(sorted(Counter(col).values())),
        row.count(i),
        col.count(i),
    )


def _old_find_isomorphism(a, b):
    if a.size != b.size:
        return None
    fb = [_old_fingerprint(b, i) for i in b.elements()]
    fa = [_old_fingerprint(a, i) for i in a.elements()]
    if sorted(fa) != sorted(fb):
        return None
    gens = greedy_generators(a)
    candidates = [[j for j in b.elements() if fb[j] == fa[g]] for g in gens]

    def backtrack(k, phi):
        if k == len(gens):
            try:
                return Homomorphism(a, b, tuple(phi[x] for x in a.elements()))
            except NotAHomomorphismError:
                return None
        for img in candidates[k]:
            trial = dict(phi)
            if sgmod._extend(a.table, b.table, trial, gens[:k], gens[k], img):
                found = backtrack(k + 1, trial)
                if found is not None:
                    return found
        return None

    return backtrack(0, {})


def _same_witness(a, b):
    new, old = find_isomorphism(a, b, cap=a.size), _old_find_isomorphism(a, b)
    assert (None if new is None else new.map) == (None if old is None else old.map)
    return new


def test_witness_matches_old_search_on_catalog_pairs():
    for a, b in itertools.product(CATALOG.values(), repeat=2):
        _same_witness(a, b)


@pytest.mark.parametrize("name", sorted(PRODUCTS))
def test_witness_matches_old_search_on_relabelled_products(name):
    sg = PRODUCTS[name]
    copy = relabelled(sg, shuffled(random.Random(f"relabel-{name}"), sg.size))
    assert _same_witness(sg, copy) is not None
    assert _same_witness(copy, sg) is not None


def involution_action(rng, points):
    """Z2 acting on ``points`` points through a random involution."""
    sigma = list(range(points))
    order = shuffled(rng, points)
    for i in range(0, points - 1 - rng.randrange(2), 2):
        x, y = order[i], order[i + 1]
        sigma[x], sigma[y] = y, x
    return RightAction(Z2, points, tuple((x, sigma[x]) for x in range(points)))


def relabelled_action(action, rng):
    p = shuffled(rng, action.base.size)
    q = shuffled(rng, action.carrier)
    act = [[0] * action.base.size for _ in range(action.carrier)]
    for x in range(action.carrier):
        for s in action.base.elements():
            act[q[x]][p[s]] = q[action.act[x][s]]
    return RightAction(relabelled(action.base, p), action.carrier, tuple(map(tuple, act)))


def test_witness_matches_old_search_on_the_fixed_label_32_element_product():
    # the fixed-label query of the decompose benchmark: the engine's product
    # against the wreath oracle of a relabelled action
    fixed = random.Random("iso32-88")
    action = involution_action(fixed, 4)
    engine = product_table(Z2, from_right_action(action))
    oracle = wreath_oracle(Z2, relabelled_action(action, fixed))
    assert engine.size == 32
    assert _same_witness(engine, oracle) is not None


def test_witness_matches_old_search_on_z3_wr_z3():
    copy = relabelled(Z3_WR_Z3, shuffled(random.Random("relabel-W"), Z3_WR_Z3.size))
    assert _same_witness(Z3_WR_Z3, copy) is not None


def _tables(n):
    return st.lists(
        st.lists(st.integers(0, n - 1), min_size=n, max_size=n), min_size=n, max_size=n
    ).map(FiniteSemigroup.from_rows)


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(_tables(n), st.permutations(range(n)), _tables(n))
    )
)
@settings(max_examples=200, deadline=None)
def test_witness_matches_old_search_on_small_magmas(case):
    a, p, other = case
    assert _same_witness(a, relabelled(a, p)) is not None
    _same_witness(a, other)
    _same_witness(other, a)


# the small-product grid of the decompose benchmark: whether each target
# divides each product, quotients only and then with subsemigroups
DIVISION_TARGETS = ("z2", "z3", "l2", "r2", "l2_1", "join2", "meet2")
SMALL_DIVISIONS = {
    "P4": ("1010000", "1010000"),
    "P5": ("0000011", "1000011"),
    "P6": ("1000111", "1010111"),
    "P8": ("1010000", "1010000"),
    "P12": ("0100111", "0110111"),
}


def test_divides_witnesses_match_old_search():
    def witnesses():
        out = []
        for name, answers in SMALL_DIVISIONS.items():
            for quotient_only, bits in zip((True, False), answers):
                for target, bit in zip(DIVISION_TARGETS, bits):
                    w = divides(CATALOG[target], PRODUCTS[name], quotient_only)
                    assert (w is not None) == (bit == "1")
                    out.append(w and (w.sub_generators, w.sub_elements,
                                      w.partition.classes, w.iso.map))
        return out

    new = witnesses()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sgmod, "_find_isomorphism", _old_find_isomorphism)
        assert witnesses() == new


# ---------------------------------------------------------------------------
# Colours


@given(
    st.sampled_from(list(CATALOG.values()) + list(PRODUCTS.values())[:5] + [MAGMA]).flatmap(
        lambda sg: st.tuples(st.just(sg), st.permutations(range(sg.size)))
    )
)
@settings(max_examples=60, deadline=None)
def test_colours_follow_a_relabelling(case):
    sg, p = case
    ca, cb = _colours(sg, relabelled(sg, p))
    assert all(ca[x] == cb[p[x]] for x in sg.elements())


def test_colours_split_what_the_old_fingerprints_merged():
    fixed = random.Random("iso32-88")
    action = involution_action(fixed, 4)
    engine = product_table(Z2, from_right_action(action))
    ca, _ = _colours(engine, engine)
    prints = [_old_fingerprint(engine, x) for x in engine.elements()]
    assert len(set(ca)) > len(set(prints))


def test_colours_refuse_unequal_multisets():
    # Z4 has an element of order 4, the Klein group none
    z4 = FiniteSemigroup.from_rows([[(i + j) % 4 for j in range(4)] for i in range(4)])
    klein = FiniteSemigroup.from_rows([[i ^ j for j in range(4)] for i in range(4)])
    assert _colours(z4, klein) is None
    assert _colours(Z2, JOIN2) is None


def test_rows_alone_do_not_tell_l2_from_r2():
    # every row refines to one colour in both, so the backtrack decides
    assert _colours(L2, R2) is not None
    assert find_isomorphism(L2, R2) is None
    assert find_isomorphism(R2, L2) is None


# ---------------------------------------------------------------------------
# The row-wise homomorphism check


def _first_break(dom, cod, m):
    for x in dom.elements():
        for y in dom.elements():
            if m[dom.mul(x, y)] != cod.mul(m[x], m[y]):
                return (x, y)
    return None


_HOM_POOL = list(CATALOG.values()) + list(PRODUCTS.values())[:4] + [MAGMA]


@given(
    st.tuples(st.sampled_from(_HOM_POOL), st.sampled_from(_HOM_POOL)).flatmap(
        lambda pair: st.tuples(
            st.just(pair[0]),
            st.just(pair[1]),
            st.lists(
                st.integers(0, pair[1].size - 1),
                min_size=pair[0].size,
                max_size=pair[0].size,
            ),
        )
    )
)
@settings(max_examples=300, deadline=None)
def test_homomorphism_check_names_the_first_broken_pair(case):
    dom, cod, m = case
    expected = _first_break(dom, cod, m)
    if expected is None:
        assert Homomorphism(dom, cod, tuple(m)).map == tuple(m)
    else:
        with pytest.raises(NotAHomomorphismError) as exc:
            Homomorphism(dom, cod, tuple(m))
        assert str(exc.value) == "map breaks the product at ({},{})".format(*expected)


def test_homomorphism_check_on_one_element_tables():
    with pytest.raises(NotAHomomorphismError, match=r"^map breaks the product at \(0,0\)$"):
        Homomorphism(TRIVIAL, Z2, (1,))
    assert Homomorphism(TRIVIAL, Z2, (0,)).map == (0,)
    assert Homomorphism(TRIVIAL, TRIVIAL, (0,)).map == (0,)
    assert Homomorphism(Z3, TRIVIAL, (0, 0, 0)).map == (0, 0, 0)
    # the pair named is the first one of the first broken row: 1+1 -> 1
    # but 1+1 = 2
    with pytest.raises(NotAHomomorphismError, match=r"at \(1,1\)$"):
        Homomorphism(Z3, Z3, (0, 1, 1))


# ---------------------------------------------------------------------------
# Division closures


def _old_closures(s, min_size):
    first = {}
    for k in (1, 2, 3):
        for gens in itertools.combinations(range(s.size), k):
            first.setdefault(subsemigroup_closure(s, gens), gens)
    subs = [(g, c) for c, g in first.items() if min_size <= len(c) < s.size]
    return sorted(subs, key=lambda item: (len(item[1]), item[1]))


@pytest.mark.parametrize("name", sorted(PRODUCTS))
def test_closures_match_closures_from_scratch(name):
    s = PRODUCTS[name]
    assert list(_closures(s, 1)) == _old_closures(s, 1)
    assert list(_closures(s, 3)) == _old_closures(s, 3)


def test_closures_match_closures_from_scratch_on_z3_wr_z3():
    new = list(_closures(Z3_WR_Z3, 2))
    assert new == _old_closures(Z3_WR_Z3, 2)
    assert len(new) == 48


def test_closures_keep_the_fewest_generators():
    # Z3 with a zero adjoined as 0: <2> = {1, 2, 3} is met as <1, 2> first
    # when the generators are walked in order, but (2,) is its first tuple
    z3_zero = FiniteSemigroup.from_rows(
        [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]]
    )
    expected = [((0,), (0,)), ((1,), (1,)), ((0, 1), (0, 1)), ((2,), (1, 2, 3))]
    assert list(_closures(z3_zero, 1)) == expected == _old_closures(z3_zero, 1)
