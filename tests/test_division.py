"""The complete division decision of ``divides`` against a brute force over
every closed subset and every congruence, its witness when the closures of
at most three generators miss, and its node cap."""

import itertools

import pytest

import lamrho.semigroup as sgmod
from lamrho import (
    L2_1,
    R2,
    Z2,
    Z3,
    FiniteSemigroup,
    SearchCapError,
    builtin_system,
    direct_product,
    divides,
    product_table,
    quotient,
    subsemigroup_table,
    validate_table,
)
from lamrho.semigroup import _division_map, _extend


def _relabel(rows, p):
    """The table in which element i is called p[i]."""
    n = len(rows)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[p[i]][p[j]] = p[rows[i][j]]
    return tuple(map(tuple, out))


def _canonical(rows):
    """The least relabelling of a table: equal exactly for isomorphic ones."""
    return min(_relabel(rows, p) for p in itertools.permutations(range(len(rows))))


def _labelled_semigroups(n):
    """Every associative table on range(n)."""
    out = []
    for entries in itertools.product(range(n), repeat=n * n):
        rows = [entries[i * n:(i + 1) * n] for i in range(n)]
        if all(
            rows[rows[i][j]][k] == rows[i][rows[j][k]]
            for i in range(n) for j in range(n) for k in range(n)
        ):
            out.append(tuple(map(tuple, rows)))
    return out


def _blockings(elems, most):
    """Every labelling of ``elems`` by blocks 0..b-1 (b <= most), as
    restricted growth strings."""

    def extend(prefix, blocks):
        if len(prefix) == len(elems):
            yield dict(zip(elems, prefix))
            return
        for b in range(min(blocks + 1, most)):
            yield from extend(prefix + [b], max(blocks, b + 1))

    return extend([], 0)


def _divisors(rows, quotient_only, most=3):
    """Canonical tables of the quotients with at most ``most`` elements of
    every closed subset of the table (of the whole table with
    quotient_only), by brute force."""
    n = len(rows)
    found = set()
    for mask in range(1, 2**n):
        elems = [x for x in range(n) if mask >> x & 1]
        if quotient_only and len(elems) < n:
            continue
        if any(not mask >> rows[x][y] & 1 for x in elems for y in elems):
            continue
        for block in _blockings(elems, most):
            size = max(block.values()) + 1
            q = {}
            if all(
                q.setdefault((block[x], block[y]), block[rows[x][y]]) == block[rows[x][y]]
                for x in elems for y in elems
            ):
                found.add(_canonical([[q[a, b] for b in range(size)] for a in range(size)]))
    return found


LABELLED = [t for n in (1, 2, 3) for t in _labelled_semigroups(n)]
CLASSES = sorted({_canonical(rows) for rows in LABELLED})
PRODUCTS = [
    product_table(Z2, builtin_system(name))
    for name in ("left_zero", "non_semidirect", "flip_flop")
]
L4 = validate_table([[x] * 4 for x in range(4)])
# L4 with an identity adjoined as element 0; its left zeros are 1..4
L4_1 = validate_table([list(range(5))] + [[x] * 5 for x in range(1, 5)])


def test_the_small_semigroups_are_all_there():
    assert [sum(len(t) == n for t in LABELLED) for n in (1, 2, 3)] == [1, 8, 113]
    assert [sum(len(t) == n for t in CLASSES) for n in (1, 2, 3)] == [1, 5, 24]


def test_divides_matches_brute_force_on_small_semigroups():
    targets = [FiniteSemigroup.from_rows(rows) for rows in CLASSES]
    bases = [FiniteSemigroup.from_rows(rows) for rows in LABELLED] + PRODUCTS
    answers = 0
    for s in bases:
        for quotient_only in (True, False):
            expected = _divisors(s.table, quotient_only)
            for t in targets:
                got = divides(t, s, quotient_only=quotient_only)
                assert (got is not None) == (t.table in expected), (t.table, s.table)
                answers += 1
    assert answers == 7500


def test_the_decision_matches_brute_force_on_small_semigroups():
    # the decision alone, where divides calls it: |t| < |s|
    targets = [FiniteSemigroup.from_rows(rows) for rows in CLASSES]
    for s in PRODUCTS + [FiniteSemigroup.from_rows(r) for r in LABELLED if len(r) == 3]:
        for quotient_only in (True, False):
            expected = _divisors(s.table, quotient_only)
            for t in targets:
                if t.size < s.size:
                    found = _division_map(t, s, quotient_only, 10**6)
                    assert (found is not None) == (t.table in expected)


def test_a_decision_map_is_onto_and_a_homomorphism():
    for s in PRODUCTS + [L4_1]:
        for rows in CLASSES:
            t = FiniteSemigroup.from_rows(rows)
            for quotient_only in (True, False):
                found = _division_map(t, s, quotient_only, 10**6)
                if found is None:
                    continue
                gens, phi = found
                assert set(phi.values()) == set(t.elements())
                assert all(
                    phi[s.mul(x, y)] == t.mul(phi[x], phi[y]) for x in phi for y in phi
                )
                if quotient_only:
                    assert gens is None and sorted(phi) == list(s.elements())
                else:
                    assert [phi[x] for x in gens] == list(sgmod.greedy_generators(t))


def test_left_zero_four_divides_it_with_an_identity():
    # L4 needs its 4 zeros as generators, past the closures of at most 3
    w = divides(L4, L4_1)
    assert w.sub_generators == (1, 2, 3, 4)
    assert w.sub_elements == (1, 2, 3, 4)
    assert w.partition.num_classes() == 4
    q = quotient(subsemigroup_table(L4_1, w.sub_elements), w.partition)
    assert all(
        w.iso(q.mul(x, y)) == L4.mul(w.iso(x), w.iso(y))
        for x in q.elements() for y in q.elements()
    )
    # as a quotient it is absent: merging the identity merges every zero
    assert divides(L4, L4_1, quotient_only=True) is None


def test_the_decision_witness_is_the_kernel_of_its_map():
    # Z2 x L4 needs 5 generators, and the whole of (Z4 x L4) with an
    # identity adjoined maps onto no semigroup without one; the preimages
    # generate Z4 x L4, and the map reduces Z4 mod 2
    z4 = validate_table([[(i + j) % 4 for j in range(4)] for i in range(4)])
    t = direct_product(Z2, L4)
    d = direct_product(z4, L4)
    s = validate_table([list(r) + [i] for i, r in enumerate(d.table)] + [list(range(17))])
    w = divides(t, s)
    assert w.sub_generators == (0, 1, 2, 3, 4)
    assert w.sub_elements == tuple(range(16))
    assert w.partition.classes == tuple((x, x + 8) for x in range(8))
    assert w.iso.map == tuple(range(8))
    assert divides(t, s, quotient_only=True) is None


def test_a_capped_decision_with_four_generators_is_inconclusive():
    # the decision needs 12 extensions, the lattice search finishes within 7
    with pytest.raises(SearchCapError):
        _division_map(L4, L4_1, False, 11)
    with pytest.raises(SearchCapError, match="after 8 extensions .* 4 > 3 greedy generators"):
        divides(L4, L4_1, congruence_cap=8)
    assert divides(L4, L4_1, congruence_cap=12) is not None
    # with quotient_only the miss is exact
    with pytest.raises(SearchCapError):
        _division_map(L4, L4_1, True, 8)
    assert divides(L4, L4_1, quotient_only=True, congruence_cap=8) is None


def test_a_capped_decision_with_few_generators_keeps_an_exact_miss():
    # R2 does not divide the flip-flop product; the decision needs 9
    # extensions to say so, and the lattice search finishes within 7
    s = PRODUCTS[2]
    with pytest.raises(SearchCapError):
        _division_map(R2, s, False, 8)
    assert divides(R2, s, congruence_cap=8) is None


def test_the_decision_counts_extensions_against_the_cap():
    calls = []
    original = sgmod._extend

    def counting(*args, **kwargs):
        # greedy_generators walks closures with the injective default
        if kwargs.get("injective", True) is False:
            calls.append(args)
        return original(*args, **kwargs)

    s = PRODUCTS[2]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sgmod, "_extend", counting)
        _division_map(L2_1, s, True, 10**6)
        needed = len(calls)
        assert needed > 1
        with pytest.raises(SearchCapError, match=f"capped at {needed - 1} extensions"):
            _division_map(L2_1, s, True, needed - 1)
        assert _division_map(L2_1, s, True, needed) is not None


def test_extend_merges_images_when_not_injective():
    # Z2 onto the trivial semigroup: 1 -> 0 sends 1*1 = 0 to 0 as well
    trivial = [[0]]
    assert not _extend(Z2.table, trivial, {}, [], 1, 0)
    phi = {}
    assert _extend(Z2.table, trivial, phi, [], 1, 0, injective=False)
    assert phi == {1: 0, 0: 0}
    # a clash still fails: 1 -> 1 from Z2 into Z3 sends 1*1 = 0 to 2, and
    # then 0*1 = 1 to 0, not 1
    assert not _extend(Z2.table, Z3.table, {}, [], 1, 1, injective=False)
