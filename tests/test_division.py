"""The complete division decision of ``divides`` and its kernel search
against a brute force over every closed subset and every congruence, the
witness when the closures of at most three generators miss, and the node
cap."""

import itertools
import json
import os
import subprocess
import sys

import pytest

import lamrho.semigroup as sgmod
from lamrho import (
    L2_1,
    R2,
    Z2,
    Z3,
    FiniteSemigroup,
    Homomorphism,
    Partition,
    SearchCapError,
    builtin_system,
    direct_product,
    divides,
    from_two_sided_action,
    is_congruence,
    natural_two_sided_action,
    product_table,
    quotient,
    subsemigroup_closure,
    subsemigroup_table,
    validate_table,
)
from lamrho.semigroup import _division_map, _extend, _maps, _node_budget, _targets, _twins


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
L8 = validate_table([[x] * 8 for x in range(8)])


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


def _onto_maps(t, s, twins=None):
    """The maps onto t that the kernel search of divides meets on the whole
    of s: images of the greedy generators of s, twins chosen in order."""
    fits = _targets(s, t)
    slots = [[(g, y) for y in fits[g]] for g in sgmod.greedy_generators(s)]
    return [phi for _, phi in _maps(s.table, t.table, slots, onto=True, twins=twins)]


def _automorphisms(t):
    pairs = list(itertools.product(t.elements(), repeat=2))
    return [
        p for p in itertools.permutations(t.elements())
        if all(p[t.mul(x, y)] == t.mul(p[x], p[y]) for x, y in pairs)
    ]


def test_the_decision_matches_brute_force_on_small_semigroups():
    # the search that decides, where divides calls it, |t| < |s|: the
    # preimage search, and with quotient_only the kernel search of s
    targets = [FiniteSemigroup.from_rows(rows) for rows in CLASSES]
    for s in PRODUCTS + [FiniteSemigroup.from_rows(r) for r in LABELLED if len(r) == 3]:
        for quotient_only in (True, False):
            expected = _divisors(s.table, quotient_only)
            for t in targets:
                if t.size < s.size:
                    if quotient_only:
                        found = _onto_maps(t, s, _twins(t)) or None
                    else:
                        found = _division_map(t, s, _targets(s, t), _node_budget(10**6))
                    assert (found is not None) == (t.table in expected)


def test_a_decision_map_is_onto_and_a_homomorphism():
    # the preimage search's map, and every map of the kernel search of s
    for s in PRODUCTS + [L4_1]:
        for rows in CLASSES:
            t = FiniteSemigroup.from_rows(rows)
            found = _division_map(t, s, _targets(s, t), _node_budget(10**6))
            kernel_maps = _onto_maps(t, s, _twins(t))
            for phi in kernel_maps + ([] if found is None else [found[1]]):
                assert set(phi.values()) == set(t.elements())
                assert all(
                    phi[s.mul(x, y)] == t.mul(phi[x], phi[y]) for x in phi for y in phi
                )
            assert all(sorted(phi) == list(s.elements()) for phi in kernel_maps)
            if found is not None:
                gens, phi = found
                assert [phi[x] for x in gens] == list(sgmod.greedy_generators(t))


def test_twins_are_the_swaps_among_the_automorphisms():
    for t in [FiniteSemigroup.from_rows(rows) for rows in CLASSES] + [L4]:
        autos = set(_automorphisms(t))
        swaps = []
        for y in t.elements():
            swapped = [x for x in range(y) if tuple(
                y if z == x else x if z == y else z for z in t.elements()) in autos]
            swaps.append(swapped[-1] if swapped else None)
        assert _twins(t) == swaps


def test_the_kernel_search_meets_each_kernel_once():
    # maps onto t with one kernel differ by an automorphism of t; on these
    # targets the swaps of twins generate every automorphism, so choosing
    # twins in order leaves one map per kernel
    def kernels(maps):
        return [sgmod._partition([phi[x] for x in sorted(phi)]).classes for phi in maps]

    pruned = 0
    for s in PRODUCTS + [L4_1, L8]:
        for t in [FiniteSemigroup.from_rows(rows) for rows in CLASSES] + [L4]:
            if t.size < s.size:
                once = kernels(_onto_maps(t, s, _twins(t)))
                every = kernels(_onto_maps(t, s))
                assert len(once) == len(set(once))
                assert set(once) == set(every)
                pruned += len(every) > len(once)
    assert pruned > 0


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
    # the decision needs 12 extensions, and with the kernel search of L4_1
    # the call needs 17
    with pytest.raises(SearchCapError):
        _division_map(L4, L4_1, _targets(L4_1, L4), _node_budget(11))
    assert _division_map(L4, L4_1, _targets(L4_1, L4), _node_budget(12)) is not None
    with pytest.raises(SearchCapError, match="capped at 16 map-search nodes"):
        divides(L4, L4_1, congruence_cap=16)
    assert divides(L4, L4_1, congruence_cap=17) is not None
    # with quotient_only the kernel search of L4_1 alone decides
    with pytest.raises(SearchCapError):
        divides(L4, L4_1, quotient_only=True, congruence_cap=4)
    assert divides(L4, L4_1, quotient_only=True, congruence_cap=5) is None


def test_a_capped_decision_with_few_generators_keeps_an_exact_miss():
    # R2 does not divide the flip-flop product; the decision needs 9
    # extensions to say so, and a capped decision is inconclusive
    s = PRODUCTS[2]
    with pytest.raises(SearchCapError):
        _division_map(R2, s, _targets(s, R2), _node_budget(8))
    with pytest.raises(SearchCapError):
        divides(R2, s, congruence_cap=8)
    assert divides(R2, s, congruence_cap=9) is None


def test_the_decision_counts_extensions_against_the_cap():
    calls = []
    original = sgmod._extend

    def counting(*args, **kwargs):
        # the decision's extensions are the ones that may merge images
        if args[6:] == (False,):
            calls.append(args)
        return original(*args, **kwargs)

    s = PRODUCTS[2]
    fits = _targets(s, L2_1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sgmod, "_extend", counting)
        _division_map(L2_1, s, fits, _node_budget(10**6))
        needed = len(calls)
        assert needed > 1
        with pytest.raises(SearchCapError, match=f"capped at {needed - 1} map-search nodes"):
            _division_map(L2_1, s, fits, _node_budget(needed - 1))
        assert _division_map(L2_1, s, fits, _node_budget(needed)) is not None


def test_a_target_on_four_generators_builds_no_closure_list():
    # all 4 elements of L4 are products of no two others, so no closure of
    # 3 generators maps onto it: the whole product misses and the
    # decision's witness follows
    def refuse(*args):
        raise AssertionError("closure list built")

    s = direct_product(L4_1, L2_1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sgmod, "_closures", refuse)
        w = divides(L4, s)
    assert w.sub_generators == (1, 5, 8, 11)
    assert w.sub_elements == (1, 4, 5, 7, 8, 10, 11)
    assert w.partition.classes == ((0, 1, 3, 5), (2,), (4,), (6,))
    assert w.iso.map == (0, 1, 2, 3)


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


def test_extend_stops_once_the_map_passes_its_limit():
    # <2> in Z3 is all 3 elements: a limit of 2 stops the walk part-built
    phi = {}
    assert not _extend(Z3.table, Z3.table, phi, [], 2, 2, injective=False, limit=2)
    assert len(phi) == 2
    phi = {}
    assert _extend(Z3.table, Z3.table, phi, [], 2, 2, injective=False, limit=3)
    assert sorted(phi) == [0, 1, 2]


def test_bounded_closures_are_the_small_closures():
    s = direct_product(L4_1, L2_1)
    everything = list(sgmod._closures(s, 1))
    for bound in range(1, s.size + 1):
        small = [item for item in everything if len(item[1]) <= bound]
        assert list(sgmod._closures(s, 1, bound)) == small


DIVIDES_P_PRIME = """
import json
from lamrho import L2_1, Z2, divides, from_two_sided_action, natural_two_sided_action
from lamrho import product_table
s = product_table(Z2, from_two_sided_action(natural_two_sided_action(L2_1)))
w = divides(Z2, s)
print(json.dumps([w.sub_generators, w.sub_elements, w.partition.classes, w.iso.map]))
"""


def test_divides_builds_no_closure_larger_than_the_decisions():
    # Z2 over the natural two-sided action of L2_1 has 1,536 elements and
    # no map onto Z2, so the closures are tried; the decision's preimage 1
    # closes to {0, 1}, and no closure past 2 elements is walked, where all
    # closures of 3 generators would be about 6e8 walks
    src = os.path.dirname(os.path.dirname(os.path.abspath(sgmod.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", DIVIDES_P_PRIME],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    gens, elems, classes, iso = json.loads(proc.stdout)
    assert (gens, elems, classes, iso) == ([1], [0, 1], [[0], [1]], [0, 1])
    s = product_table(Z2, from_two_sided_action(natural_two_sided_action(L2_1)))
    assert subsemigroup_closure(s, gens) == tuple(elems)
    sub = subsemigroup_table(s, elems)
    part = Partition.from_classes(sub.size, classes)
    assert is_congruence(sub, part)
    assert Homomorphism(quotient(sub, part), Z2, tuple(iso)).is_bijective()
