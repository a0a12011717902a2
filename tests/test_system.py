import itertools
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lamrho

from lamrho import (
    CATALOG,
    JOIN2,
    L2,
    TRIVIAL,
    Z2,
    Z3,
    AxiomViolationError,
    FiniteSemigroup,
    LrSystem,
    MapRangeError,
    NonAssociativeError,
    SizeCapError,
    axiom_violations,
    builtin_system,
    empty_support_ideal,
    empty_system,
    enumerate_systems,
    is_group_preserving,
    is_unital,
    singleton_system,
    validate_axioms,
    validate_table,
)


def trivial_system(lam, rho):
    return LrSystem(TRIVIAL, (len(lam),), (tuple(lam),), (tuple(rho),))


def test_builtin_systems_validate():
    for name in ("flip_flop", "left_zero", "non_semidirect", "boolean_shadow"):
        validate_axioms(builtin_system(name))


def test_flip_flop_maps_are_the_stated_ones():
    z = builtin_system("flip_flop")
    assert z.index_sizes == (1, 2)
    assert z.lam_map(1, 0) == (0, 1)
    assert z.rho_map(0, 1) == (0, 1)
    assert z.lam_map(1, 1) == (0, 1)
    assert z.rho_map(1, 1) == (0, 0)


def test_empty_maps_validate_over_any_base():
    for base in (TRIVIAL, Z2, JOIN2):
        validate_axioms(empty_system(base))


def test_shape_validation_rejects_bad_lengths():
    with pytest.raises(MapRangeError):
        LrSystem(TRIVIAL, (2,), ((0,),), ((0, 0),))
    with pytest.raises(MapRangeError):
        LrSystem(TRIVIAL, (2,), ((0, 2),), ((0, 0),))


def test_validate_axioms_refuses_a_base_that_does_not_associate():
    # every map is forced on one-point fibers, so all three axioms hold;
    # the base itself is the fault, reported as validate_table reports it
    magma = FiniteSemigroup(2, [[1, 0], [0, 0]])
    system = LrSystem(magma, (1, 1), [(0,)] * 4, [(0,)] * 4)
    assert not axiom_violations(system)
    with pytest.raises(NonAssociativeError) as alone:
        validate_table(magma.table)
    with pytest.raises(NonAssociativeError) as caught:
        validate_axioms(system)
    assert str(caught.value) == str(alone.value)
    assert str(caught.value) == "not associative: (0*0)*1 = 0 but 0*(0*1) = 1"
    assert caught.value.witness == alone.value.witness == (0, 0, 1)


def test_axiom_violation_reports_triple_and_point():
    bad = trivial_system([1, 0], [0, 0])  # swap is not idempotent
    report = axiom_violations(bad)
    assert report
    first = report[0]
    assert first.axiom == "alpha"
    assert (first.a, first.b, first.c) == (0, 0, 0)
    with pytest.raises(AxiomViolationError):
        validate_axioms(bad)


def test_empty_support_ideal():
    u = builtin_system("non_semidirect")
    assert empty_support_ideal(u) == (0,)
    assert empty_support_ideal(builtin_system("flip_flop")) == ()
    assert empty_support_ideal(empty_system(Z2)) == (0, 1)


def test_is_unital():
    assert is_unital(builtin_system("flip_flop"))
    check = is_unital(builtin_system("left_zero"))
    assert not check
    assert check.witness == (0, "rho", 1)
    assert is_unital(empty_system(Z2))
    assert is_unital(builtin_system("non_semidirect"))
    assert not is_unital(builtin_system("left_zero")).unital


def test_unital_implies_base_monoid():
    # a base without identity can never be unital
    from lamrho import L2

    assert not is_unital(empty_system(L2))


def test_is_group_preserving():
    assert not is_group_preserving(builtin_system("flip_flop"))  # base not a group
    assert not is_group_preserving(builtin_system("left_zero"))  # not unital
    assert is_group_preserving(singleton_system(Z2))
    assert is_group_preserving(empty_system(Z3))


def brute_force_commuting_retractions(k):
    """Independent count of valid systems over the trivial base."""
    count = 0
    maps = list(itertools.product(range(k), repeat=k))
    for lam in maps:
        for rho in maps:
            idem = all(lam[lam[p]] == lam[p] for p in range(k)) and all(
                rho[rho[p]] == rho[p] for p in range(k)
            )
            commute = all(rho[lam[p]] == lam[rho[p]] for p in range(k))
            if idem and commute:
                count += 1
    return count


def test_enumeration_count_over_trivial_base():
    assert len(list(enumerate_systems(TRIVIAL, [1]))) == 1
    expected = brute_force_commuting_retractions(2)
    got = list(enumerate_systems(TRIVIAL, [2]))
    assert len(got) == expected


def test_enumeration_matches_retraction_characterisation():
    # over the trivial base the axioms say exactly: both maps are
    # idempotent and they commute
    valid = {
        (s.lam_map(0, 0), s.rho_map(0, 0))
        for s in enumerate_systems(TRIVIAL, [2])
    }
    for lam in itertools.product(range(2), repeat=2):
        for rho in itertools.product(range(2), repeat=2):
            idem = all(lam[lam[p]] == lam[p] for p in range(2)) and all(
                rho[rho[p]] == rho[p] for p in range(2)
            )
            commute = all(rho[lam[p]] == lam[rho[p]] for p in range(2))
            assert ((lam, rho) in valid) == (idem and commute)


def test_enumeration_is_lexicographic_and_sound():
    stream = list(enumerate_systems(JOIN2, [1, 2]))
    keys = [s.lam + s.rho for s in stream]
    assert keys == sorted(keys)
    for s in stream:
        validate_axioms(s)
    assert builtin_system("flip_flop") in stream


def test_enumeration_respects_limit_and_seed():
    full = list(enumerate_systems(TRIVIAL, [2]))
    limited = list(enumerate_systems(TRIVIAL, [2], limit=3))
    assert limited == full[:3]
    seeded_a = list(enumerate_systems(TRIVIAL, [2], seed=7))
    seeded_b = list(enumerate_systems(TRIVIAL, [2], seed=7))
    assert seeded_a == seeded_b
    assert sorted(s.lam + s.rho for s in seeded_a) == sorted(
        s.lam + s.rho for s in full
    )
    # each limit, to past the end, cuts a prefix of the full stream. Every
    # cut walks the search again, so a stream of more than 60 systems is
    # cut at its first 20 limits, its middle and its end
    streams = [
        (CATALOG[name], sizes, None)
        for name in sorted(CATALOG)
        for sizes in itertools.product((1, 2), repeat=CATALOG[name].size)
    ] + [(L2, (2, 2), 3)]
    for base, sizes, seed in streams:
        full = list(enumerate_systems(base, sizes, seed=seed))
        n = len(full)
        cuts = range(n + 2) if n <= 60 else [*range(20), n // 2, n - 1, n, n + 1]
        for limit in cuts:
            cut = list(enumerate_systems(base, sizes, limit=limit, seed=seed))
            assert cut == full[:limit], (base, sizes, seed, limit)


def test_enumeration_unital_only():
    unital = list(enumerate_systems(Z2, [2, 2], unital_only=True))
    assert unital
    for s in unital:
        assert is_unital(s)
    everything = list(enumerate_systems(Z2, [2, 2]))
    assert {s for s in everything if is_unital(s)} == set(unital)
    # no unital systems over a base without identity
    from lamrho import L2

    assert list(enumerate_systems(L2, [1, 1], unital_only=True)) == []


def test_enumeration_empty_when_sizes_break_the_ideal_rule():
    # an empty fiber at the unit of a group forces everything empty
    assert list(enumerate_systems(Z2, [0, 2])) == []


def test_enumeration_beyond_exhaustive_caps_uses_seeded_search():
    from lamrho import direct_product

    klein = direct_product(Z2, Z2)  # base size 4 exceeds the exhaustive cap
    first = list(enumerate_systems(klein, [1, 1, 1, 1], limit=3, seed=2))
    second = list(enumerate_systems(klein, [1, 1, 1, 1], limit=3, seed=2))
    assert first == second
    assert first == [singleton_system(klein)]
    for s in first:
        validate_axioms(s)


def test_enumeration_rejects_negative_sizes():
    with pytest.raises(MapRangeError):
        list(enumerate_systems(Z2, [1, -1]))


@pytest.mark.parametrize("seed", [None, 1])
def test_enumeration_rejects_a_negative_limit(seed):
    with pytest.raises(MapRangeError, match="limit must be non-negative, got -1"):
        list(enumerate_systems(TRIVIAL, [2], limit=-1, seed=seed))


def _reference_slots_and_instances(base, sizes, unital_only):
    """The enumerator's slots and axiom instances built by hand: slot
    positions come from a dict keyed by (kind, a, b), and the instances
    from a plain triple loop that writes each axiom's maps out, each under
    its last slot and naming its second-last."""
    from lamrho.semigroup import identity_element

    n = base.size
    pairs = list(itertools.product(range(n), repeat=2))
    e = identity_element(base) if unital_only else None

    def build_slots():
        if unital_only and e is None:
            return None
        slots = []
        for kind in ("lam", "rho"):
            for a, b in pairs:
                dom = sizes[base.mul(a, b)]
                cod = sizes[a] if kind == "lam" else sizes[b]
                pinned = None
                if unital_only and e == (b if kind == "lam" else a):
                    pinned = tuple(range(dom))
                if pinned is not None and any(v >= cod for v in pinned):
                    return None
                slots.append((kind, a, b, dom, cod, pinned))
        return slots

    pos = {}
    for kind in ("lam", "rho"):
        for a, b in pairs:
            pos[kind, a, b] = len(pos)
    by_last = [[] for _ in pos]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                ab, bc = base.mul(a, b), base.mul(b, c)
                size = sizes[base.mul(ab, c)]
                if size == 0:
                    continue
                for axiom, maps in (
                    ("alpha", (("lam", a, b), ("lam", ab, c), ("lam", a, bc))),
                    ("beta", (("rho", b, c), ("rho", a, bc), ("rho", ab, c))),
                    ("gamma", (("rho", a, b), ("lam", ab, c), ("lam", b, c), ("rho", a, bc))),
                ):
                    deps = tuple(pos[m] for m in maps)
                    # the second-last slot: the largest distinct one below
                    # the last, where the enumerator filters the last ahead
                    distinct = sorted(set(deps))
                    below = distinct[-2] if len(distinct) > 1 else None
                    by_last[distinct[-1]].append((axiom, size, deps, below))
    return build_slots(), by_last


def test_enumerator_slots_and_instances_match_the_hand_written_reference():
    from lamrho.semigroup import CATALOG
    from lamrho.system import _instances, _slots

    cases = 0
    for name, base in sorted(CATALOG.items()):
        for sizes in itertools.product(range(3), repeat=base.size):
            cases += 1
            for unital_only in (False, True):
                slots, instances = _reference_slots_and_instances(
                    base, sizes, unital_only
                )
                assert _slots(base, sizes, unital_only) == slots, (name, sizes)
                # each record (size, check, second-last) read back as
                # (axiom, size, slot positions, second-last)
                read = [
                    [
                        (axiom, size, tuple(p for p in positions if p is not None), below)
                        for size, (axiom, *positions), below in insts
                    ]
                    for insts in _instances(base, sizes)
                ]
                assert read == instances, (name, sizes)
    assert cases == 102


def _reference_stream(base, sizes, limit, seed, unital_only):
    """A plain depth-first search over the hand-written slots and instances
    that checks each instance only when its last slot is assigned. Every
    map list is built in full, lexicographic, and in seeded mode shuffled
    by ``random.shuffle`` slot by slot; a pinned slot draws nothing."""
    slots, by_last = _reference_slots_and_instances(base, sizes, unital_only)
    if slots is None:
        return []
    rng = None
    if base.size > 3 or max(sizes) > 3 or seed is not None:
        rng = random.Random(0 if seed is None else seed)
    domains = []
    for *_, dom, cod, pinned in slots:
        maps = [pinned] if pinned is not None else list(
            itertools.product(range(cod), repeat=dom)
        )
        if rng is not None and pinned is None:
            rng.shuffle(maps)
        domains.append(maps)
    if not all(domains):
        return []  # a slot with no map: the search below would walk for nothing
    assign = [None] * len(slots)

    def holds(size, deps):
        f, g, h, *k = (assign[d] for d in deps)
        return all(f[g[p]] == (h[k[0][p]] if k else h[p]) for p in range(size))

    def dfs(i):
        if i == len(slots):
            yield tuple(assign)
            return
        for m in domains[i]:
            assign[i] = m
            if all(holds(size, deps) for _, size, deps, _ in by_last[i]):
                yield from dfs(i + 1)

    return list(itertools.islice(dfs(0), limit))


@st.composite
def enumeration_cases(draw):
    base = CATALOG[draw(st.sampled_from(sorted(CATALOG)))]
    if base.size == 2 and draw(st.booleans()):
        sizes = (4, 4)  # seeded, with 256 maps per slot
    else:
        sizes = tuple(draw(st.integers(0, 3)) for _ in range(base.size))
    seed = draw(st.none() | st.integers(0, 2**16))
    return base, sizes, draw(st.integers(0, 30)), seed, draw(st.booleans())


@given(enumeration_cases())
@settings(max_examples=60, deadline=None)
def test_enumeration_equals_a_search_that_checks_at_the_last_slot(case):
    base, sizes, limit, seed, unital_only = case
    stream = enumerate_systems(base, sizes, limit, seed, unital_only)
    assert [s.lam + s.rho for s in stream] == _reference_stream(*case)


MAP_POINTS = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (256 * 2**20, 256 * 2**20))
from lamrho import TRIVIAL, Z2, SizeCapError, enumerate_systems
for base, sizes, unital_only in (
    (TRIVIAL, (10**8,), True), (Z2, (1, 10**8), True), (Z2, (1, 10**8), False),
):
    try:
        next(enumerate_systems(base, sizes, limit=1, unital_only=unital_only))
    except SizeCapError as exc:
        print(exc)
"""


def test_one_map_slots_check_their_points_before_allocating():
    # a pinned identity, or the one map into a 1-point fiber, of 10**8
    # points would take about 3.6 GB; the child has 256 MB of address space
    src = os.path.dirname(os.path.dirname(os.path.abspath(lamrho.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", MAP_POINTS],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "lam[0,0] is one map on I[0], which has 100000000 points, cap is 1048576",
        "lam[0,1] is one map on I[1], which has 100000000 points, cap is 1048576",
        "lam[0,1] is one map on I[1], which has 100000000 points, cap is 1048576",
    ]


def test_a_one_map_slot_at_the_point_cap_is_built():
    from lamrho.system import MAP_POINT_CAP

    (system,) = enumerate_systems(TRIVIAL, (MAP_POINT_CAP,), unital_only=True)
    assert system.lam[0] == tuple(range(MAP_POINT_CAP))
    with pytest.raises(SizeCapError):
        next(enumerate_systems(TRIVIAL, (MAP_POINT_CAP + 1,), unital_only=True))
