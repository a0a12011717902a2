import itertools

import pytest

from lamrho import (
    CATALOG,
    JOIN2,
    L2,
    TRIVIAL,
    Z2,
    Z3,
    AxiomViolationError,
    LrSystem,
    MapRangeError,
    axiom_violations,
    builtin_system,
    empty_support_ideal,
    empty_system,
    enumerate_systems,
    is_group_preserving,
    is_unital,
    singleton_system,
    validate_axioms,
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
    from a plain triple loop that writes each axiom's maps out."""
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
                    by_last[max(deps)].append((axiom, size, deps))
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
                assert _instances(base, sizes) == instances, (name, sizes)
    assert cases == 102
