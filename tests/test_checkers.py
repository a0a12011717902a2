"""Parity of the shared axiom and square checkers with hand-written loops.

The references below write each check out by hand for one kind of
structure: a triple loop for the composition axioms of concrete and of
truncated free systems, and a pair loop for the commuting squares of
concrete and of free arrows. Each test drives the shared checker and its
reference over the same inputs, broken ones included, and asks for the
same violations in the same order.
"""

import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from array import array

import pytest

import lamrho
from lamrho import (
    CATALOG,
    TRIVIAL,
    LrSystem,
    SizeCapError,
    SquareViolationError,
    Transformation,
    axiom_violations,
    builtin_system,
    canonical_transformation,
    enumerate_systems,
    free_monoid_system,
    free_semigroup_system,
    identity_transformation,
    restrict,
    validate_transformation,
)
from lamrho.category import FreeTransformation, TruncatedFreeSystem
from lamrho.system import _candidates, _shuffle

BUILTIN = ("flip_flop", "left_zero", "non_semidirect", "boolean_shadow")


def reference_axiom_violations(system, first_only=False):
    sg = system.base
    out = []
    for a in sg.elements():
        for b in sg.elements():
            ab = sg.mul(a, b)
            lam_ab = system.lam_map(a, b)
            rho_ab = system.rho_map(a, b)
            for c in sg.elements():
                bc = sg.mul(b, c)
                abc = sg.mul(ab, c)
                lam_ab_c = system.lam_map(ab, c)
                rho_a_bc = system.rho_map(a, bc)
                lam_a_bc = system.lam_map(a, bc)
                rho_b_c = system.rho_map(b, c)
                lam_b_c = system.lam_map(b, c)
                rho_ab_c = system.rho_map(ab, c)
                for p in range(system.index_sizes[abc]):
                    if lam_ab[lam_ab_c[p]] != lam_a_bc[p]:
                        out.append(("alpha", a, b, c, p))
                        if first_only:
                            return out
                    if rho_b_c[rho_a_bc[p]] != rho_ab_c[p]:
                        out.append(("beta", a, b, c, p))
                        if first_only:
                            return out
                    if rho_ab[lam_ab_c[p]] != lam_b_c[rho_a_bc[p]]:
                        out.append(("gamma", a, b, c, p))
                        if first_only:
                            return out
    return out


def reference_free_check(free):
    violations = []
    instances = 0
    for a in free.words:
        for b in free.words:
            ab = free.mul(a, b)
            if ab is None:
                continue
            lam_ab = free.lam_map(a, b)
            rho_ab = free.rho_map(a, b)
            for c in free.words:
                abc = free.mul(ab, c)
                if abc is None:
                    continue
                bc = b + c
                instances += 1
                lam_ab_c = free.lam_map(ab, c)
                rho_a_bc = free.rho_map(a, bc)
                lam_a_bc = free.lam_map(a, bc)
                rho_b_c = free.rho_map(b, c)
                lam_b_c = free.lam_map(b, c)
                rho_ab_c = free.rho_map(ab, c)
                for p in range(free.fiber_size(abc)):
                    if lam_ab[lam_ab_c[p]] != lam_a_bc[p]:
                        violations.append(("alpha", a, b, c, p))
                    if rho_b_c[rho_a_bc[p]] != rho_ab_c[p]:
                        violations.append(("beta", a, b, c, p))
                    if rho_ab[lam_ab_c[p]] != lam_b_c[rho_a_bc[p]]:
                        violations.append(("gamma", a, b, c, p))
    return instances, tuple(violations)


def reference_first_square(tr):
    src, tgt, h = tr.source, tr.target, tr.h
    for a in tgt.base.elements():
        for b in tgt.base.elements():
            ab = tgt.base.mul(a, b)
            ha, hb = h(a), h(b)
            for p in range(src.index_sizes[src.base.mul(ha, hb)]):
                if tgt.lam_map(a, b)[tr.maps[ab][p]] != tr.maps[a][src.lam_map(ha, hb)[p]]:
                    return ("lambda", a, b, p)
                if tgt.rho_map(a, b)[tr.maps[ab][p]] != tr.maps[b][src.rho_map(ha, hb)[p]]:
                    return ("rho", a, b, p)
    return None


def reference_free_squares(tr):
    src, free = tr.source, tr.free
    violations = []
    pairs = 0
    for w in free.words:
        for u in free.words:
            wu = free.mul(w, u)
            if wu is None:
                continue
            pairs += 1
            ow, ou = tr.base_image(w), tr.base_image(u)
            for p in range(src.index_sizes[src.base.mul(ow, ou)]):
                if free.lam_map(w, u)[tr.maps[wu][p]] != tr.maps[w][src.lam_map(ow, ou)[p]]:
                    violations.append(("lambda", w, u, p))
                if free.rho_map(w, u)[tr.maps[wu][p]] != tr.maps[u][src.rho_map(ow, ou)[p]]:
                    violations.append(("rho", w, u, p))
    return pairs, violations


def single_entry_changes(maps, codomain):
    """Every tuple family that differs from ``maps`` in one entry."""
    for i, m in enumerate(maps):
        for p, v in enumerate(m):
            for w in range(codomain(i)):
                if w != v:
                    changed = m[:p] + (w,) + m[p + 1:]
                    yield maps[:i] + (changed,) + maps[i + 1:]


def perturbations(system):
    n = system.base.size
    sizes = system.index_sizes
    for lam in single_entry_changes(system.lam, lambda i: sizes[i // n]):
        yield LrSystem(system.base, sizes, lam, system.rho)
    for rho in single_entry_changes(system.rho, lambda i: sizes[i % n]):
        yield LrSystem(system.base, sizes, system.lam, rho)


def as_tuples(violations):
    return [(v.axiom, v.a, v.b, v.c, v.point) for v in violations]


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_axiom_violations_match_reference(name):
    # every system with fibers <= 2 over the base, and every system one
    # entry away from one of them
    base = CATALOG[name]
    seen = set()
    broken = 0
    for sizes in itertools.product(range(3), repeat=base.size):
        for system in enumerate_systems(base, sizes):
            for candidate in itertools.chain((system,), perturbations(system)):
                key = (candidate.index_sizes, candidate.lam, candidate.rho)
                if key in seen:
                    continue
                seen.add(key)
                expected = reference_axiom_violations(candidate)
                assert as_tuples(axiom_violations(candidate)) == expected
                assert as_tuples(axiom_violations(candidate, first_only=True)) == expected[:1]
                broken += bool(expected)
    assert broken > 0


def test_checker_instance_lists_are_bounded_and_kept_per_table_and_sizes():
    from lamrho.system import _instance_walk

    assert _instance_walk.cache_info().maxsize is not None
    # one map family, valid over l2 and broken over r2, checked in turn
    # over both bases: each keeps its own instance list
    lam = ((0, 0), (0, 0), (0, 1), (0, 1))
    rho = ((0, 0),) * 4
    over = {name: LrSystem(CATALOG[name], (2, 2), lam, rho) for name in ("l2", "r2")}
    for name in ("l2", "r2", "l2", "r2"):
        expected = reference_axiom_violations(over[name])
        assert as_tuples(axiom_violations(over[name])) == expected
        assert bool(expected) == (name == "r2")
    # a table and sizes built from lists are read as the tuples they hold
    listed = lamrho.FiniteSemigroup(2, [list(row) for row in CATALOG["r2"].table])
    system = LrSystem(listed, [2, 2], lam, rho)
    assert as_tuples(axiom_violations(system)) == reference_axiom_violations(over["r2"])
    assert list(enumerate_systems(listed, [1, 2])) == [
        LrSystem(listed, (1, 2), s.lam, s.rho)
        for s in enumerate_systems(CATALOG["r2"], (1, 2))
    ]
    # and the same base with other sizes has its own list too
    for sizes in ((1, 2), (2, 1), (1, 2)):
        for system in enumerate_systems(CATALOG["z2"], sizes):
            assert as_tuples(axiom_violations(system)) == []
            for bad in perturbations(system):
                expected = reference_axiom_violations(bad)
                assert as_tuples(axiom_violations(bad)) == expected


def test_checks_naming_one_slot_hold_one_position_object():
    from lamrho.system import _instance_walk

    # Z12 has 288 slot positions, past the small ints the interpreter
    # keeps a single object for
    n = 12
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    held = {}
    for *_, checks in _instance_walk(table, (1,) * n):
        for _, *slots in checks:
            for slot in slots:
                if slot is not None:
                    held.setdefault(slot, set()).add(id(slot))
    assert max(held) > 256
    assert all(len(objects) == 1 for objects in held.values())


def test_seeded_streams_pass_the_reference_check():
    # enumerate_systems checks every axiom instance once, in its DFS, and
    # yields without re-validating: this gate holds its seeded streams to
    # the hand-written triple loop
    streams = 0
    for name, base in sorted(CATALOG.items()):
        for sizes in itertools.product((1, 2), repeat=base.size):
            for seed in range(3):
                stream = list(enumerate_systems(base, sizes, limit=20, seed=seed))
                for system in stream:
                    assert reference_axiom_violations(system) == [], (name, sizes, seed)
                streams += bool(stream)
    assert streams == 3 * sum(2**base.size for base in CATALOG.values())


class BrokenRho(TruncatedFreeSystem):
    """A free system whose rho map at one word pair is off by one point."""

    broken_pair = ((0,), (1,))

    def rho_map(self, w, u):
        m = super().rho_map(w, u)
        if (w, u) == self.broken_pair:
            return (m[0] + 1) % self.fiber_size(u), *m[1:]
        return m


class BrokenRhoAtBound(BrokenRho):
    """Broken at a pair whose concatenation is as long as the bound allows,
    where a walk that stops too early at the bound would miss it."""

    broken_pair = ((0,), (1, 0))


@pytest.mark.parametrize(
    "free",
    [
        free_semigroup_system((1, 2), 4),
        free_semigroup_system((2, 1, 2), 3),
        free_monoid_system(2, [[0, 1], [1]], [[0, 1], [0]], 3),
        free_monoid_system(3, [[0, 2], [1]], [[2, 1], [0]], 3),
        BrokenRho((2, 2), 3),
        BrokenRho((2, 3), 4),
        BrokenRhoAtBound((2, 2), 3),
    ],
)
def test_free_check_axioms_matches_reference(free):
    instances, violations = reference_free_check(free)
    report = free.check_axioms()
    assert (report.instances, report.violations) == (instances, violations)
    assert report.ok != isinstance(free, BrokenRho)


def count_undefined_products(free):
    """Wrap ``free.mul`` to count the calls that return None."""
    mul, undefined = free.mul, []

    def counted(w, u):
        wu = mul(w, u)
        undefined.append(wu is None)
        return wu

    free.mul = counted
    return undefined


# Words run by length, so a walk leaves a row at its first product past
# the bound: one undefined product per word of the outer loop, and for the
# axiom check one more per in-bound pair of its middle loop.


def test_free_axiom_check_stops_at_the_length_bound():
    free = free_semigroup_system((1, 1), 6)
    undefined = count_undefined_products(free)
    assert free.check_axioms().instances == 888
    pairs = sum(len(w) + len(u) <= 6 for w in free.words for u in free.words)
    assert sum(undefined) <= len(free.words) + pairs  # 79,488 when every pair is tried


def test_free_square_walk_stops_at_the_length_bound():
    arrow = canonical_transformation(builtin_system("flip_flop"), 4)
    undefined = count_undefined_products(arrow.free)
    assert arrow.square_report().ok
    assert sum(undefined) <= len(arrow.free.words)  # 832 when every pair is tried


def test_first_square_violation_matches_reference():
    # identity arrows on the built-in systems, and the restrictions of the
    # flip-flop system to its two elements (a base map that is not onto)
    flip = builtin_system("flip_flop")
    arrows = [identity_transformation(builtin_system(name)) for name in BUILTIN]
    arrows += [restrict(flip, subset)[1] for subset in ((0,), (1,))]
    broken = 0
    for tr in arrows:
        assert reference_first_square(tr) is None
        validate_transformation(tr)
        sizes = tr.target.index_sizes
        for maps in single_entry_changes(tr.maps, lambda a: sizes[a]):
            bad = Transformation(tr.source, tr.target, tr.h, maps)
            expected = reference_first_square(bad)
            if expected is None:
                validate_transformation(bad)
                continue
            broken += 1
            with pytest.raises(SquareViolationError) as info:
                validate_transformation(bad)
            err = info.value
            assert (err.kind, err.a, err.b, err.point) == expected
    assert broken > 0


@pytest.mark.parametrize("name", ["flip_flop", "left_zero", "non_semidirect"])
def test_free_square_report_matches_reference(name):
    canon = canonical_transformation(builtin_system(name), bound=3)
    pairs, expected = reference_free_squares(canon)
    report = canon.square_report()
    assert report.pairs_checked == pairs and not expected and report.ok
    free = canon.free
    for w in free.words:
        k = free.fiber_size(w)
        if k < 2:
            continue
        for p, v in enumerate(canon.maps[w]):
            maps = dict(canon.maps)
            maps[w] = maps[w][:p] + ((v + 1) % k,) + maps[w][p + 1:]
            bad = FreeTransformation(canon.source, free, maps)
            pairs, expected = reference_free_squares(bad)
            report = bad.square_report()
            assert report.pairs_checked == pairs
            # the middle components do not read the maps, so only squares fail
            assert expected and list(report.violations) == expected
            with pytest.raises(SquareViolationError) as info:
                validate_transformation(bad)
            first = report.violations[0]
            assert (info.value.kind, info.value.a, info.value.b, info.value.point) == first


def eager_trivial_stream(k, seed, limit):
    """Seeded enumeration over the trivial base with materialised maps:
    both candidate lists are built in full, then shuffled."""
    rng = random.Random(seed)
    lams = list(itertools.product(range(k), repeat=k))
    rng.shuffle(lams)
    rhos = list(itertools.product(range(k), repeat=k))
    rng.shuffle(rhos)
    out = []
    for lam in lams:
        if any(lam[lam[p]] != lam[p] for p in range(k)):
            continue
        for rho in rhos:
            if all(rho[rho[p]] == rho[p] and rho[lam[p]] == lam[rho[p]] for p in range(k)):
                out.append((lam, rho))
                if len(out) == limit:
                    return out
    return out


@pytest.mark.parametrize("k", [4, 5, 6])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_seeded_stream_equals_eager_reference(k, seed):
    stream = enumerate_systems(TRIVIAL, (k,), limit=6, seed=seed)
    assert [(s.lam[0], s.rho[0]) for s in stream] == eager_trivial_stream(k, seed, 6)


def test_seeded_enumeration_stores_codes_not_tuples():
    # the eager candidate lists for this call take about 9 MB
    tracemalloc.start()
    try:
        next(enumerate_systems(TRIVIAL, (6,), limit=1, seed=0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


PEAK_RSS_GROWTH = """
from lamrho import TRIVIAL, enumerate_systems
def peak():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
before = peak()
next(enumerate_systems(TRIVIAL, (7,), limit=1, seed=0))
print((peak() - before) * 1024)
"""


def test_seeded_enumeration_stores_4_byte_codes():
    # two 823,543-code slots: about 6.6 MB of 4-byte codes, 13.2 MB of 8-byte.
    # Measured as the growth of a fresh interpreter's peak resident set
    # (Linux's VmHWM, kB), since tracemalloc would trace every int the
    # shuffle allocates, at 20 times the cost of the call. ru_maxrss would
    # not do: exec keeps the forking process's peak, so under pytest it
    # starts above anything the call reaches
    src = os.path.dirname(os.path.dirname(os.path.abspath(lamrho.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_GROWTH],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 8 * 2**20


def test_limit_zero_builds_no_codes():
    tracemalloc.start()
    try:
        assert list(enumerate_systems(TRIVIAL, (7,), limit=0, seed=1)) == []
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


SHUFFLE_SIZES = sorted(
    set(range(71)) | {2**k + d for k in range(1, 18) for d in (-1, 0, 1)}
)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_bulk_shuffle_is_random_shuffle(seed):
    assert array("I").itemsize == 4
    for n in SHUFFLE_SIZES:
        expected, got = list(range(n)), array("I", range(n))
        reference, rng = random.Random(seed), random.Random(seed)
        reference.shuffle(expected)
        _shuffle(rng, got)
        assert got.tolist() == expected, n
        assert rng.getstate() == reference.getstate(), n


def digits(code, domain, codomain):
    values = []
    for _ in range(domain):
        code, digit = divmod(code, codomain)
        values.append(digit)
    return tuple(reversed(values))


DECODE_GRID = [(d, c) for d in range(6) for c in range(5)] + [(1, 5000), (2, 70)]


@pytest.mark.parametrize("domain,codomain", DECODE_GRID)
def test_seeded_candidates_are_the_digits_of_shuffled_codes(domain, codomain):
    reference, rng = random.Random(3), random.Random(3)
    codes = list(range(codomain**domain))
    reference.shuffle(codes)
    expected = [digits(code, domain, codomain) for code in codes]
    visit = _candidates(("lam", 0, 0, domain, codomain, None), rng)
    assert rng.getstate() == reference.getstate()
    assert list(visit()) == expected
    assert list(visit()) == expected  # a fresh iterator on every visit


def test_seeded_enumeration_checks_its_cap_before_allocating():
    # 9**9 codes of one slot would take about 3 GB
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapError, match=r"9\*\*9 = 387420489 maps, cap is 16777216"):
            next(enumerate_systems(TRIVIAL, (9,), limit=1, seed=0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
