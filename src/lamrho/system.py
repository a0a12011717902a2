"""Index-map systems over a finite semigroup.

A system assigns every base element s a finite index set I[s] (a prefix
of the naturals) and every ordered pair (a,b) two maps

    lam[a,b] : I[ab] -> I[a]        rho[a,b] : I[ab] -> I[b]

subject to three composition axioms, written with (g o f)(x) = g(f(x)):

    (alpha)  lam[a,b] o lam[ab,c] = lam[a,bc]
    (beta)   rho[b,c] o rho[a,bc] = rho[ab,c]
    (gamma)  rho[a,b] o lam[ab,c] = lam[b,c] o rho[a,bc]

Maps are stored as dense sequences over their domain, so systems are
hashable values and enumeration order is plain tuple order.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
import sys
from array import array
from typing import Iterator

from .errors import (
    AxiomViolationError,
    IdealViolationError,
    MapRangeError,
    SizeCapError,
    count_text,
)
from .semigroup import (
    FiniteSemigroup, _associative, _Frozen, _setattr, identity_element, is_group
)

EXHAUSTIVE_BASE_CAP = 3
EXHAUSTIVE_FIBER_CAP = 3
# Seeded enumeration keeps one 4-byte code per map of a slot: 2**24 codes
# (64 MB) is every map between two fibers of 8.
SEEDED_CODE_CAP = 2**24
# A pinned slot, or one into a 1-point fiber, has one map, which the code
# cap does not bound: it may have at most 2**20 points (about 37 MB for
# an identity held as a tuple of ints).
MAP_POINT_CAP = 2**20
# Mersenne-Twister words fetched per getrandbits call in _shuffle.
_SHUFFLE_WORDS = 2**12
# Instance lists kept by _instance_walk, one per (base table, index sizes);
# each holds one entry per triple with a nonempty I[abc].
_WALK_CACHE = 64
# A slot with at most this many maps is decoded into a list and filtered
# ahead (forward checking); a larger seeded slot stays a lazy walk of its
# codes. Decoding pays for a filter when a slot has few maps and the search
# visits it many times, and not when the stream's limit stops the search
# after a few maps of a large slot. Seeded streams, median of 5 runs (2-core
# VM, Python 3.11.7), lazy against decoded: TRIVIAL (5,), 3,125 maps a slot,
# limit 20, 2.6-3.2 ms against 4.1-4.3 ms; TRIVIAL (6,), 46,656 maps, 28-31
# ms against 63-78 ms; Z2 (4,4), 256 maps, limit 60, 105 ms against 5.9 ms,
# and limit 10 over Z2, L2, R2, JOIN2 and MEET2 (4,4), 1.1-8.4 ms against
# 2.0-2.6 ms.
_AHEAD_CAP = 4**4


class LrSystem(_Frozen):
    """A shape-checked system of index sets and maps over ``base``.

    ``lam`` and ``rho`` hold one sequence per ordered pair, at position
    a*size+b. Shape and ranges are enforced here; the composition axioms
    are the job of :func:`validate_axioms`, so invalid candidates can be
    represented, reported on, and fed to the non-associativity witness.
    """

    base: FiniteSemigroup
    index_sizes: tuple[int, ...]
    lam: tuple[tuple[int, ...], ...]
    rho: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        # tuples, so a system built from lists hashes; tuple() keeps a tuple
        _setattr(self, "index_sizes", tuple(self.index_sizes))
        _setattr(self, "lam", tuple(map(tuple, self.lam)))
        _setattr(self, "rho", tuple(map(tuple, self.rho)))
        n = self.base.size
        if len(self.index_sizes) != n:
            raise MapRangeError("need one index size per base element")
        if any(k < 0 for k in self.index_sizes):
            raise MapRangeError("index sizes must be non-negative")
        if len(self.lam) != n * n or len(self.rho) != n * n:
            raise MapRangeError("need one lambda and one rho map per pair")
        for a in range(n):
            for b in range(n):
                dom = self.index_sizes[self.base.mul(a, b)]
                i = a * n + b
                pair = (("lambda", self.lam[i], a), ("rho", self.rho[i], b))
                # a wrong length at a pair is reported before a bad value there
                for kind, m, _ in pair:
                    if len(m) != dom:
                        raise MapRangeError(
                            f"{kind}[{a},{b}] has length {len(m)}, expected {dom}"
                        )
                for kind, m, c in pair:
                    if any(not 0 <= v < self.index_sizes[c] for v in m):
                        raise MapRangeError(f"{kind}[{a},{b}] value out of range")

    @staticmethod
    def from_maps(base, index_sizes, lam, rho) -> "LrSystem":
        """Build from dicts keyed by (a,b) pairs."""
        n = base.size
        lam_seq, rho_seq = (
            tuple(tuple(maps[(a, b)]) for a in range(n) for b in range(n))
            for maps in (lam, rho)
        )
        return LrSystem(base, tuple(index_sizes), lam_seq, rho_seq)

    def lam_map(self, a: int, b: int) -> tuple[int, ...]:
        return self.lam[a * self.base.size + b]

    def rho_map(self, a: int, b: int) -> tuple[int, ...]:
        return self.rho[a * self.base.size + b]

    def fiber_size(self, a: int) -> int:
        return self.index_sizes[a]

    def __repr__(self):
        return (
            f"LrSystem(base_size={self.base.size}, "
            f"index_sizes={list(self.index_sizes)})"
        )


class AxiomViolation(_Frozen):
    """Names the failed axiom, the base triple and the index point."""

    axiom: str
    a: int
    b: int
    c: int
    point: int

    def __str__(self):
        return (
            f"axiom ({self.axiom}) fails at triple "
            f"({self.a},{self.b},{self.c}), point {self.point}"
        )


def _defined_pairs(elements, mul, x):
    """Yield ``(y, x·y)`` for ``y`` in ``elements`` while ``mul`` defines
    it: words are listed by length, so once x·y is past the length bound
    (None), so is x·y' for every later y'."""
    for y in elements:
        xy = mul(x, y)
        if xy is None:
            return
        yield y, xy


def _axiom_checks(elements, mul, fiber_size, lam, rho):
    """Yield ``(a, b, c, |I[abc]|, checks)`` for every triple whose product
    abc is defined, in lexicographic order of ``elements``. ``checks``
    holds alpha, beta and gamma, in that order, as ``(axiom, f, g, h, k)``
    read f o g == h o k, with k None for the identity, where ``lam(x, y)``
    and ``rho(x, y)`` give the positions of the maps: in a list for a
    checker, slots for the enumerator.
    """
    for a in elements:
        for b, ab in _defined_pairs(elements, mul, a):
            lam_ab, rho_ab = lam(a, b), rho(a, b)
            for c, abc in _defined_pairs(elements, mul, ab):
                bc = mul(b, c)
                lam_ab_c, rho_a_bc = lam(ab, c), rho(a, bc)
                yield a, b, c, fiber_size(abc), (
                    ("alpha", lam_ab, lam_ab_c, lam(a, bc), None),
                    ("beta", rho(b, c), rho_a_bc, rho(ab, c), None),
                    ("gamma", rho_ab, lam_ab_c, lam(b, c), rho_a_bc),
                )


def _map_equation_failures(walk, maps, first_only):
    """Check the equations of ``walk`` against ``maps`` read by position.
    An entry is ``(*key, size, checks)``, the key a triple for an axiom, a
    pair for a square or an action law; a check ``(name, f, g, h, k)``
    reads f o g == h o k at the points 0..size-1, k None for the identity.
    Entries run in walk order, then points, then checks; each is finished
    before the next is drawn, so a walk may refill ``maps`` between them.
    Returns the number of entries walked and the ``(name, *key, point)``
    failures, only the first if ``first_only``."""
    checked, found = 0, []
    for *key, size, checks in walk:
        checked += 1
        for p in range(size):
            for name, f, g, h, k in checks:
                if maps[f][maps[g][p]] != (
                    maps[h][p] if k is None else maps[h][maps[k][p]]
                ):
                    found.append((name, *key, p))
                    if first_only:
                        return checked, found
    return checked, found


@functools.lru_cache(maxsize=_WALK_CACHE)
def _instance_walk(table, sizes):
    """The checks of :func:`_axiom_checks` over slot positions, as
    ``(a, b, c, |I[abc]|, checks)`` in its order, for the triples whose
    I[abc] is nonempty. lam[x,y] sits at x*n+y and rho[x,y] at
    n*n+x*n+y, the layout of ``lam + rho``. One tuple per base table and
    index sizes serves :func:`axiom_violations` and the enumerator.
    """
    n = len(table)
    # one int object per position, shared by every check that names it
    pos = list(range(2 * n * n))
    return tuple(
        triple
        for triple in _axiom_checks(
            range(n),
            lambda x, y: table[x][y],
            sizes.__getitem__,
            lambda x, y: pos[x * n + y],
            lambda x, y: pos[n * n + x * n + y],
        )
        if triple[3]
    )


def axiom_violations(system: LrSystem, first_only: bool = False):
    """All composition-axiom failures (or just the first, if asked): triples
    in lexicographic order, then points, then alpha, beta, gamma."""
    walk = _instance_walk(system.base.table, system.index_sizes)
    _, found = _map_equation_failures(walk, system.lam + system.rho, first_only)
    return [AxiomViolation(*v) for v in found]


def validate_axioms(system: LrSystem) -> LrSystem:
    """Check that the base associates, then all three axioms over every
    triple and index point.

    Returns the system unchanged on success. Raises NonAssociativeError, as
    :func:`~lamrho.semigroup.validate_table` does, for a base that does not
    associate, and AxiomViolationError carrying the first violation
    otherwise.
    """
    _associative(system.base)
    found = axiom_violations(system, first_only=True)
    if found:
        raise AxiomViolationError(str(found[0]), violation=found[0])
    return system


def empty_support_ideal(system: LrSystem) -> tuple[int, ...]:
    """Elements with empty index sets; checked to form a two-sided ideal.

    The check is a cross-check: it cannot fire on an axiom-valid system,
    because a map out of a nonempty set into an empty one cannot exist.
    """
    sg = system.base
    j = tuple(s for s in sg.elements() if system.index_sizes[s] == 0)
    if j:
        js = set(j)
        for s in sg.elements():
            for x in j:
                if sg.mul(s, x) not in js or sg.mul(x, s) not in js:
                    raise IdealViolationError(
                        f"empty-fiber support {sorted(js)} is not an ideal"
                    )
    return j


class UnitalCheck(_Frozen):
    """Outcome of the unit-preservation test, with a failure certificate."""

    unital: bool
    reason: str | None = None
    witness: tuple | None = None  # (a, 'lambda'|'rho', point)

    def __bool__(self):
        return self.unital


def is_unital(system: LrSystem) -> UnitalCheck:
    """Unit preservation: base is a monoid and lam[a,1], rho[1,a] are
    identities on I[a] for every a.

    Equivalently, the product of any monoid over this system is again a
    monoid; empty index sets pass vacuously (the identity on an empty set
    is the empty map).
    """
    e = identity_element(system.base)
    if e is None:
        return UnitalCheck(False, reason="base has no identity element")
    for a in system.base.elements():
        for kind, x, y, m in (
            ("lambda", a, e, system.lam_map(a, e)),
            ("rho", e, a, system.rho_map(e, a)),
        ):
            for p, v in enumerate(m):
                if v != p:
                    return UnitalCheck(
                        False,
                        reason=f"{kind}[{x},{y}] is not the identity",
                        witness=(a, kind, p),
                    )
    return UnitalCheck(True)


def is_group_preserving(system: LrSystem) -> bool:
    """True iff the base is a group and the system is unital."""
    return is_group(system.base) and bool(is_unital(system))


# ---------------------------------------------------------------------------
# Enumeration


def _slots(base, sizes, unital_only):
    """Every map slot ``(kind, a, b, domain, codomain, pinned)`` in search
    order: lam[a,b] at a*n+b, then rho[a,b] at n*n+a*n+b, the layout
    ``LrSystem`` stores. ``pinned`` is the identity on I[a] for lam[a,1]
    and rho[1,a] when ``unital_only``, else None; the result is None when
    the base has no identity. A slot with one map of more than
    ``MAP_POINT_CAP`` points raises SizeCapError before it is built.
    """
    e = identity_element(base) if unital_only else None
    if unital_only and e is None:
        return None
    elems = base.elements()
    slots = []
    for kind in ("lam", "rho"):
        for a in elems:
            for b in elems:
                # lam[a,b] maps into I[a], rho[a,b] into I[b]
                kept, other = (a, b) if kind == "lam" else (b, a)
                ab = base.mul(a, b)
                dom = sizes[ab]
                if dom > MAP_POINT_CAP and (other == e or sizes[kept] == 1):
                    raise SizeCapError(
                        f"{kind}[{a},{b}] is one map on I[{ab}], which has "
                        f"{count_text(dom)} points, cap is {MAP_POINT_CAP}"
                    )
                pinned = tuple(range(dom)) if other == e else None
                slots.append((kind, a, b, dom, sizes[kept], pinned))
    return slots


def _shuffle(rng, codes):
    """Shuffle ``codes`` in place exactly as ``rng.shuffle(codes)`` does,
    leaving ``rng`` in the same state.

    ``random.shuffle`` swaps position i with ``_randbelow(i + 1)`` for i
    from the last position down to 1, and ``_randbelow`` takes the top
    k = (i+1).bit_length() bits of one 32-bit word, retrying while the
    result exceeds i. Here the words come in bulk from one
    ``getrandbits(32*m)``, first word least significant, and m never
    exceeds the draws still to make, so no word is fetched that the
    shuffle would not have used.
    """
    i = len(codes) - 1
    while i > 0:
        m = min(i, _SHUFFLE_WORDS)
        words = array("I", rng.getrandbits(32 * m).to_bytes(4 * m, "little"))
        if sys.byteorder == "big":
            words.byteswap()
        shift = 32 - (i + 1).bit_length()
        floor = (1 << (31 - shift)) - 1  # least i with the same k
        for word in words:
            j = word >> shift
            if j <= i:
                codes[i], codes[j] = codes[j], codes[i]
                i -= 1
                if i < floor:
                    shift += 1
                    floor >>= 1


def _candidates(slot, rng):
    """Every map I[ab] -> I[x] of one slot, as a function giving a fresh
    iterator on each visit.

    Exhaustive mode walks ``itertools.product``. Seeded mode keeps one
    4-byte code per map, shuffled once by :func:`_shuffle`, which draws
    the swaps of ``random.shuffle``; the base-``codomain`` digits of a
    code, most significant first, are the map's values, so the shuffle
    permutes exactly the lexicographic list of maps. A code splits at
    ``B = codomain**(domain//2)`` into a high and a low half, and the map
    is ``high[code // B] + low[code % B]`` from two digit tables, each at
    least ``codomain`` times shorter than the code list once domain >= 2; a
    1-point map is its code.

    Every slot's ``codomain**domain`` codes are shuffled here, before the
    search starts, whatever the limit. A lazy draw cannot keep the stream
    identical: ``random.shuffle`` settles position 0 only at its last
    step, and its rejection-sampled draws set the generator state that
    every later slot starts from.
    """
    kind, a, b, domain, codomain, pinned = slot
    if pinned is not None:
        return lambda: (pinned,)
    if rng is None:
        return lambda: itertools.product(range(codomain), repeat=domain)
    # With codomain >= 2, a domain of 25 or more is past 2**24 codes, so
    # the cap is decided without building the power. The message builds it
    # only up to 2**16 bits, past every count int-to-str prints by default.
    if (
        codomain >= 2 and domain >= SEEDED_CODE_CAP.bit_length()
    ) or codomain**domain > SEEDED_CODE_CAP:
        power = f"{codomain}**{domain}"
        if domain * codomain.bit_length() <= 1 << 16:
            power += f" = {count_text(codomain**domain)}"
        raise SizeCapError(
            f"{kind}[{a},{b}] has {power} maps, cap is {SEEDED_CODE_CAP} codes"
        )
    codes = array("I", range(codomain**domain))
    _shuffle(rng, codes)
    if domain == 1:
        return lambda: zip(codes)
    half = domain // 2
    split = codomain**half
    high = list(itertools.product(range(codomain), repeat=domain - half))
    low = list(itertools.product(range(codomain), repeat=half))
    splits = itertools.repeat(split)
    return lambda: map(
        operator.add,
        map(high.__getitem__, map(operator.floordiv, codes, splits)),
        map(low.__getitem__, map(operator.mod, codes, splits)),
    )


def _instances(base, sizes):
    """Axiom instances ``(|I[abc]|, check, second-last)`` of
    :func:`_instance_walk`, grouped by the last slot they read. ``check``
    is the walk's own ``(axiom, f, g, h, k)`` record of slot positions,
    read f o g == h o k with k None for the identity. ``second-last`` is
    the largest slot read below the last one, or None when the instance
    reads one slot only. Triples with an empty I[abc] have none."""
    n = base.size
    by_last = [[] for _ in range(2 * n * n)]
    for *_, size, checks in _instance_walk(base.table, sizes):
        for check in checks:
            read = sorted({*check[1:]} - {None})
            below = read[-2] if len(read) > 1 else None
            by_last[read[-1]].append((size, check, below))
    return by_last


def _all_hold(insts, assign):
    """True when, for every instance of ``insts``, the maps at its slot
    positions in ``assign`` compose as :func:`_instances` reads them, at
    every point."""
    for size, (_, f, g, h, k), _ in insts:
        first, second, third = assign[f], assign[g], assign[h]
        if k is not None:
            fourth = assign[k]
            for p in range(size):
                if first[second[p]] != third[fourth[p]]:
                    return False
        else:
            for p in range(size):
                if first[second[p]] != third[p]:
                    return False
    return True


def enumerate_systems(
    base: FiniteSemigroup,
    index_sizes,
    limit: int | None = None,
    seed: int | None = None,
    unital_only: bool = False,
) -> Iterator[LrSystem]:
    """Yield distinct axiom-valid systems with the given fiber sizes.

    Small instances (base size <= 3, fibers <= 3) are enumerated
    exhaustively in lexicographic order of the concatenated lambda then
    rho tables, so streams are reproducible golden data. Larger instances
    fall back to seeded random backtracking (seed defaults to 0), still
    deterministic for a fixed seed. ``unital_only`` pins lam[a,1] and
    rho[1,a] to identities and yields nothing when the base is not a
    monoid. ``limit=0`` yields nothing and builds no candidate; a negative
    limit raises MapRangeError.

    The search fills one map slot at a time and checks forward. A slot of
    at most 4**4 maps (every exhaustive slot, every pinned one, and a
    seeded one such as any slot between fibers of 4) is decoded into a
    list before the search. An axiom instance whose last slot is such a slot filters that
    slot's list as soon as the instance's second-last slot is filled, and
    the search backtracks at once when the list is left empty. A larger
    seeded slot stays a lazy walk of its shuffled codes and is checked
    when it is filled: for a slot of 3,125 maps, decoding already cost
    more than filtering saved (measured at ``_AHEAD_CAP``). Filtering drops only
    maps that the check at the last slot would refuse, and every shuffle
    is drawn before the search, so the stream is unchanged.
    """
    sizes = tuple(index_sizes)
    if len(sizes) != base.size:
        raise MapRangeError("need one index size per base element")
    if any(k < 0 for k in sizes):
        raise MapRangeError("index sizes must be non-negative")
    if limit is not None and limit < 0:
        raise MapRangeError(f"limit must be non-negative, got {limit}")
    if limit == 0:
        return
    slots = _slots(base, sizes, unital_only)
    if slots is None:
        return
    small = base.size <= EXHAUSTIVE_BASE_CAP and (
        max(sizes, default=0) <= EXHAUSTIVE_FIBER_CAP
    )
    rng = None
    if not small or seed is not None:
        rng = random.Random(0 if seed is None else seed)

    n = base.size
    # a slot's candidates: a list when filtered ahead, else a function
    # giving a fresh lazy iterator on each visit
    domains = []
    for slot in slots:
        visit = _candidates(slot, rng)
        domain, codomain, pinned = slot[3:]
        listed = pinned is not None or codomain**domain <= _AHEAD_CAP
        domains.append(list(visit()) if listed else visit)
    # checks_at[k]: instances tested when slot k is assigned; ahead[k]:
    # (last slot, instances) pairs filtered when slot k is assigned
    checks_at = [[] for _ in slots]
    ahead = [{} for _ in slots]
    for last, insts in enumerate(_instances(base, sizes)):
        for inst in insts:
            below = inst[2]
            if below is None or type(domains[last]) is not list:
                checks_at[last].append(inst)
            else:
                ahead[below].setdefault(last, []).append(inst)
    ahead = [list(targets.items()) for targets in ahead]

    # the checks at slot k read slots up to k, and a filter at k sets the
    # slot it filters, so a slot is never reset
    assign: list = [None] * len(slots)

    def dfs(k):
        if k == len(slots):
            yield LrSystem(base, sizes, tuple(assign[: n * n]), tuple(assign[n * n :]))
            return
        checks, targets, cands = checks_at[k], ahead[k], domains[k]
        for cand in cands if type(cands) is list else cands():
            assign[k] = cand
            if checks and not _all_hold(checks, assign):
                continue
            saved = [domains[last] for last, _ in targets]
            for last, insts in targets:
                kept = []
                for c in domains[last]:
                    assign[last] = c
                    if _all_hold(insts, assign):
                        kept.append(c)
                if not kept:
                    break
                domains[last] = kept
            else:
                yield from dfs(k + 1)
            for (last, _), old in zip(targets, saved):
                domains[last] = old

    yield from itertools.islice(dfs(0), limit)
