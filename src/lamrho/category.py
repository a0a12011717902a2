"""Arrows between index-map systems.

Two kinds of arrows live here. Same-base morphisms carry one index map
per base element. General transformations pair a backwards base
homomorphism h : T -> S with a family t[a] : I[h(a)] -> J[a]; both
squares

    lamJ[a,b] o t[ab] = t[a] o lamI[h(a),h(b)]
    rhoJ[a,b] o t[ab] = t[b] o rhoI[h(a),h(b)]

must commute. Every transformation induces a homomorphism of products in
the opposite direction, (x, a) |-> (x o t[a], h(a)).

Free systems over a bounded word length are also built here, together
with the canonical transformation from any concrete system into the free
system over its own element alphabet, whose induced homomorphism is onto.
"""

from __future__ import annotations

import itertools
import math
from functools import cache, reduce

from .errors import (
    DEFAULT_UNIVERSE_CAP,
    ComposeMismatchError,
    MapRangeError,
    SizeCapError,
    SquareViolationError,
    count_text,
)
from .product import _positions, _product_hom, _route, _tuples, product_table
from .semigroup import FiniteSemigroup, Homomorphism, _Frozen, subsemigroup_table
from .system import (
    LrSystem, _axiom_checks, _defined_pairs, _map_equation_failures, validate_axioms
)


# ---------------------------------------------------------------------------
# Same-base morphisms


class SystemMorphism(_Frozen):
    """A family t[a] : I[a] -> I'[a] between systems over one base."""

    source: LrSystem
    target: LrSystem
    maps: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.source.base != self.target.base:
            raise ComposeMismatchError("morphism needs a common base semigroup")
        self.as_transformation()  # shape checks

    def as_transformation(self) -> "Transformation":
        return Transformation(
            self.source,
            self.target,
            Homomorphism.identity(self.source.base),
            self.maps,
        )


# ---------------------------------------------------------------------------
# General transformations


class Transformation(_Frozen):
    """Arrow from (source.base, source) to (target.base, target).

    ``h`` runs backwards, from the target base to the source base, and
    ``maps[a]`` sends I_source[h(a)] into I_target[a]. Shape is checked
    here; the commuting squares are the job of validate_transformation.
    """

    source: LrSystem
    target: LrSystem
    h: Homomorphism
    maps: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.h.domain != self.target.base or self.h.codomain != self.source.base:
            raise ComposeMismatchError(
                "h must map the target base into the source base"
            )
        n = self.target.base.size
        if len(self.maps) != n:
            raise MapRangeError("need one map per target base element")
        for a in range(n):
            expected = self.source.index_sizes[self.h(a)]
            if len(self.maps[a]) != expected:
                raise MapRangeError(
                    f"map at {a} has length {len(self.maps[a])}, expected {expected}"
                )
            if any(
                not 0 <= v < self.target.index_sizes[a] for v in self.maps[a]
            ):
                raise MapRangeError(f"map at {a} has out-of-range values")


def identity_transformation(system: LrSystem) -> Transformation:
    maps = tuple(tuple(range(k)) for k in system.index_sizes)
    return Transformation(
        system, system, Homomorphism.identity(system.base), maps
    )


def _square_walk(elements, mul, h, source, target, maps, slots):
    """Yield ``(a, b, |I_source[h(a)h(b)]|, squares)`` for the defined
    pairs of target base elements, in lexicographic order, after refilling
    ``slots`` with the pair's maps lamJ[a,b], rhoJ[a,b], t[a], t[b],
    lamI[h(a),h(b)], rhoI[h(a),h(b)] and t[ab]. A square
    (kind, tgt, t[ab], t_c, src) reads tgt o t[ab] == t_c o src, lambda
    first. One list serves every pair: :func:`_map_equation_failures`
    finishes an entry before it draws the next.
    """
    for a in elements:
        for b, ab in _defined_pairs(elements, mul, a):
            ha, hb = h(a), h(b)
            slots[:] = (
                target.lam_map(a, b), target.rho_map(a, b), maps[a], maps[b],
                source.lam_map(ha, hb), source.rho_map(ha, hb), maps[ab],
            )
            size = source.fiber_size(source.base.mul(ha, hb))
            yield a, b, size, (("lambda", 0, 6, 2, 4), ("rho", 1, 6, 3, 5))


def validate_transformation(tr):
    """Check both commuting squares at every pair and index point.

    Accepts general transformations and canonical arrows into truncated
    free systems; for the latter, pairs whose concatenation escapes the
    length bound are outside the quantification domain. Raises
    SquareViolationError on the first failure, returns the arrow
    otherwise.
    """
    if isinstance(tr, FreeTransformation):
        found = tr.square_report().violations
        where = "words "
    else:
        base = tr.target.base
        slots = []
        _, found = _map_equation_failures(_square_walk(
            base.elements(), base.mul, tr.h, tr.source, tr.target, tr.maps, slots
        ), slots, True)
        where = ""
    if found:
        kind, a, b, p = found[0]
        raise SquareViolationError(
            f"{kind} square fails at {where}({a},{b}), point {p}",
            kind=kind,
            a=a,
            b=b,
            point=p,
        )
    return tr


def compose_transformations(
    f2: Transformation, f1: Transformation
) -> Transformation:
    """Composite of f1 : A -> B and f2 : B -> C.

    Base homomorphisms compose the other way round, and the map family
    pulls f1's maps back along f2's base homomorphism before applying
    f2's own maps.
    """
    if f1.target != f2.source:
        raise ComposeMismatchError("target of f1 must equal source of f2")
    c_base = f2.target.base
    h_map = tuple(f1.h(f2.h(u)) for u in c_base.elements())
    h = Homomorphism(c_base, f1.source.base, h_map)
    maps = tuple(
        tuple(f2.maps[u][v] for v in f1.maps[f2.h(u)])
        for u in c_base.elements()
    )
    return validate_transformation(
        Transformation(f1.source, f2.target, h, maps)
    )


def pullback_system(f: Homomorphism, system: LrSystem) -> LrSystem:
    """Reindex a system over S along f : T -> S to a system over T."""
    if f.codomain != system.base:
        raise ComposeMismatchError("f must land in the system's base")
    t = f.domain
    sizes = tuple(system.index_sizes[f(a)] for a in t.elements())
    lam, rho = (
        tuple(pair_map(f(a), f(b)) for a in t.elements() for b in t.elements())
        for pair_map in (system.lam_map, system.rho_map)
    )
    return validate_axioms(LrSystem(t, sizes, lam, rho))


def restrict(system: LrSystem, subset) -> tuple[LrSystem, Transformation]:
    """Restriction to a product-closed element set, with its canonical
    arrow (inclusion on the base, identity index maps): the pullback along
    the inclusion."""
    elems = tuple(sorted(set(subset)))
    sub = subsemigroup_table(system.base, elems)  # raises NotClosedError
    inclusion = Homomorphism(sub, system.base, elems)
    restricted = pullback_system(inclusion, system)
    maps = tuple(tuple(range(k)) for k in restricted.index_sizes)
    arrow = validate_transformation(
        Transformation(system, restricted, inclusion, maps)
    )
    return restricted, arrow


def is_system_isomorphism(tr: Transformation) -> bool:
    """True iff h is a base isomorphism and every t[a] is a bijection."""
    if not tr.h.is_bijective():
        return False
    for a in tr.target.base.elements():
        if sorted(tr.maps[a]) != list(range(tr.target.index_sizes[a])):
            return False
    return True


def induced_hom(
    h_sg: FiniteSemigroup, tr: Transformation, cap: int = DEFAULT_UNIVERSE_CAP
) -> Homomorphism:
    """The product homomorphism H^[target] -> H^[source] induced by an
    arrow: (x, a) |-> (x o t[a], h(a)). Contravariant in the arrow."""
    domain = product_table(h_sg, tr.target, cap=cap)
    codomain = product_table(h_sg, tr.source, cap=cap)
    images = (
        (tr.h(a), tuple(x[v] for v in tr.maps[a])) for a, x in _tuples(h_sg, tr.target)
    )
    return _product_hom(domain, codomain, h_sg, tr.source, images)


# ---------------------------------------------------------------------------
# Truncated free systems

Word = tuple[int, ...]


def _words_up_to(alphabet: int, bound: int, include_empty: bool) -> tuple[Word, ...]:
    out: list[Word] = [()] if include_empty else []
    if alphabet == 0:
        return tuple(out)  # no letters: no word is longer than the empty one
    for length in range(1, bound + 1):
        out.extend(itertools.product(range(alphabet), repeat=length))
    return tuple(out)


def _held_entries(alphabet: int, points: int, bound: int, cap: int) -> tuple[int, int]:
    """Letters held by the words of lengths 1..bound plus coordinates held
    by their candidate fiber points, sum of L * (alphabet**L + points**L),
    where ``points`` is the sum of the letter fiber sizes.

    Counting stops at the first length whose running total passes ``cap``;
    returns (total, last length counted).
    """
    total = 0
    if alphabet == 0:
        return total, bound
    for length in range(1, bound + 1):
        total += length * (alphabet**length + points**length)
        if total > cap:
            return total, length
    return total, bound


def _word_triples(alphabet: int, shortest: int, bound: int, cap: int) -> int:
    """Triples of words, each at least ``shortest`` letters long, whose
    lengths sum to at most ``bound``: the sum over total lengths t of
    C(t - 3*shortest + 2, 2) * alphabet**t. Counting stops once the running
    total passes ``cap``."""
    total = 0
    for t in range(3 * shortest, bound + 1):
        total += math.comb(t - 3 * shortest + 2, 2) * alphabet**t
        if total > cap or alphabet == 0:
            break  # with no letters, no longer triple exists
    return total


class FreeAxiomReport(_Frozen):
    instances: int
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


class TruncatedFreeSystem:
    """An index-map system over words of bounded length.

    In plain mode the base is the free semigroup on the alphabet, fibers
    of words are products of the letter fibers, and the pair maps are the
    two projections. In unit mode (``shared_size`` given) the base is the
    free monoid: the empty word carries the shared set, a word's fiber
    keeps only chain-compatible tuples (each letter's rho value meets the
    next letter's lambda value in the shared set), and the maps to and
    from the empty word are assembled from the per-letter maps.

    Everything is materialised for words of length <= bound; operations
    return None beyond the bound, and the axiom check quantifies only
    over triples whose full concatenation stays within it. Before anything
    is built, the letters and fiber coordinates the bound implies are
    counted from the letter sizes alone, and before the axiom check walks,
    so are its word triples; more than ``cap`` of either raises
    SizeCapError.
    """

    def __init__(
        self,
        letter_sizes,
        bound: int,
        shared_size: int | None = None,
        letter_lambda=None,
        letter_rho=None,
        cap: int = DEFAULT_UNIVERSE_CAP,
    ):
        if bound < 1:
            raise MapRangeError("length bound must be at least 1")
        self.letter_sizes = tuple(letter_sizes)
        if any(k < 0 for k in self.letter_sizes):
            raise MapRangeError("letter fiber sizes must be non-negative")
        self.alphabet = len(self.letter_sizes)
        self.bound = bound
        self.cap = cap
        self.unit = shared_size is not None
        self.shared_size = shared_size
        if self.unit:
            if shared_size < 1:
                raise MapRangeError("shared set must be nonempty")
            if letter_lambda is None or letter_rho is None:
                raise MapRangeError("unit mode needs per-letter maps")
            self.letter_lambda = tuple(tuple(m) for m in letter_lambda)
            self.letter_rho = tuple(tuple(m) for m in letter_rho)
            for x in range(self.alphabet):
                for m, tag in ((self.letter_lambda[x], "lambda"),
                               (self.letter_rho[x], "rho")):
                    if len(m) != self.letter_sizes[x]:
                        raise MapRangeError(f"letter {tag}[{x}] has wrong length")
                    if any(not 0 <= v < shared_size for v in m):
                        raise MapRangeError(f"letter {tag}[{x}] out of range")
        else:
            self.letter_lambda = None
            self.letter_rho = None
        held, length = _held_entries(self.alphabet, sum(self.letter_sizes), bound, cap)
        held += shared_size or 0
        if held > cap:
            raise SizeCapError(
                f"free system of bound {bound} holds {held} letters and fiber "
                f"coordinates up to length {length}, cap is {cap}"
            )
        self.words = _words_up_to(self.alphabet, bound, self.unit)
        self._fibers: dict[Word, list] = {}
        self._pos: dict[Word, dict] = {}
        for w in self.words:
            fiber = self._build_fiber(w)
            self._fibers[w] = fiber
            self._pos[w] = {pt: i for i, pt in enumerate(fiber)}

    def _build_fiber(self, w: Word):
        if w == ():
            return list(range(self.shared_size))
        points = itertools.product(*(range(self.letter_sizes[x]) for x in w))
        if not self.unit:
            return list(points)
        out = []
        for v in points:
            if all(
                self.letter_rho[w[i]][v[i]] == self.letter_lambda[w[i + 1]][v[i + 1]]
                for i in range(len(w) - 1)
            ):
                out.append(v)
        return out

    def elements(self) -> tuple[Word, ...]:
        return self.words

    def mul(self, w: Word, u: Word) -> Word | None:
        wu = w + u
        return wu if len(wu) <= self.bound else None

    def fiber(self, w: Word):
        return self._fibers[w]

    def fiber_size(self, w: Word) -> int:
        return len(self._fibers[w])

    def position(self, w: Word, point) -> int:
        return self._pos[w][point]

    def lam_map(self, w: Word, u: Word) -> tuple[int, ...]:
        return self._pair_map(w, u, True)

    def rho_map(self, w: Word, u: Word) -> tuple[int, ...]:
        return self._pair_map(w, u, False)

    def _pair_map(self, w: Word, u: Word, left: bool) -> tuple[int, ...]:
        """lam[w,u] keeps the prefix w of each point of I[wu], rho[w,u]
        the suffix u. Through the empty word the map is the identity, or
        the first (last) letter's map into the shared set."""
        wu = self.mul(w, u)
        if wu is None:
            raise MapRangeError("pair escapes the length bound")
        kept, other = (w, u) if left else (u, w)
        if other == ():
            return tuple(range(self.fiber_size(kept)))
        if kept == ():
            # into the shared set; positions there are the values themselves
            letter, end = (self.letter_lambda, 0) if left else (self.letter_rho, -1)
            return tuple(letter[other[end]][v[end]] for v in self._fibers[other])
        pos = self._pos[kept]
        cut = slice(None, len(w)) if left else slice(len(w), None)
        return tuple(pos[v[cut]] for v in self._fibers[wu])

    def check_axioms(self) -> FreeAxiomReport:
        """All axiom instances whose triple concatenation stays in bound."""
        shortest = 0 if self.unit else 1
        triples = _word_triples(self.alphabet, shortest, self.bound, self.cap)
        if triples > self.cap:
            raise SizeCapError(
                f"free system of bound {self.bound} has at least {triples} word "
                f"triples to check, cap is {self.cap}"
            )
        maps = []  # lam[w,u] at lam(w, u) and rho[w,u] next, each built once

        @cache
        def lam(w, u):
            maps.extend((self.lam_map(w, u), self.rho_map(w, u)))
            return len(maps) - 2

        walk = _axiom_checks(
            self.words, self.mul, self.fiber_size, lam, lambda w, u: lam(w, u) + 1
        )
        instances, violations = _map_equation_failures(walk, maps, False)
        return FreeAxiomReport(instances, tuple(violations))

    def unital_on_truncated(self) -> bool:
        """Unit mode: lam[w, empty] and rho[empty, w] are identities for
        every materialised word."""
        if not self.unit:
            return False
        for w in self.words:
            ident = tuple(range(self.fiber_size(w)))
            if self.lam_map(w, ()) != ident or self.rho_map((), w) != ident:
                return False
        return True


def free_semigroup_system(
    letter_sizes, bound: int, cap: int = DEFAULT_UNIVERSE_CAP
) -> TruncatedFreeSystem:
    """Fibers of words are products of letter fibers; maps are the two
    projections. Axioms hold on the nose; check_axioms confirms it
    mechanically over the materialised range."""
    return TruncatedFreeSystem(letter_sizes, bound, cap=cap)


def free_monoid_system(
    shared_size: int, letter_lambda, letter_rho, bound: int, cap: int = DEFAULT_UNIVERSE_CAP
) -> TruncatedFreeSystem:
    """Unit-mode free system built from per-letter maps into a shared set."""
    letter_sizes = tuple(len(m) for m in letter_lambda)
    if tuple(len(m) for m in letter_rho) != letter_sizes:
        raise MapRangeError("letter lambda and rho must agree on fiber sizes")
    return TruncatedFreeSystem(
        letter_sizes,
        bound,
        shared_size=shared_size,
        letter_lambda=letter_lambda,
        letter_rho=letter_rho,
        cap=cap,
    )


# ---------------------------------------------------------------------------
# The canonical arrow into the free system


def word_product(base: FiniteSemigroup, word: Word) -> int:
    return reduce(base.mul, word)


def _prefix_suffix(base: FiniteSemigroup, word: Word) -> tuple[list, list]:
    """prefix[j] is the product of word[0..j], suffix[j] that of word[j..]."""
    prefix = list(itertools.accumulate(word, base.mul))
    suffix = list(itertools.accumulate(reversed(word), lambda t, s: base.mul(s, t)))
    return prefix, suffix[::-1]


def canonical_components(system: LrSystem, word: Word, z: int) -> tuple[int, ...]:
    """Value of the canonical map at index point z of the evaluated word.

    The first component peels z through lam against the rest of the word,
    the last through rho against the prefix, and each middle component
    routes through rho after lam.
    """
    n = len(word)
    if n == 1:
        return (z,)
    prefix, suffix = _prefix_suffix(system.base, word)
    comps = [system.lam_map(word[0], suffix[1])[z]]
    for j in range(1, n - 1):
        inner = system.lam_map(prefix[j], suffix[j + 1])[z]
        comps.append(system.rho_map(prefix[j - 1], word[j])[inner])
    comps.append(system.rho_map(prefix[n - 2], word[n - 1])[z])
    return tuple(comps)


def canonical_component_alt(system: LrSystem, word: Word, j: int, z: int) -> int:
    """Equivalent middle-component route (lam after rho); agreement with
    the primary route is itself an instance of the gamma axiom."""
    n = len(word)
    if not 1 <= j <= n - 2:
        raise ValueError("alternative formula applies to middle components")
    prefix, suffix = _prefix_suffix(system.base, word)
    inner = system.rho_map(prefix[j - 1], suffix[j])[z]
    return system.lam_map(word[j], suffix[j + 1])[inner]


class FreeSquareReport(_Frozen):
    pairs_checked: int
    middle_points_checked: int
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


class FreeTransformation:
    """Canonical arrow from a concrete system into the truncated free
    system over its base elements.

    The base homomorphism is word evaluation; index maps follow
    canonical_components, with t the identity on single letters, which is
    what makes the induced product homomorphism surjective.
    """

    def __init__(self, source: LrSystem, free: TruncatedFreeSystem, maps):
        self.source = source
        self.free = free
        self.maps = dict(maps)

    def base_image(self, w: Word) -> int:
        return word_product(self.source.base, w)

    def square_report(self) -> FreeSquareReport:
        violations = []
        middle = 0
        src, free = self.source, self.free
        for w in free.words:
            if len(w) < 3:
                continue
            ow = self.base_image(w)
            for z in range(src.index_sizes[ow]):
                comps = canonical_components(src, w, z)
                for j in range(1, len(w) - 1):
                    middle += 1
                    if comps[j] != canonical_component_alt(src, w, j, z):
                        violations.append(("middle", w, j, z))
        slots = []
        pairs, squares = _map_equation_failures(_square_walk(
            free.words, free.mul, self.base_image, src, free, self.maps, slots
        ), slots, False)
        return FreeSquareReport(pairs, middle, tuple(violations + squares))


def canonical_transformation(
    system: LrSystem, bound: int = 3
) -> FreeTransformation:
    """Build the canonical arrow at the given truncation bound.

    The free system's alphabet is the base element set with the system's
    own fiber sizes; the maps land in the free fibers by construction.
    """
    free = free_semigroup_system(system.index_sizes, bound)
    maps = {}
    for w in free.words:
        ow = word_product(system.base, w)
        seq = []
        for z in range(system.index_sizes[ow]):
            seq.append(free.position(w, canonical_components(system, w, z)))
        maps[w] = tuple(seq)
    return FreeTransformation(system, free, maps)


# ---------------------------------------------------------------------------
# Induced homomorphism out of the truncated free product


class FreeInducedHom(_Frozen):
    """Partial-structure verification of the induced homomorphism.

    The free-side product is only defined for pairs whose concatenated
    word stays within the bound, so the homomorphism property quantifies
    over exactly those pairs; surjectivity is onto the full concrete
    product.
    """

    homomorphic: bool
    surjective: bool
    pairs_checked: int
    domain_size: int
    codomain_size: int

    @property
    def ok(self) -> bool:
        return self.homomorphic and self.surjective


def induced_free_hom(
    h_sg: FiniteSemigroup,
    tr: FreeTransformation,
    cap: int = DEFAULT_UNIVERSE_CAP,
) -> FreeInducedHom:
    """Map (x, w) |-> (x o t[w], evaluated w) and verify it on in-range
    pairs, plus surjectivity (single letters already cover the image)."""
    system = tr.source
    free = tr.free
    target = product_table(h_sg, system, cap=cap)

    domain_size = sum(h_sg.size ** free.fiber_size(w) for w in free.words)
    if domain_size > cap:
        raise SizeCapError(
            f"truncated free product has {count_text(domain_size)} elements, "
            f"cap is {cap}"
        )
    pairs = sum(
        h_sg.size ** (free.fiber_size(w) + free.fiber_size(u))
        for w in free.words
        for u, _ in _defined_pairs(free.words, free.mul, w)
    )
    if pairs > cap:
        raise SizeCapError(
            f"truncated free product has {count_text(pairs)} element pairs "
            f"of in-bound words to check, cap is {cap}"
        )

    # the image code of every fiber tuple x of every word w, by w and x
    index = _positions(h_sg, system)
    image = {}
    for w in free.words:
        ow, t = tr.base_image(w), tr.maps[w]
        fiber = itertools.product(range(h_sg.size), repeat=free.fiber_size(w))
        image[w] = {x: index[ow, tuple(x[v] for v in t)] for x in fiber}
    hit = set().union(*(codes.values() for codes in image.values()))
    surjective = len(hit) == target.size

    homomorphic = all(
        image[wu][_route(h_sg, lam, rho, x, y)] == target.table[ix][iy]
        for w in free.words
        for u, wu in _defined_pairs(free.words, free.mul, w)
        for lam, rho in [(free.lam_map(w, u), free.rho_map(w, u))]
        for x, ix in image[w].items()
        for y, iy in image[u].items()
    )
    return FreeInducedHom(
        homomorphic, surjective, pairs, domain_size, target.size
    )
