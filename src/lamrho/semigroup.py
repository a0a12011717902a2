"""Finite semigroups as multiplication tables.

Elements are the integers 0..size-1 and ``table[i][j]`` encodes the
product i*j (row = left factor, column = right factor). Everything here
is immutable and pure: homomorphisms, congruences, quotients, direct
products, isomorphism search and division checks all consume and produce
value objects.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from .errors import (
    EmptyGeneratorsError,
    InvalidPartitionError,
    NonAssociativeError,
    NotACongruenceError,
    NotAHomomorphismError,
    OutOfRangeEntryError,
    SearchCapError,
    SizeCapError,
    TableFormatError,
)

DEFAULT_ISO_CAP = 32
DEFAULT_CONGRUENCE_CAP = 20000


def _is_int(value) -> bool:
    """An exact int: bool is an int subclass, but True and False name no
    element."""
    return type(value) is int


@dataclass(frozen=True)
class FiniteSemigroup:
    """A finite semigroup on elements 0..size-1.

    Construction checks shape and entry ranges only; associativity is the
    job of :func:`validate_table`, so that raw candidate tables can be
    represented and rejected with a witness.
    """

    size: int
    table: tuple[tuple[int, ...], ...]
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.size <= 0:
            raise TableFormatError("a semigroup needs at least one element")
        if len(self.table) != self.size:
            raise TableFormatError(
                f"table has {len(self.table)} rows, expected {self.size}"
            )
        for i, row in enumerate(self.table):
            if len(row) != self.size:
                raise TableFormatError(
                    f"row {i} has length {len(row)}, expected {self.size}"
                )
            for j, v in enumerate(row):
                # _is_int, inlined: this runs once per table entry
                if type(v) is not int or not 0 <= v < self.size:
                    raise OutOfRangeEntryError(
                        f"entry ({i},{j}) = {v!r} is not an element index"
                    )
        if self.names is not None and len(self.names) != self.size:
            raise TableFormatError("names must list one string per element")

    @staticmethod
    def from_rows(rows, names=None) -> "FiniteSemigroup":
        table = tuple(tuple(row) for row in rows)
        return FiniteSemigroup(len(table), table, tuple(names) if names else None)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def elements(self) -> range:
        return range(self.size)

    def name_of(self, i: int) -> str:
        return self.names[i] if self.names else str(i)

    def is_idempotent(self, i: int) -> bool:
        return self.table[i][i] == i

    def idempotents(self) -> tuple[int, ...]:
        return tuple(i for i in self.elements() if self.is_idempotent(i))

    def __repr__(self):
        return f"FiniteSemigroup(size={self.size})"


def associativity_witness(table) -> tuple[int, int, int] | None:
    """First triple (i,j,k) with (ij)k != i(jk), scanning lexicographically."""
    n = len(table)
    for i in range(n):
        row_i = table[i]
        for j in range(n):
            ij = row_i[j]
            row_ij = table[ij]
            row_j = table[j]
            for k in range(n):
                if row_ij[k] != row_i[row_j[k]]:
                    return (i, j, k)
    return None


def validate_table(rows, names=None) -> FiniteSemigroup:
    """Full validation gate: shape, entry ranges and associativity.

    Raises OutOfRangeEntryError or TableFormatError for malformed input and
    NonAssociativeError (with a witness triple) when the table is a magma
    but not a semigroup.
    """
    rows = list(rows)
    if any(len(row) != len(rows) for row in rows):
        raise TableFormatError("table must be square")
    sg = FiniteSemigroup.from_rows(rows, names)
    witness = associativity_witness(sg.table)
    if witness is not None:
        i, j, k = witness
        raise NonAssociativeError(
            f"not associative: ({i}*{j})*{k} = {sg.mul(sg.mul(i, j), k)} "
            f"but {i}*({j}*{k}) = {sg.mul(i, sg.mul(j, k))}",
            witness=witness,
        )
    return sg


def identity_element(sg: FiniteSemigroup) -> int | None:
    """The two-sided unit, or None. Uniqueness is automatic."""
    for e in sg.elements():
        if all(sg.mul(e, a) == a and sg.mul(a, e) == a for a in sg.elements()):
            return e
    return None


def is_group(sg: FiniteSemigroup) -> bool:
    e = identity_element(sg)
    if e is None:
        return False
    for a in sg.elements():
        if not any(sg.mul(a, b) == e and sg.mul(b, a) == e for b in sg.elements()):
            return False
    return True


def element_order_profile(sg: FiniteSemigroup, a: int) -> tuple[int, int]:
    """(index, period) of the cyclic subsemigroup generated by a."""
    seen = {}
    x = a
    step = 1
    while x not in seen:
        seen[x] = step
        x = sg.mul(x, a)
        step += 1
    first = seen[x]
    return (first, step - first)


def direct_product(a: FiniteSemigroup, b: FiniteSemigroup) -> FiniteSemigroup:
    """Componentwise product; element (x,y) sits at index x*|B| + y."""
    n = a.size * b.size
    table = []
    for x in a.elements():
        for y in b.elements():
            row = []
            for u in a.elements():
                for v in b.elements():
                    row.append(a.mul(x, u) * b.size + b.mul(y, v))
            table.append(tuple(row))
    names = None
    if a.names and b.names:
        names = tuple(
            f"({a.name_of(x)},{b.name_of(y)})"
            for x in a.elements()
            for y in b.elements()
        )
    return FiniteSemigroup(n, tuple(table), names)


def subsemigroup_closure(sg: FiniteSemigroup, generators) -> tuple[int, ...]:
    """Smallest product-closed superset of the generators, sorted."""
    gens = sorted(set(generators))
    if not gens:
        raise EmptyGeneratorsError("closure of an empty set is undefined")
    for g in gens:
        if not 0 <= g < sg.size:
            raise OutOfRangeEntryError(f"generator {g} out of range")
    closed: set[int] = set()
    _grow_closure(sg.table, closed, gens)
    return tuple(sorted(closed))


def _grow_closure(table, closed: set, new) -> None:
    """Adjoin the elements ``new`` to the product-closed set ``closed``, in
    place, and close it again. Only products with at least one new factor
    are formed: the others already lie in ``closed``."""
    frontier = [x for x in new if x not in closed]
    closed.update(frontier)
    while frontier:
        nxt = []
        for x in frontier:
            row_x = table[x]
            for y in list(closed):
                for z in (row_x[y], table[y][x]):
                    if z not in closed:
                        closed.add(z)
                        nxt.append(z)
        frontier = nxt


def subsemigroup_table(sg: FiniteSemigroup, elements) -> FiniteSemigroup:
    """Restriction of the table to a closed element set, reindexed.

    Ambient element elements[i] becomes local element i; raises
    NotClosedError if the set is not product-closed.
    """
    from .errors import NotClosedError

    elems = tuple(sorted(set(elements)))
    pos = {e: i for i, e in enumerate(elems)}
    table = []
    for x in elems:
        row = []
        for y in elems:
            z = sg.mul(x, y)
            if z not in pos:
                raise NotClosedError(f"{x}*{y} = {z} escapes the subset")
            row.append(pos[z])
        table.append(tuple(row))
    names = tuple(sg.name_of(e) for e in elems) if sg.names else None
    return FiniteSemigroup(len(elems), tuple(table), names)


# ---------------------------------------------------------------------------
# Partitions, congruences, quotients


@dataclass(frozen=True)
class Partition:
    """Partition of 0..size-1 into disjoint nonempty classes.

    Classes are stored canonically: members sorted, classes ordered by
    their smallest member.
    """

    size: int
    classes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen = set()
        for cls in self.classes:
            if not cls:
                raise InvalidPartitionError("empty class")
            for x in cls:
                if not 0 <= x < self.size:
                    raise InvalidPartitionError(f"element {x} out of range")
                if x in seen:
                    raise InvalidPartitionError(f"element {x} in two classes")
                seen.add(x)
        if len(seen) != self.size:
            missing = sorted(set(range(self.size)) - seen)
            raise InvalidPartitionError(f"elements not covered: {missing}")

    @staticmethod
    def from_classes(size: int, classes) -> "Partition":
        canon = tuple(
            sorted((tuple(sorted(set(c))) for c in classes), key=lambda c: c[0])
        )
        return Partition(size, canon)

    @staticmethod
    def discrete(size: int) -> "Partition":
        return Partition(size, tuple((i,) for i in range(size)))

    @staticmethod
    def single(size: int) -> "Partition":
        return Partition(size, (tuple(range(size)),))

    def membership(self) -> tuple[int, ...]:
        """Class index of each element."""
        out = [0] * self.size
        for ci, cls in enumerate(self.classes):
            for x in cls:
                out[x] = ci
        return tuple(out)

    def num_classes(self) -> int:
        return len(self.classes)


def is_congruence(sg: FiniteSemigroup, part: Partition) -> bool:
    """True iff the partition is compatible with the product.

    Checked through left and right translations, which is equivalent to
    the two-sided form a~a', b~b' implies ab~a'b'.
    """
    if part.size != sg.size:
        raise InvalidPartitionError("partition size does not match semigroup")
    m = part.membership()
    for cls in part.classes:
        rep = cls[0]
        for other in cls[1:]:
            for c in sg.elements():
                if m[sg.mul(rep, c)] != m[sg.mul(other, c)]:
                    return False
                if m[sg.mul(c, rep)] != m[sg.mul(c, other)]:
                    return False
    return True


# The congruence engine works on union-find forests in which every parent
# pointer goes to a lesser element, so every root is the least member of its
# class and the tuple of each element's root ("leaders") is a canonical key
# for the partition.


def _leaders(parent: list) -> tuple[int, ...]:
    lead = list(parent)
    for x, p in enumerate(lead):
        lead[x] = lead[p]  # p <= x, so lead[p] is already p's root
    return tuple(lead)


def _partition(leaders) -> Partition:
    groups: dict[int, list[int]] = {}
    for x, lead in enumerate(leaders):
        groups.setdefault(lead, []).append(x)
    return Partition.from_classes(len(leaders), groups.values())


def _close(table, gens, parent: list, classes: int, work: list, floor: int):
    """Merge the pairs on ``work`` into ``parent``, pushing each pair that
    merges two classes through the left and right translations by ``gens``.

    When ``gens`` generates the semigroup the result is the least
    congruence above ``parent`` and ``work``: every translation is a
    composite of generator translations, and the merging pairs connect
    every class, so the result is closed under all of them. Returns the
    number of classes, or None as soon as it falls below ``floor``.
    """
    while work:
        a, b = work.pop()
        ra, rb = a, b
        while parent[ra] != ra:  # find with path halving
            parent[ra] = ra = parent[parent[ra]]
        while parent[rb] != rb:
            parent[rb] = rb = parent[parent[rb]]
        if ra == rb:
            continue
        if ra < rb:
            parent[rb] = ra
        else:
            parent[ra] = rb
        classes -= 1
        if classes < floor:
            return None
        row_a, row_b = table[a], table[b]
        for g in gens:
            row_g = table[g]
            work.append((row_a[g], row_b[g]))
            work.append((row_g[a], row_g[b]))
    return classes


def congruence_generated_by(sg: FiniteSemigroup, pairs) -> Partition:
    """Least congruence containing the given pairs.

    Union-find closure: every pair that merges two classes is pushed
    through the left and right translations by a generating set
    (:func:`greedy_generators`) until the relation is stable, which is
    2|G| pushes per merge instead of 2|S|.
    """
    work = []
    for a, b in pairs:
        if not (0 <= a < sg.size and 0 <= b < sg.size):
            raise OutOfRangeEntryError(f"pair ({a},{b}) out of range")
        work.append((a, b))
    parent = list(range(sg.size))
    _close(sg.table, greedy_generators(sg), parent, sg.size, work, 1)
    return _partition(_leaders(parent))


def quotient(sg: FiniteSemigroup, part: Partition) -> FiniteSemigroup:
    """Quotient semigroup on classes, each named by its smallest member."""
    if not is_congruence(sg, part):
        raise NotACongruenceError("partition is not a congruence")
    m = part.membership()
    reps = [cls[0] for cls in part.classes]
    table = tuple(
        tuple(m[sg.mul(x, y)] for y in reps) for x in reps
    )
    names = tuple(sg.name_of(r) for r in reps)
    return FiniteSemigroup(len(reps), table, names)


def all_congruences(sg: FiniteSemigroup, cap: int = DEFAULT_CONGRUENCE_CAP):
    """Every congruence of sg, as joins of principal congruences.

    Each principal congruence Cg(a, b) is closed by :func:`_close` over
    the translations by one generating set. Every congruence is a join of
    principal ones, and the join of two congruences is their join as
    equivalence relations (Con(S) is a sublattice of Eq(S)), so joins are
    formed by merging one partition into the other in a union-find, with
    no translation pushes.

    Deterministic order: sorted by (number of classes descending, class
    tuple). ``cap`` counts the congruences the search holds, the discrete
    one included; SearchCapError is raised as soon as it holds more.
    """
    return _congruences_above(sg, cap, 1)


def _congruences_above(sg: FiniteSemigroup, cap: int, floor: int) -> list:
    """The congruences of sg with at least ``floor`` classes, in the order
    of :func:`all_congruences`.

    A join never has more classes than either operand, so a congruence
    with k >= floor classes is the join of the principal congruences below
    it, each with at least k classes, taken one at a time through partial
    joins that all keep at least k classes. Principals and joins that fall
    below the floor are therefore dropped as soon as they do.
    """
    n, table = sg.size, sg.table
    gens = greedy_generators(sg)
    known = {tuple(range(n)): n}  # leaders -> number of classes

    def hold(leaders, classes):
        known[leaders] = classes
        if len(known) > cap:
            raise SearchCapError(f"more than {cap} congruences; search truncated")

    principals = []
    for a in range(n):
        for b in range(a + 1, n):
            parent = list(range(n))
            classes = _close(table, gens, parent, n, [(a, b)], floor)
            if classes is None:
                continue
            leaders = _leaders(parent)
            if leaders not in known:
                hold(leaders, classes)
                principals.append([(x, y) for x, y in enumerate(leaders) if x != y])
    frontier = list(known)
    while frontier:
        fresh = []
        for base in frontier:
            for pairs in principals:
                # a join of congruences is their join as equivalences:
                # merge the pairs with no generators to push them through
                parent = list(base)
                classes = _close(table, (), parent, known[base], list(pairs), floor)
                if classes is None:
                    continue
                joined = _leaders(parent)
                if joined not in known:
                    hold(joined, classes)
                    fresh.append(joined)
        frontier = fresh
    result = [_partition(leaders) for leaders in known]
    result.sort(key=lambda p: (-p.num_classes(), p.classes))
    return result


# ---------------------------------------------------------------------------
# Homomorphisms and isomorphism search


@dataclass(frozen=True)
class Homomorphism:
    """A product-respecting map between finite semigroups.

    The defining property map[x*y] == map[x]*map[y] is checked on
    construction.
    """

    domain: FiniteSemigroup
    codomain: FiniteSemigroup
    map: tuple[int, ...]

    def __post_init__(self):
        if len(self.map) != self.domain.size:
            raise NotAHomomorphismError("map must cover every domain element")
        for v in self.map:
            if not 0 <= v < self.codomain.size:
                raise NotAHomomorphismError(f"image {v} out of range")
        for x in self.domain.elements():
            for y in self.domain.elements():
                if self.map[self.domain.mul(x, y)] != self.codomain.mul(
                    self.map[x], self.map[y]
                ):
                    raise NotAHomomorphismError(
                        f"map breaks the product at ({x},{y})"
                    )

    def __call__(self, x: int) -> int:
        return self.map[x]

    def is_injective(self) -> bool:
        return len(set(self.map)) == self.domain.size

    def is_bijective(self) -> bool:
        return self.domain.size == self.codomain.size and self.is_injective()

    @staticmethod
    def identity(sg: FiniteSemigroup) -> "Homomorphism":
        return Homomorphism(sg, sg, tuple(sg.elements()))

    def __repr__(self):
        return f"Homomorphism({self.domain.size}->{self.codomain.size}, {list(self.map)})"


def _element_fingerprint(sg: FiniteSemigroup, i: int):
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


def greedy_generators(sg: FiniteSemigroup) -> tuple[int, ...]:
    """Small generating set: repeatedly adjoin the least missing element.

    One closure grows as generators are adjoined, so each product is
    formed once over the whole run.
    """
    gens: list[int] = []
    closed: set[int] = set()
    for x in sg.elements():
        if x not in closed:
            gens.append(x)
            _grow_closure(sg.table, closed, (x,))
    return tuple(gens)


def _propagate(a: FiniteSemigroup, b: FiniteSemigroup, seed: dict) -> dict | None:
    """Extend a partial map on generators to the closure, or None on clash."""
    phi = dict(seed)
    used = set(phi.values())
    if len(used) != len(phi):
        return None
    changed = True
    while changed:
        changed = False
        items = list(phi.items())
        for x, vx in items:
            for y, vy in items:
                z = a.mul(x, y)
                v = b.mul(vx, vy)
                if z in phi:
                    if phi[z] != v:
                        return None
                else:
                    if v in used:
                        return None
                    phi[z] = v
                    used.add(v)
                    changed = True
    return phi


def find_isomorphism(
    a: FiniteSemigroup, b: FiniteSemigroup, cap: int = DEFAULT_ISO_CAP
) -> Homomorphism | None:
    """A bijective homomorphism a -> b, or None after exhaustive search.

    Backtracks over images of a greedy generating set, pruning candidates
    by per-element fingerprints (idempotency, order profile, row/column
    multiset shape). Deterministic: first match in lexicographic order of
    generator images.
    """
    if a.size != b.size:
        return None
    if a.size > cap:
        raise SizeCapError(f"isomorphism search capped at {cap} elements")
    fa = [_element_fingerprint(a, i) for i in a.elements()]
    fb = [_element_fingerprint(b, i) for i in b.elements()]
    if sorted(fa) != sorted(fb):
        return None
    gens = greedy_generators(a)
    candidates = [
        [j for j in b.elements() if fb[j] == fa[g]] for g in gens
    ]

    def backtrack(k, seed):
        if k == len(gens):
            phi = _propagate(a, b, seed)
            if phi is None or len(phi) != a.size:
                return None
            mapping = tuple(phi[x] for x in a.elements())
            if len(set(mapping)) != a.size:
                return None
            try:
                return Homomorphism(a, b, mapping)
            except NotAHomomorphismError:
                return None
        for img in candidates[k]:
            if img in seed.values():
                continue
            trial = dict(seed)
            trial[gens[k]] = img
            if _propagate(a, b, trial) is None:
                continue
            found = backtrack(k + 1, trial)
            if found is not None:
                return found
        return None

    return backtrack(0, {})


# ---------------------------------------------------------------------------
# Division


@dataclass(frozen=True)
class DivisionWitness:
    """Exhibits T as a quotient of a subsemigroup of S.

    ``sub_elements`` lists the subsemigroup in ambient indices (the whole
    semigroup for strong division), ``partition`` is a congruence of the
    reindexed subsemigroup, and ``iso`` maps its quotient onto T.
    """

    sub_generators: tuple[int, ...] | None
    sub_elements: tuple[int, ...]
    partition: Partition
    iso: Homomorphism

    def ambient_classes(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(self.sub_elements[i] for i in cls) for cls in self.partition.classes
        )


def divides(
    t: FiniteSemigroup,
    s: FiniteSemigroup,
    quotient_only: bool = False,
    congruence_cap: int = DEFAULT_CONGRUENCE_CAP,
    iso_cap: int = DEFAULT_ISO_CAP,
) -> DivisionWitness | None:
    """Search for a witness that t divides s.

    With quotient_only, only congruences of s itself are searched (t must
    appear directly as a quotient). Otherwise subsemigroups arising as
    closures of generator sets of size <= 3 are searched as well. Returns
    None when the bounded search exhausts without finding a witness;
    raises SearchCapError when a truncated search stayed inconclusive.

    Candidates are the congruences with exactly |t| classes, tried in the
    order of :func:`all_congruences`. The lattice search keeps only
    congruences with at least |t| classes (the class-count floor of
    ``_congruences_above``), so ``congruence_cap`` counts only those: a
    search that would hit the cap over the whole lattice may finish.
    """
    if t.size > s.size:
        return None
    truncated = False

    subs: list[tuple[tuple[int, ...] | None, tuple[int, ...]]] = [
        (None, tuple(s.elements()))
    ]
    if not quotient_only:
        seen = {tuple(s.elements())}
        found_subs = []
        for k in (1, 2, 3):
            for gens in itertools.combinations(range(s.size), k):
                closed = subsemigroup_closure(s, gens)
                if closed not in seen and len(closed) >= t.size:
                    seen.add(closed)
                    found_subs.append((gens, closed))
        found_subs.sort(key=lambda item: (len(item[1]), item[1]))
        subs.extend(found_subs)

    for gens, elems in subs:
        sub = s if gens is None else subsemigroup_table(s, elems)
        try:
            congruences = _congruences_above(sub, congruence_cap, t.size)
        except SearchCapError:
            truncated = True
            continue
        for part in congruences:
            if part.num_classes() != t.size:
                continue
            q = quotient(sub, part)
            iso = find_isomorphism(q, t, cap=iso_cap)
            if iso is not None:
                return DivisionWitness(gens, elems, part, iso)
    if truncated:
        raise SearchCapError("division search truncated; result inconclusive")
    return None


# ---------------------------------------------------------------------------
# Built-in catalog: the small semigroups everything else keeps reusing.

TRIVIAL = FiniteSemigroup.from_rows([[0]], names=["1"])
Z2 = FiniteSemigroup.from_rows([[0, 1], [1, 0]], names=["0", "1"])
Z3 = FiniteSemigroup.from_rows([[0, 1, 2], [1, 2, 0], [2, 0, 1]], names=["0", "1", "2"])
L2 = FiniteSemigroup.from_rows([[0, 0], [1, 1]], names=["a", "b"])
R2 = FiniteSemigroup.from_rows([[0, 1], [0, 1]], names=["a", "b"])
L2_1 = FiniteSemigroup.from_rows(
    [[0, 1, 2], [1, 1, 1], [2, 2, 2]], names=["1", "a", "b"]
)
JOIN2 = FiniteSemigroup.from_rows([[0, 1], [1, 1]], names=["0", "1"])
MEET2 = FiniteSemigroup.from_rows([[0, 0], [0, 1]], names=["0", "1"])

CATALOG = {
    "trivial": TRIVIAL,
    "z2": Z2,
    "z3": Z3,
    "l2": L2,
    "r2": R2,
    "l2_1": L2_1,
    "join2": JOIN2,
    "meet2": MEET2,
}


def builtin_semigroup(name: str) -> FiniteSemigroup:
    try:
        return CATALOG[name]
    except KeyError:
        raise KeyError(
            f"unknown built-in semigroup {name!r}; choose from {sorted(CATALOG)}"
        ) from None
