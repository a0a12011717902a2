"""Finite semigroups as multiplication tables.

Elements are the integers 0..size-1 and ``table[i][j]`` encodes the
product i*j (row = left factor, column = right factor). Everything here
is immutable and pure: homomorphisms, congruences, quotients, direct
products, isomorphism search and division checks all consume and produce
value objects.
"""

from __future__ import annotations

import itertools
import math
from operator import add, attrgetter, itemgetter

from .errors import (
    DEFAULT_CONGRUENCE_CAP,
    DEFAULT_ISO_CAP,
    EmptyGeneratorsError,
    InvalidPartitionError,
    NonAssociativeError,
    NotACongruenceError,
    NotAHomomorphismError,
    NotClosedError,
    OutOfRangeEntryError,
    SearchCapError,
    SizeCapError,
    TableFormatError,
)


def _is_int(value) -> bool:
    """An exact int: bool is an int subclass, but True and False name no
    element."""
    return type(value) is int


_setattr = object.__setattr__


class _Frozen:
    """Base of the immutable value classes; it builds no code at import.

    A subclass declares its fields as annotations, in order, and their
    defaults as class attributes. The constructor takes the fields by
    position or keyword, sets them through ``object.__setattr__`` and then
    calls ``__post_init__``; assigning or deleting an attribute afterwards
    raises AttributeError. Two values are equal when they are of one class
    and their field tuples are equal, the hash is the field tuple's, and
    the default repr is ``Name(field=value, ...)``.
    """

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        # trailing: a field without a default never follows one with a default
        cls._defaults = tuple(vars(cls)[f] for f in cls._fields if f in vars(cls))
        # the field tuple at C speed; attrgetter of one name would give the
        # bare value, but every value class has two fields or more
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        # object.__setattr__, not the instance dict: reading that dict
        # would turn it into a real dict and slow every field read after
        for field, value in zip(fields, args):
            _setattr(self, field, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args, kwargs) -> tuple:
        """The field values of a call with keywords or defaults."""
        fields, defaults = cls._fields, cls._defaults
        short = len(fields) - len(args)
        if not kwargs and 0 < short <= len(defaults):  # the common call
            return args + defaults[-short:]
        named = fields[len(args):]
        if len(args) > len(fields) or not kwargs.keys() <= set(named):
            raise TypeError(f"{cls.__name__}() takes the fields {fields}, each once")
        values = dict(zip(fields[len(fields) - len(defaults):], defaults), **kwargs)
        missing = [f for f in named if f not in values]
        if missing:
            raise TypeError(f"{cls.__name__}() is missing the fields {missing}")
        return args + tuple(values[f] for f in named)

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        pairs = zip(self._fields, self._key(self))
        return f"{type(self).__qualname__}({', '.join(f'{f}={v!r}' for f, v in pairs)})"


class FiniteSemigroup(_Frozen):
    """A finite semigroup on elements 0..size-1.

    Construction checks shape and entry ranges only; associativity is the
    job of :func:`validate_table`, so that raw candidate tables can be
    represented and rejected with a witness. The one way round that check
    is :func:`_trusted`, whose one caller is ``product.product_table``.
    """

    size: int
    table: tuple[tuple[int, ...], ...]
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        # tuples, so a table built from lists hashes; tuple() keeps a tuple
        _setattr(self, "table", tuple(map(tuple, self.table)))
        if self.names is not None:
            _setattr(self, "names", tuple(self.names))
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
        table = tuple(rows)
        return FiniteSemigroup(len(table), table, names)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def elements(self) -> range:
        return range(self.size)

    def name_of(self, i: int) -> str:
        return self.names[i] if self.names else str(i)

    def is_idempotent(self, i: int) -> bool:
        return self.table[i][i] == i

    def __repr__(self):
        return f"FiniteSemigroup(size={self.size})"


def _trusted(size: int, table, names) -> FiniteSemigroup:
    """A FiniteSemigroup whose fields are set without the entry check, for
    a builder that makes every row ``size`` ints in range by construction."""
    sg = object.__new__(FiniteSemigroup)
    object.__setattr__(sg, "size", size)
    object.__setattr__(sg, "table", table)
    object.__setattr__(sg, "names", names)
    return sg


def associativity_witness(table) -> tuple[int, int, int] | None:
    """First triple (i,j,k) with (ij)k != i(jk) in lexicographic order, or
    None when the table is associative.

    Light's test decides first: with G from :func:`greedy_generators`, it
    checks (xg)y == x(gy) for every g in G and all x, y, which is n^2 |G|
    lookups instead of n^3. It is sound for any magma: the elements g with
    (xg)y == x(gy) for all x, y form a submagma, and it contains G. Only
    when a check fails does the lexicographic scan run, so the witness is
    always the first failing triple.
    """
    rows = list(map(tuple, table))
    n = len(rows)
    if n > 1:  # itemgetter of one item would return a bare int
        for g in _greedy_generators(rows):
            x_gy = itemgetter(*rows[g])  # row x -> the row of x(gy) over y
            if any(x_gy(row_x) != rows[row_x[g]] for row_x in rows):
                break
        else:
            return None
    for i in range(n):
        row_i = rows[i]
        for j in range(n):
            ij = row_i[j]
            row_ij = rows[ij]
            row_j = rows[j]
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
    return _associative(FiniteSemigroup.from_rows(rows, names))


def _associative(sg: FiniteSemigroup) -> FiniteSemigroup:
    """``sg``, unless its table fails associativity: then NonAssociativeError
    names the first failing triple and carries it as its witness."""
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
    """Smallest product-closed superset of the generators, sorted: the
    subsemigroup generated when the table is associative, as the walk of
    :func:`_extend` along the edges x -> x*g reaches every product."""
    gens = sorted(set(generators))
    if not gens:
        raise EmptyGeneratorsError("closure of an empty set is undefined")
    for g in gens:
        if not 0 <= g < sg.size:
            raise OutOfRangeEntryError(f"generator {g} out of range")
    return tuple(sorted(_closure_walk(sg.table, gens)[0]))


def _closure_walk(table, candidates) -> tuple[dict, list]:
    """Adjoin in turn each candidate the closure so far misses; returns the
    closure, as the identity map on it, and the candidates adjoined."""
    phi, gens = {}, []
    for x in candidates:
        if x not in phi:
            _extend(table, table, phi, gens, x, x, injective=False)
            gens.append(x)
    return phi, gens


def _extend(
    ta, tb, phi: dict, gens, x: int, img: int, injective: bool = True, limit: float = math.inf
) -> bool:
    """Extend ``phi`` in place from <gens> to <gens, x>, with x -> img.

    ``phi`` maps <gens>, which misses x, in table ``ta`` homomorphically
    into table ``tb``, and injectively unless ``injective`` is false (a
    division map may merge elements; the identity map of a closure walk
    cannot repeat an image). The walk assigns or checks
    phi(u*g) = phi(u)*phi(g) on each new edge of the right Cayley graph:
    every old element times x, every new element times every generator. In
    a semigroup that is the homomorphism law, by induction on word length.
    Returns False on a clash, on a repeated image when injective and once
    ``phi`` would pass ``limit`` elements, with ``phi`` part-built.
    """
    if injective:
        used = set(phi.values())
        if img in used:
            return False
        used.add(img)
    edges = [(g, phi[g]) for g in gens] + [(x, img)]
    # old elements walked every old edge when <gens> was built: x's is new
    walk = [(u, edges[-1:]) for u in phi]
    walk.append((x, edges))
    phi[x] = img
    if len(phi) > limit:
        return False
    for u, out in walk:  # grows as the walk finds elements
        row_u, row_v = ta[u], tb[phi[u]]
        for g, vg in out:
            z, v = row_u[g], row_v[vg]
            w = phi.get(z)
            if w is None:
                if injective:
                    if v in used:
                        return False
                    used.add(v)
                if len(phi) >= limit:
                    return False
                phi[z] = v
                walk.append((z, edges))
            elif w != v:
                return False
    return True


def subsemigroup_table(sg: FiniteSemigroup, elements) -> FiniteSemigroup:
    """Restriction of the table to a closed element set, reindexed.

    Ambient element elements[i] becomes local element i; raises
    NotClosedError if the set is not product-closed.
    """
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


class Partition(_Frozen):
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
        # an empty class sorts first, for the check to refuse by name
        canon = tuple(
            sorted((tuple(sorted(set(c))) for c in classes), key=lambda c: c[:1])
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


def _close(table, gens, parent: list, classes: int, work: list) -> int:
    """Merge the pairs on ``work`` into ``parent``, pushing each pair that
    merges two classes through the left and right translations by ``gens``.

    When ``gens`` generates the semigroup the result is the least
    congruence above ``parent`` and ``work``: every translation is a
    composite of generator translations, and the merging pairs connect
    every class, so the result is closed under all of them. Returns the
    number of classes.
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
    _close(sg.table, greedy_generators(sg), parent, sg.size, work)
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
            classes = _close(table, gens, parent, n, [(a, b)])
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
                classes = _close(table, (), parent, known[base], list(pairs))
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


class Homomorphism(_Frozen):
    """A product-respecting map between finite semigroups.

    The defining property map[x*y] == map[x]*map[y] is checked on
    construction.
    """

    domain: FiniteSemigroup
    codomain: FiniteSemigroup
    map: tuple[int, ...]

    def __post_init__(self):
        m = self.map
        if len(m) != self.domain.size:
            raise NotAHomomorphismError("map must cover every domain element")
        for v in m:
            if not 0 <= v < self.codomain.size:
                raise NotAHomomorphismError(f"image {v} out of range")
        # row x of map[x*y] against row map[x] of the codomain at map[y];
        # with one element both getters return a bare int, which compares
        # the same way
        images = itemgetter(*m)
        cod = self.codomain.table
        for x, row in enumerate(self.domain.table):
            row_v = cod[m[x]]
            if itemgetter(*row)(m) != images(row_v):
                y = next(y for y, z in enumerate(row) if m[z] != row_v[m[y]])
                raise NotAHomomorphismError(f"map breaks the product at ({x},{y})")

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


def greedy_generators(sg: FiniteSemigroup) -> tuple[int, ...]:
    """Small generating set: repeatedly adjoin the least missing element.

    One closure grows as generators are adjoined, so each product is
    formed once over the whole run.
    """
    return _greedy_generators(sg.table)


def _greedy_generators(table) -> tuple[int, ...]:
    # needs no associativity: on a magma the walk reaches the left-normed
    # products (...(g1*g2)*...)*gk, which lie in the submagma generated, so
    # the generators found still generate the whole magma (Light's test in
    # associativity_witness relies on this)
    return tuple(_closure_walk(table, range(len(table)))[1])


def find_isomorphism(
    a: FiniteSemigroup, b: FiniteSemigroup, cap: int = DEFAULT_ISO_CAP
) -> Homomorphism | None:
    """A bijective homomorphism a -> b, or None after exhaustive search.

    Backtracks over images of a greedy generating set. The candidates for
    a generator are the elements of b with its colour under a joint colour
    refinement of the two tables (:func:`_colours`); each image extends
    the map on the earlier generators by :func:`_extend`. Deterministic:
    first match in lexicographic order of generator images, which the
    pruning cannot change, as every isomorphism keeps colours.
    """
    if a.size == b.size > cap:
        raise SizeCapError(f"isomorphism search capped at {cap} elements")
    return _find_isomorphism(a, b)


def _colours(a: FiniteSemigroup, b: FiniteSemigroup):
    """Colours of the elements of a and of b, on one scale, or None when
    their multisets show that a and b are not isomorphic.

    One-dimensional Weisfeiler-Leman on the Cayley tables: an element
    starts with its idempotency and order profile, and each round adds
    the sorted pairs (colour of y, colour of x*y) over its row, coded
    c[y]*K + c[x*y] for K colours. Signatures are interned through one
    dict for both tables, so equal colours mean equal signatures, and an
    isomorphism maps every element to one of its own colour. Stops when
    a round splits no class.
    """
    ids: dict = {}
    ca, cb = (
        [
            ids.setdefault((sg.is_idempotent(x), element_order_profile(sg, x)), len(ids))
            for x in sg.elements()
        ]
        for sg in (a, b)
    )
    count = 0
    while sorted(ca) == sorted(cb):
        if len(ids) == count:
            return ca, cb
        count = len(ids)
        ids = {}
        ca, cb = (
            _refine(sg.table, c, count, ids) for sg, c in ((a, ca), (b, cb))
        )
    return None


def _refine(table, c: list, count: int, ids: dict) -> list:
    """One round of :func:`_colours` on one table: ``count`` colours in
    ``c``, signatures interned in ``ids``."""
    scaled = [cy * count for cy in c]
    get = c.__getitem__
    return [
        ids.setdefault((cx, tuple(sorted(map(add, scaled, map(get, row))))), len(ids))
        for cx, row in zip(c, table)
    ]


def _maps(ta, tb, slots, tick=lambda: None, injective=False, onto=False, twins=None):
    """Yields (preimages, phi) for each choice of one pair (x, y) per slot,
    in turn, under which phi, extended by x -> y with :func:`_extend`,
    stays a homomorphism from table ``ta`` into ``tb``; the preimages are
    the x chosen, and an x already in the domain is skipped. Depth-first
    in slot order, so maps come in lexicographic order of the choices.

    ``injective`` keeps one-to-one maps only, and ``onto`` only maps that
    cover ``tb``: the preimages must then generate the domain, so that the
    :func:`_irreducibles` of ``tb`` are chosen images, and a branch with
    too few slots left for them is cut. With ``twins`` (:func:`_twins` of
    ``tb``) an image is chosen only once its twin has been, so of the maps
    that permutations within twin classes carry into each other only the
    least, by chosen images, is met; the slots must admit all of them.
    ``tick`` is called before each extension, to count and cap the nodes.
    """
    needed = _irreducibles(tb) if onto else set()

    def search(k, phi, gens, images):
        if len(needed.difference(images)) > len(slots) - k:
            return
        if k == len(slots):
            if not onto or len(set(phi.values())) == len(tb):
                yield gens, phi
            return
        for x, y in slots[k]:
            if x in phi:
                continue
            if twins and twins[y] is not None and twins[y] not in images:
                continue
            tick()
            trial = dict(phi)
            if _extend(ta, tb, trial, gens, x, y, injective):
                yield from search(k + 1, trial, gens + [x], images + [y])

    return search(0, {}, [], [])


def _find_isomorphism(a, b) -> Homomorphism | None:
    """:func:`find_isomorphism` without its size cap."""
    if a.size != b.size:
        return None
    colours = _colours(a, b)
    if colours is None:
        return None
    ca, cb = colours
    slots = [[(g, j) for j, c in enumerate(cb) if c == ca[g]] for g in greedy_generators(a)]
    for _, phi in _maps(a.table, b.table, slots, injective=True):
        # phi covers a, as greedy_generators walks the same edges; the
        # check keeps the search exact when a or b is a magma
        try:
            return Homomorphism(a, b, tuple(phi[x] for x in a.elements()))
        except NotAHomomorphismError:
            pass
    return None


# ---------------------------------------------------------------------------
# Division


class DivisionWitness(_Frozen):
    """Exhibits T as a quotient of a subsemigroup of S.

    ``sub_elements`` lists the subsemigroup in ambient indices (the whole
    semigroup for strong division), ``partition`` is the least kernel, by
    class tuple, of a homomorphism from the reindexed subsemigroup onto T
    (or the kernel of the decision's map in :func:`divides`), and ``iso``
    maps its quotient onto T. ``sub_generators`` generate the
    subsemigroup: None for the whole semigroup, else its first generators
    of at most three, or the decision's preimages.
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
) -> DivisionWitness | None:
    """Search for a witness that t divides s; both tables are taken to be
    associative.

    Candidates are tried in order: the whole of s, then, unless
    quotient_only, the closures of generator sets of size <= 3
    (:func:`subsemigroup_closure`), sorted by (size, elements). The first
    candidate U with a homomorphism onto t gives the witness: the least
    kernel, by class tuple, of such a map (the least congruence of U whose
    quotient is isomorphic to t) and the first isomorphism of its quotient
    onto t. The maps are searched by :func:`_maps` over the images of U's
    greedy generators, with the twins of t (:func:`_twins`) chosen in
    order, as maps with one kernel differ by an automorphism of t. When
    |U| = |t| the kernel is discrete and the isomorphism search decides.

    Without quotient_only, when |t| < |s|, a complete decision runs first
    (:func:`_division_map`): t divides s exactly when some preimages of the
    greedy generators of t extend, along generator edges, to a
    homomorphism from the subsemigroup they generate onto t. When it finds
    none, the answer is None and no closure is built. Closures are tried
    only when t has at most 3 :func:`_irreducibles`, as otherwise none maps
    onto t; when they miss, the witness is the decision's own: the
    preimages as ``sub_generators``, their sorted closure, the kernel of
    the map and the first isomorphism of its quotient onto t.

    ``congruence_cap`` counts map-search nodes, the extensions tried by the
    decision and by the kernel searches of one call together; past it
    SearchCapError is raised and the answer is inconclusive. The
    isomorphism of each quotient onto t is found uncapped.
    """
    if t.size > s.size:
        return None
    tick = _node_budget(congruence_cap)
    decided, subs = None, [(None, tuple(s.elements()))]
    if t.size < s.size:  # else every candidate has |t| elements
        fits = _targets(s, t)
        if not quotient_only:
            decided = _division_map(t, s, fits, tick)
            if decided is None:
                return None
            if len(_irreducibles(t.table)) <= 3:  # else no closure maps onto t
                # the closure of at most 3 preimages is itself a candidate,
                # so no larger one is the least
                gens, phi = decided
                bound = len(phi) if len(gens) <= 3 else math.inf
                subs = itertools.chain(subs, _closures(s, t.size, bound))
        twins = _twins(t)
    for gens, elems in subs:
        sub = s if gens is None else subsemigroup_table(s, elems)
        if sub.size == t.size:  # a map onto t is one-to-one
            part = Partition.discrete(t.size)
        else:
            slots = [[(g, y) for y in fits[elems[g]]] for g in greedy_generators(sub)]
            maps = _maps(sub.table, t.table, slots, tick, onto=True, twins=twins)
            kernels = (_partition([phi[x] for x in sub.elements()]) for _, phi in maps)
            part = min(kernels, key=lambda p: p.classes, default=None)
            if part is None:
                continue
        iso = _find_isomorphism(quotient(sub, part), t)
        if iso is not None:
            return DivisionWitness(gens, elems, part, iso)
    if decided is None:
        return None
    gens, phi = decided
    elems = tuple(sorted(phi))
    part = _partition([phi[x] for x in elems])  # the kernel, by image
    q = quotient(subsemigroup_table(s, elems), part)
    return DivisionWitness(gens, elems, part, _find_isomorphism(q, t))


def _irreducibles(table) -> set:
    """The elements that are no product of two other elements: each lies in
    every generating set, and in the images of the generators of any map
    onto the table."""
    return set(range(len(table))).difference(
        z for x, row in enumerate(table) for y, z in enumerate(row) if z != x and z != y
    )


def _twins(t: FiniteSemigroup) -> list:
    """For each element y of t, the greatest x < y whose swap with y is an
    automorphism of t, or None. Twins form classes, and every permutation
    within a class is an automorphism too."""
    twins, pairs = [None] * t.size, list(itertools.product(t.elements(), repeat=2))
    for x, y in itertools.combinations(t.elements(), 2):
        swap = [y if z == x else x if z == y else z for z in t.elements()]
        if all(swap[t.mul(a, b)] == t.mul(swap[a], swap[b]) for a, b in pairs):
            twins[y] = x
    return twins


def _node_budget(cap: int):
    """A tick for :func:`_maps` that raises SearchCapError on call cap + 1."""
    nodes = itertools.count(1)

    def tick():
        if next(nodes) > cap:
            raise SearchCapError(f"division search capped at {cap} map-search nodes")

    return tick


def _targets(s: FiniteSemigroup, t: FiniteSemigroup) -> list:
    """For each element x of s, the elements y of t that a homomorphism may
    send x to: y's index is at most x's and its period divides x's."""
    pt = [element_order_profile(t, y) for y in t.elements()]
    out = []
    for x in s.elements():
        index, period = element_order_profile(s, x)
        out.append([y for y, (i, p) in enumerate(pt) if i <= index and period % p == 0])
    return out


def _division_map(t: FiniteSemigroup, s: FiniteSemigroup, fits: list, tick):
    """A homomorphism from a subsemigroup of s onto t, as (preimages, map
    on their closure), or None when there is none.

    For each greedy generator t_i of t in turn, :func:`_maps` tries every
    preimage outside the closure of the earlier ones (one inside maps into
    the closure of t_1..t_i-1, which misses the greedy t_i), among the
    elements that ``fits``, :func:`_targets` of s and t, allows, and extends
    the map without its injectivity check. An idempotent t_i needs only
    idempotent preimages, as s^ω is a preimage of t_i whenever s is, and
    generates less.
    """
    slots = [
        [
            (x, y)
            for x in s.elements()
            if y in fits[x] and (s.is_idempotent(x) or not t.is_idempotent(y))
        ]
        for y in greedy_generators(t)
    ]
    for gens, phi in _maps(s.table, t.table, slots, tick):
        return tuple(gens), phi
    return None


def _closures(s: FiniteSemigroup, min_size: int, max_size: float = math.inf):
    """Yields the proper closures of 1 to 3 generators with ``min_size`` to
    ``max_size`` elements, as (first generators, elements) sorted by
    (size, elements); a generator, so that :func:`divides` builds the list
    only once the whole semigroup has missed."""
    # each closure extends a copy of the one before by the next generator,
    # the steps subsemigroup_closure would take; a generator already inside
    # gives a closure that a shorter generator tuple has already found. A
    # walk stops once its closure passes max_size, and a closure of
    # max_size elements is not extended, as no extension fits
    found = ({}, {}, {})  # closure -> first generators, by generator count
    table, n = s.table, s.size

    def walk(closure, gens, start):
        for g in range(start, n):
            if g in closure:
                continue
            grown = dict(closure)
            if _extend(table, table, grown, gens, g, g, False, max_size):
                found[len(gens)].setdefault(tuple(sorted(grown)), (*gens, g))
                if len(gens) < 2 and len(grown) < max_size:
                    walk(grown, [*gens, g], g + 1)

    walk({}, [], 0)
    first = {**found[2], **found[1], **found[0]}  # fewest generators win
    subs = [(g, c) for c, g in first.items() if min_size <= len(c) < s.size]
    yield from sorted(subs, key=lambda item: (len(item[1]), item[1]))


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
