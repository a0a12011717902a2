"""Products of a coefficient semigroup over an index-map system.

The product of H over a system S lives on pairs (x, a) where a is a base
element and x : I[a] -> H is a tuple. Multiplication routes coordinates
through the index maps and multiplies pointwise in H:

    (x, a) * (y, b) = ((x o lam[a,b]) . (y o rho[a,b]), ab)

When the system satisfies the composition axioms this is associative for
every H; when an axiom fails there is a finite H and a concrete triple
witnessing non-associativity, and this module constructs it.
"""

from __future__ import annotations

import itertools

from .errors import (
    DEFAULT_UNIVERSE_CAP,
    EmptyFiberError,
    NotIdempotentError,
    SizeCapError,
    count_text,
)
from .semigroup import FiniteSemigroup, Homomorphism, _Frozen, _trusted, associativity_witness
from .system import AxiomViolation, LrSystem


class ProductElement(_Frozen):
    """Pair of an anchor base element and a tuple over its index set."""

    anchor: int
    values: tuple[int, ...]

    def label(self) -> str:
        return _name(self.anchor, self.values)


def _name(anchor: int, values) -> str:
    """The name "anchor:digits" of a product element."""
    return f"{anchor}:" + "".join(map(str, values))


# Element codes. The code of a product element is its position in
# :func:`_tuples`: anchors ascending, tuples lexicographic with the leftmost
# index most significant. The tables below are built on codes, and
# ProductElement is only a view of one position.


def _tuples(h: FiniteSemigroup, system: LrSystem):
    """Yields ``(anchor, values)`` for every product element, in code order.
    An empty index set contributes a single element with the empty tuple."""
    for a, k in enumerate(system.index_sizes):
        for values in itertools.product(range(h.size), repeat=k):
            yield a, values


def _offsets(
    h: FiniteSemigroup, system: LrSystem, cap: int | None = None
) -> list[int]:
    """The code of each anchor's first element, then the universe size.

    Raises SizeCapError when that size passes ``cap``, before anything of
    that size is built.
    """
    offsets = [0]
    for k in system.index_sizes:
        offsets.append(offsets[-1] + h.size ** k)
    if cap is not None and offsets[-1] > cap:
        raise SizeCapError(
            f"universe has {count_text(offsets[-1])} elements, cap is {cap}"
        )
    return offsets


def universe_size(h: FiniteSemigroup, system: LrSystem) -> int:
    return _offsets(h, system)[-1]


def universe(
    h: FiniteSemigroup, system: LrSystem, cap: int = DEFAULT_UNIVERSE_CAP
) -> list[ProductElement]:
    """All product elements, in code order."""
    _offsets(h, system, cap)
    return list(itertools.starmap(ProductElement, _tuples(h, system)))


def multiply(
    h: FiniteSemigroup, system: LrSystem, p: ProductElement, q: ProductElement
) -> ProductElement:
    """One product step; works for any shape-valid system."""
    a, b = p.anchor, q.anchor
    values = _route(h, system.lam_map(a, b), system.rho_map(a, b), p.values, q.values)
    return ProductElement(system.base.mul(a, b), values)


def _route(h: FiniteSemigroup, lam, rho, x, y) -> tuple[int, ...]:
    """The values of the product: coordinate i is x[lam[i]] * y[rho[i]] in H."""
    return tuple(h.mul(x[l], y[r]) for l, r in zip(lam, rho))


def _rows(h: FiniteSemigroup, system: LrSystem, offsets) -> tuple[tuple[int, ...], ...]:
    """The multiplication table on codes, one row per left factor.

    For a pair of anchors (a, b) with k = |I[ab]|, the code of
    (x, a) * (y, b) is offset[ab] + sum_j f_j(y_j) over the coordinates j
    of y, where f_j(v) adds up x[lam[a,b](i)] * v (in H) weighted
    |H|^(k-1-i) over the coordinates i of the result with rho[a,b](i) = j.
    So the row of (x, a) over anchor b holds these sums for all tuples y
    in lexicographic order: one integer addition per cell, and no element
    built or hashed.
    """
    m = h.size
    base = system.base
    sizes = system.index_sizes
    h_rows = h.table
    # routing per anchor pair (a, b): the offset of ab, and for each
    # coordinate j of y the (lam value, weight) pairs of the result
    # coordinates i with rho[a,b](i) = j
    routes = []
    for a in base.elements():
        per_a = []
        for b in base.elements():
            ab = base.mul(a, b)
            k = sizes[ab]
            lam, rho = system.lam_map(a, b), system.rho_map(a, b)
            terms = [[] for _ in range(sizes[b])]
            for i in range(k):
                terms[rho[i]].append((lam[i], m ** (k - 1 - i)))
            per_a.append((offsets[ab], terms))
        routes.append(per_a)
    # cells hold the same int objects, one per element, as a table built
    # from an index list would
    codes = list(range(offsets[-1]))
    zero = (0,) * m
    rows = []
    for a, x in _tuples(h, system):
        row = []
        for start, terms in routes[a]:
            segment = [start]
            for reads in terms:
                f = zero
                for l, w in reads:
                    hx = h_rows[x[l]]
                    f = [f[v] + hx[v] * w for v in range(m)]
                segment = [s + t for s in segment for t in f]
            row.extend(segment)
        rows.append(tuple(map(codes.__getitem__, row)))
    return tuple(rows)


def product_table(
    h: FiniteSemigroup, system: LrSystem, cap: int = DEFAULT_UNIVERSE_CAP
) -> FiniteSemigroup:
    """The full multiplication table over the documented element order.

    Element names are generated as "anchor:digits". For an axiom-valid
    system the result is a semigroup (re-validation is part of the test
    suite, not of this constructor). The result skips the entry check of
    FiniteSemigroup: :func:`_rows` takes every cell from the list of the
    ``offsets[-1]`` codes and gives every row that many cells.
    """
    offsets = _offsets(h, system, cap)
    names = tuple(itertools.starmap(_name, _tuples(h, system)))
    return _trusted(offsets[-1], _rows(h, system, offsets), names)


class AssociativityReport(_Frozen):
    """Outcome of the associativity test, with the first failing triple."""

    associative: bool
    witness: tuple[ProductElement, ProductElement, ProductElement] | None = None

    def __bool__(self):
        return self.associative


def associativity_oracle(
    h: FiniteSemigroup, system: LrSystem, cap: int = DEFAULT_UNIVERSE_CAP
) -> AssociativityReport:
    """Test (p*q)*r == p*(q*r) over the whole universe.

    The system only needs to be shape-valid; this is the independent
    ground truth the axiom checker is measured against. The table is
    tested by :func:`associativity_witness`, so the witness is the first
    failing triple in enumeration order, if any.
    """
    witness = associativity_witness(_rows(h, system, _offsets(h, system, cap)))
    if witness is None:
        return AssociativityReport(True)
    elements = list(_tuples(h, system))
    return AssociativityReport(
        False, tuple(ProductElement(*elements[code]) for code in witness)
    )


def _letters_with_identity(system: LrSystem, zero_kind: str) -> tuple[FiniteSemigroup, dict]:
    """Left- or right-zero semigroup on the disjoint union of all index
    sets, with a fresh identity adjoined at index 0, and the index of each
    letter (s, i)."""
    letters = [
        (s, i)
        for s in system.base.elements()
        for i in range(system.index_sizes[s])
    ]
    m = len(letters) + 1
    table = []
    for i in range(m):
        row = []
        for j in range(m):
            if i == 0:
                row.append(j)
            elif j == 0:
                row.append(i)
            else:
                row.append(i if zero_kind == "left" else j)
        table.append(tuple(row))
    names = ("e",) + tuple(f"{s}.{i}" for (s, i) in letters)
    index = {letter: n for n, letter in enumerate(letters, 1)}
    return FiniteSemigroup(m, tuple(table), names), index


def nonassociativity_witness(system: LrSystem, violation: AxiomViolation):
    """A finite coefficient semigroup and triple that fail associativity.

    Given a shape-valid system with a confirmed axiom violation at
    (a,b,c), returns (H, (p,q,r)) such that (p*q)*r != p*(q*r) in the
    product of H over the system. H is the left-zero semigroup on the
    disjoint union of the index sets with an identity adjoined (right-zero
    for a beta violation); the triple places the tagged-identity tuple on
    the coordinate whose maps disagree and constant-identity tuples on the
    other two. Every coordinate product then has at most one non-identity
    factor, so the disagreeing letters survive verbatim.
    """
    kind = "right" if violation.axiom == "beta" else "left"
    h, index = _letters_with_identity(system, kind)
    # the tagged factor sits at a for alpha, c for beta and b for gamma
    tagged = {"alpha": 0, "beta": 2}.get(violation.axiom, 1)
    triple = tuple(
        ProductElement(
            s, tuple(index[s, i] if j == tagged else 0 for i in range(system.index_sizes[s]))
        )
        for j, s in enumerate((violation.a, violation.b, violation.c))
    )
    return h, triple


def triple_associates(
    h: FiniteSemigroup, system: LrSystem, triple
) -> bool:
    """Direct two-sided evaluation of one triple."""
    p, q, r = triple
    left = multiply(h, system, multiply(h, system, p, q), r)
    right = multiply(h, system, p, multiply(h, system, q, r))
    return left == right


def embed_base(
    h: FiniteSemigroup,
    system: LrSystem,
    idempotent: int,
    cap: int = DEFAULT_UNIVERSE_CAP,
) -> Homomorphism:
    """Embed the base semigroup as constant tuples at one idempotent of H."""
    if h.mul(idempotent, idempotent) != idempotent:
        raise NotIdempotentError(f"{idempotent} is not idempotent in H")
    images = ((a, (idempotent,) * system.index_sizes[a]) for a in system.base.elements())
    return _product_hom(system.base, product_table(h, system, cap=cap), h, system, images)


def embed_fiber(
    h: FiniteSemigroup,
    system: LrSystem,
    base_idempotent: int,
    cap: int = DEFAULT_UNIVERSE_CAP,
) -> Homomorphism:
    """Embed H as constant tuples anchored at an idempotent base element
    with a nonempty index set."""
    f = base_idempotent
    if system.base.mul(f, f) != f:
        raise NotIdempotentError(f"{f} is not idempotent in the base")
    if system.index_sizes[f] == 0:
        raise EmptyFiberError(f"base element {f} has an empty index set")
    images = ((f, (x,) * system.index_sizes[f]) for x in h.elements())
    return _product_hom(h, product_table(h, system, cap=cap), h, system, images)


def _product_hom(domain, target, h: FiniteSemigroup, system: LrSystem, images) -> Homomorphism:
    """The map sending domain element i to the i-th (anchor, values) of
    ``images`` in ``target``, the product table of H over the system,
    checked as a homomorphism."""
    index = _positions(h, system)
    return Homomorphism(domain, target, tuple(map(index.__getitem__, images)))


def _positions(h: FiniteSemigroup, system: LrSystem) -> dict:
    """The code of each ``(anchor, values)``: for a caller that builds the
    system's full table too, whose cells outnumber these entries."""
    return {element: code for code, element in enumerate(_tuples(h, system))}


def subset_multiply(
    op: FiniteSemigroup,
    system: LrSystem,
    p: tuple[frozenset, int],
    q: tuple[frozenset, int],
) -> tuple[frozenset, int]:
    """Subset form of the product for a two-element coefficient semigroup.

    Tuples over {0,1} are identified with subsets of the index set; the
    product pulls both subsets back along the index maps and combines the
    two preimages pointwise with ``op``:

        (U, a) * (W, b) = (lam[a,b]^{-1}(U) . rho[a,b]^{-1}(W), ab)
    """
    if op.size != 2:
        raise ValueError("subset form needs a two-element coefficient semigroup")
    (u, a), (w, b) = p, q
    ab = system.base.mul(a, b)
    lam = system.lam_map(a, b)
    rho = system.rho_map(a, b)
    out = frozenset(
        i
        for i in range(system.index_sizes[ab])
        if op.mul(1 if lam[i] in u else 0, 1 if rho[i] in w else 0) == 1
    )
    return (out, ab)


def element_as_subset(p: ProductElement) -> tuple[frozenset, int]:
    return (frozenset(i for i, v in enumerate(p.values) if v == 1), p.anchor)
