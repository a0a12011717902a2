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
from operator import add

from .errors import (
    DEFAULT_UNIVERSE_CAP,
    TABLE_CELL_CAP,
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
        return _name(self.anchor, map(str, self.values))


def _name(anchor: int, digits) -> str:
    """The name "anchor:digits" of a product element, from the strings of
    its values."""
    return f"{anchor}:" + "".join(digits)


# Element codes. The code of a product element is its position in
# :func:`_tuples`: anchors ascending, tuples lexicographic with the leftmost
# index most significant. The tables below are built on codes, and
# ProductElement is only a view of one position.


def _tuples(h: FiniteSemigroup, system: LrSystem, letters=None):
    """Yields ``(anchor, values)`` for every product element, in code order.
    An empty index set contributes a single element with the empty tuple.
    ``letters[v]`` stands for the element v of H in ``values``; by default
    it is v itself."""
    letters = h.elements() if letters is None else letters
    for a, k in enumerate(system.index_sizes):
        for values in itertools.product(letters, repeat=k):
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


def _table_offsets(h: FiniteSemigroup, system: LrSystem, cap: int) -> list[int]:
    """:func:`_offsets` for a caller that builds the multiplication table,
    refusing (SizeCapError) a table of more than ``TABLE_CELL_CAP`` cells
    too, before any row."""
    offsets = _offsets(h, system, cap)
    cells = offsets[-1] ** 2
    if cells > TABLE_CELL_CAP:
        raise SizeCapError(
            f"product table has {count_text(cells)} cells, cap is {TABLE_CELL_CAP}"
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

    For anchors (a, b) with k = |I[ab]|, the code of (x, a) * (y, b) is
    offset[ab] + sum_i x[lam(i)] * y[rho(i)] |H|^(k-1-i) over the
    coordinates i of the result, with lam, rho the maps at (a, b) and the
    products taken in H. Grouped by the digit l = lam(i) of x that each
    term reads, the row of (x, a) is a start vector plus one vector per
    digit of x: for digit l holding u, the vector over all (y, b) in code
    order whose segment at b holds y -> sum of u * y[rho(i)] |H|^(k-1-i)
    over the i with lam(i) = l (zeros where no such i exists). Each
    anchor a gets these |H| vectors per digit once, each term laid out for
    all u at once by list repetition and ``zip``, and a digit that no
    coordinate at any b reads gets none.

    The rows of anchor a then come from a walk over the digits of x in
    code order (:func:`_walk`): a step fixes one digit and adds its vector
    to the partial sum with ``map(operator.add, ...)``, and a leaf is one
    row. A cell costs one C-level addition per level, about |H|/(|H|-1)
    over all levels, and only the current row, one anchor's vectors and
    one partial sum per level are live at once. Below a digit that no
    coordinate reads, every value gives the same rows, so they are walked
    once and repeated, the repeats sharing its tuples.
    """
    m = h.size
    sizes = system.index_sizes
    # scaled[e][v][u]: (u * v in H) |H|^e
    scaled = [list(zip(*h.table))]
    while len(scaled) < max(sizes):
        scaled.append([[uv * m for uv in column] for column in scaled[-1]])
    # cells hold the same int objects, one per element, as a table built
    # from an index list would
    code = list(range(offsets[-1])).__getitem__
    n = system.base.size
    rows = []
    for a, products in enumerate(system.base.table):
        start = []
        # vectors[l][u]: added to the row when digit l of x holds u
        vectors = [[[] for _ in range(m)] for _ in range(sizes[a])]
        read = [False] * sizes[a]
        for b, ab in enumerate(products):
            k, fiber = sizes[ab], sizes[b]
            block = m**fiber
            start += [offsets[ab]] * block
            # terms[l][u]: the segment of vectors[l][u] at b
            zero = ((0,) * block,) * m
            terms = [zero] * sizes[a]
            for i, (l, j) in enumerate(zip(system.lam[a * n + b], system.rho[a * n + b])):
                # y -> scaled[k-1-i][y[j]] over the y in code order: each
                # value for the |H|^(fiber-1-j) tuples that agree up to
                # digit j, that run repeated for the digits before it
                run = []
                for value in scaled[k - 1 - i]:
                    run += [value] * m ** (fiber - 1 - j)
                term = zip(*run * m**j)
                terms[l] = (
                    list(term) if terms[l] is zero
                    else [tuple(map(add, s, t)) for s, t in zip(terms[l], term)]
                )
                read[l] = True
            for per_value, segments in zip(vectors, terms):
                for vector, segment in zip(per_value, segments):
                    vector += segment
        _walk(start, [v if r else None for v, r in zip(vectors, read)], 0, m, code, rows)
    return tuple(rows)


def _walk(partial, vectors, depth, m, code, rows) -> None:
    """Appends, in code order, the rows of the x whose digits before
    ``depth`` are fixed with the row sum ``partial``; ``vectors[l]`` holds
    the |H| vectors of digit l, or None when adding them changes nothing."""
    if depth == len(vectors):
        rows.append(tuple(map(code, partial)))
        return
    step = vectors[depth]
    if step is None:
        # every value of this digit gives the same rows below it
        first = len(rows)
        _walk(partial, vectors, depth + 1, m, code, rows)
        rows += rows[first:] * (m - 1)
    elif depth + 1 == len(vectors):
        rows += [tuple(map(code, map(add, partial, vector))) for vector in step]
    else:
        for vector in step:
            _walk(list(map(add, partial, vector)), vectors, depth + 1, m, code, rows)


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
    offsets = _table_offsets(h, system, cap)
    # each value of H spelled once, not once per coordinate
    digits = list(map(str, h.elements()))
    names = tuple(itertools.starmap(_name, _tuples(h, system, digits)))
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
    witness = associativity_witness(_rows(h, system, _table_offsets(h, system, cap)))
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
