"""Named system constructions and their independent product oracles.

The builders turn actions into index-map systems; the oracles implement
the wreath, two-sided wreath and block products directly from the
two-sided formula, sharing no code with the product engine, so the two
routes genuinely cross-check each other. The wreath product is the
two-sided one with the trivial left action; the block product uses the
natural action of a semigroup on its own square.
"""

from __future__ import annotations

import itertools

from .errors import (
    BUILTIN_SYSTEMS, DEFAULT_UNIVERSE_CAP, ActionLawError, SizeCapError, count_text
)
from .semigroup import (
    JOIN2,
    MEET2,
    TRIVIAL,
    FiniteSemigroup,
    _Frozen,
    identity_element,
)
from .system import LrSystem, _defined_pairs, _map_equation_failures, validate_axioms


class RightAction(_Frozen):
    """A right action of ``base`` on 0..carrier-1; act[x][s] is x*s.

    Laws checked on construction: (x*a)*b == x*(ab), and x*e == x when
    the base is a monoid with unit e.
    """

    base: FiniteSemigroup
    carrier: int
    act: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.carrier < 0:
            raise ActionLawError("carrier size must be non-negative")
        if len(self.act) != self.carrier:
            raise ActionLawError("need one action row per carrier point")
        for x, row in enumerate(self.act):
            if len(row) != self.base.size:
                raise ActionLawError(f"row {x} must cover every base element")
            for v in row:
                if not 0 <= v < self.carrier:
                    raise ActionLawError(f"action value {v} out of carrier")
        for x in range(self.carrier):
            for a in self.base.elements():
                xa = self.act[x][a]
                for b in self.base.elements():
                    if self.act[xa][b] != self.act[x][self.base.mul(a, b)]:
                        raise ActionLawError(
                            f"(x*a)*b != x*(ab) at x={x}, a={a}, b={b}"
                        )
        e = identity_element(self.base)
        if e is not None:
            for x in range(self.carrier):
                if self.act[x][e] != x:
                    raise ActionLawError(f"unit law fails: {x}*{e} != {x}")

    def apply(self, x: int, a: int) -> int:
        return self.act[x][a]


class TwoSidedAction(_Frozen):
    """Compatible left and right actions on a common carrier.

    left[a][x] is a\\x and right[x][a] is x/a, subject to
    a\\(b\\x) == (ab)\\x, (x/a)/b == x/(ab) and (a\\x)/b == a\\(x/b).
    """

    base: FiniteSemigroup
    carrier: int
    left: tuple[tuple[int, ...], ...]
    right: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = self.base.size
        for side, table, rows, per, width in (
            ("left", self.left, n, "base element", self.carrier),
            ("right", self.right, self.carrier, "carrier point", n),
        ):
            if len(table) != rows:
                raise ActionLawError(f"{side} table needs one row per {per}")
            for i, row in enumerate(table):
                if len(row) != width or any(not 0 <= v < self.carrier for v in row):
                    raise ActionLawError(f"{side} row {i} malformed")
        # left[a] at a, the column _/a of right at n+a (none on an empty
        # carrier, which has no point to read); a law reads f o g == h o k
        maps = [*self.left, *zip(*self.right)]
        walk = (
            (a, b, self.carrier, (("left law", a, b, ab, None),
                                  ("right law", n + b, n + a, n + ab, None),
                                  ("compatibility", n + b, a, a, n + b)))
            for a in range(n)
            for b, ab in _defined_pairs(range(n), self.base.mul, a)
        )
        _, found = _map_equation_failures(walk, maps, True)
        if found:
            law, a, b, x = found[0]
            raise ActionLawError(f"{law} fails at a={a}, b={b}, x={x}")

    def left_apply(self, a: int, x: int) -> int:
        return self.left[a][x]

    def right_apply(self, x: int, a: int) -> int:
        return self.right[x][a]


# ---------------------------------------------------------------------------
# System builders


def _action_system(base: FiniteSemigroup, carrier: int, left, right) -> LrSystem:
    """Every fiber is the carrier; lam[a,b] = left[b] and rho[a,b] is the
    column p -> right[p][a], worked out once per a. Shares no code with
    the oracles, so the two routes cross-check each other."""
    n = base.size
    lam = tuple(map(tuple, left)) * n
    rho = []
    for a in range(n):
        col = tuple(right[p][a] for p in range(carrier))
        rho.extend((col,) * n)
    return validate_axioms(LrSystem(base, (carrier,) * n, lam, tuple(rho)))


def empty_system(base: FiniteSemigroup) -> LrSystem:
    """All index sets empty, the action on no point; the product collapses
    to the base itself."""
    return _action_system(base, 0, ((),) * base.size, ())


def singleton_system(base: FiniteSemigroup) -> LrSystem:
    """All index sets a single point, the trivial action on it; the
    product is H x base."""
    return _action_system(base, 1, ((0,),) * base.size, ((0,) * base.size,))


def from_right_action(action: RightAction) -> LrSystem:
    """Every fiber is the carrier; lam is the identity and rho[a,b] acts
    by a. Products over this system are wreath products."""
    ident = (tuple(range(action.carrier)),) * action.base.size
    return _action_system(action.base, action.carrier, ident, action.act)


def from_two_sided_action(action: TwoSidedAction) -> LrSystem:
    """Every fiber is the carrier; lam[a,b] = b\\_ and rho[a,b] = _/a.

    Products over this system are two-sided wreath products; with the
    natural action of a semigroup on its own square this yields the block
    product.
    """
    return _action_system(action.base, action.carrier, action.left, action.right)


def natural_two_sided_action(base: FiniteSemigroup) -> TwoSidedAction:
    """The action of a semigroup on its own square: n\\(n1,n2) = (n*n1, n2)
    and (n1,n2)/n = (n1, n2*n). Carrier point (n1,n2) sits at n1*size+n2."""
    n = base.size
    left = tuple(
        tuple(base.mul(a, x1) * n + x2 for x1 in range(n) for x2 in range(n))
        for a in range(n)
    )
    right = tuple(
        tuple(base.mul(x2, a) + x1 * n for a in range(n))
        for x1 in range(n)
        for x2 in range(n)
    )
    return TwoSidedAction(base, n * n, left, right)


# ---------------------------------------------------------------------------
# Independent oracles


def _two_sided_table(
    h: FiniteSemigroup, base: FiniteSemigroup, carrier: int, left, right, cap: int
) -> FiniteSemigroup:
    """(u, a) * (w, b) = ((u o left[b]) . (w o right[_][a]), ab), with
    elements anchor-major and tuples lexicographic, the product-engine
    order, so agreement is table identity.

    A fiber tuple t has the code sum_q t[q] * |H|^(k-1-q), its position
    in the fiber. Per left anchor a, moved[w] is the code of w o (_/a),
    for every w. Per (u, b), times[j] is the code of (ab, v . t) for the
    tuple t with code j, where v = u o (b\\_), built one coordinate at a
    time. The cell of (w, b) is then times[moved[w]]: one index and, in
    building times, about one addition.
    """
    m = h.size
    n = base.size
    block = m**carrier
    total = n * block
    if total > cap:
        raise SizeCapError(f"product has {count_text(total)} elements, cap is {cap}")
    weights = [m ** (carrier - 1 - q) for q in range(carrier)]
    fiber = list(itertools.product(range(m), repeat=carrier))
    table = []
    for a in range(n):
        moved = [
            sum(w[right[q][a]] * weights[q] for q in range(carrier)) for w in fiber
        ]
        for u in fiber:
            row = []
            for b in range(n):
                times = [base.mul(a, b) * block]
                for q, p in enumerate(left[b]):
                    vq = [x * weights[q] for x in h.table[u[p]]]
                    times = [s + t for s in times for t in vq]
                row.extend(map(times.__getitem__, moved))
            table.append(tuple(row))
    names = tuple(
        f"{a}:" + "".join(str(v) for v in u) for a in range(n) for u in fiber
    )
    return FiniteSemigroup(total, tuple(table), names)


def wreath_oracle(
    h: FiniteSemigroup, action: RightAction, cap: int = DEFAULT_UNIVERSE_CAP
) -> FiniteSemigroup:
    """Wreath product of h by the action, (u, a) * (w, b) = (u . (w o (_*a)), ab):
    the two-sided product with the trivial left action."""
    trivial_left = (tuple(range(action.carrier)),) * action.base.size
    return _two_sided_table(
        h, action.base, action.carrier, trivial_left, action.act, cap
    )


def two_sided_wreath_oracle(
    h: FiniteSemigroup, action: TwoSidedAction, cap: int = DEFAULT_UNIVERSE_CAP
) -> FiniteSemigroup:
    """Two-sided wreath product, (u, a) * (w, b) = ((u o (b\\_)) . (w o (_/a)), ab)."""
    return _two_sided_table(
        h, action.base, action.carrier, action.left, action.right, cap
    )


def block_product_oracle(
    h: FiniteSemigroup, base: FiniteSemigroup, cap: int = DEFAULT_UNIVERSE_CAP
) -> FiniteSemigroup:
    return two_sided_wreath_oracle(h, natural_two_sided_action(base), cap=cap)


# ---------------------------------------------------------------------------
# Built-in example systems


def _flip_flop_system() -> LrSystem:
    # base: two-element join-semilattice; fibers {0} and {0,1}
    lam = {(0, 0): (0,), (0, 1): (0, 0), (1, 0): (0, 1), (1, 1): (0, 1)}
    rho = {(0, 0): (0,), (0, 1): (0, 1), (1, 0): (0, 0), (1, 1): (0, 0)}
    return validate_axioms(LrSystem.from_maps(JOIN2, (1, 2), lam, rho))


def _left_zero_system() -> LrSystem:
    # one fiber {0,1} over the trivial semigroup; lam identity, rho constant
    return validate_axioms(
        LrSystem.from_maps(TRIVIAL, (2,), {(0, 0): (0, 1)}, {(0, 0): (0, 0)})
    )


def _non_semidirect_system() -> LrSystem:
    # base: two-element meet-semilattice; empty fiber at 0 forces a zero
    lam = {(0, 0): (), (0, 1): (), (1, 0): (), (1, 1): (0, 1)}
    rho = dict(lam)
    return validate_axioms(LrSystem.from_maps(MEET2, (0, 2), lam, rho))


_boolean_shadow_system = _flip_flop_system


def builtin_system(name: str) -> LrSystem:
    """The built-in system ``name`` of ``errors.BUILTIN_SYSTEMS``, validated."""
    if name not in BUILTIN_SYSTEMS:
        names = sorted(BUILTIN_SYSTEMS)
        raise KeyError(f"unknown built-in system {name!r}; choose from {names}")
    return globals()[f"_{name}_system"]()
