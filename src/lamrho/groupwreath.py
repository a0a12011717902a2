"""Systems over groups and their wreath-product normal form.

Over a group, a unit-preserving system forces every index map to be a
bijection. Composing rho[g,e] with the inverse of lam[e,g] then defines a
right group action on the unit fiber, and mapping each fiber through
lam[e,g] is an isomorphism onto the action-derived system, so products of
groups over such systems are exactly wreath products. Everything here
checks those steps mechanically on concrete systems.
"""

from __future__ import annotations

from .actions import RightAction, from_right_action, wreath_oracle
from .category import Transformation, is_system_isomorphism, validate_transformation
from .errors import (
    DEFAULT_UNIVERSE_CAP,
    NotACongruenceError,
    NotAHomomorphismError,
    NotGroupPreservingError,
    NotIsomorphicError,
)
from .product import _product_hom, _tuples, product_table
from .semigroup import (
    L2_1,
    L2,
    Z2,
    FiniteSemigroup,
    Homomorphism,
    Partition,
    _Frozen,
    find_isomorphism,
    identity_element,
    is_congruence,
    is_group,
    quotient,
    validate_table,
)
from .system import LrSystem, is_group_preserving
from .actions import builtin_system


class BijectivityCheck(_Frozen):
    ok: bool
    witness: tuple | None = None  # ('lambda'|'rho', a, b)

    def __bool__(self):
        return self.ok


def check_bijectivity(system: LrSystem) -> BijectivityCheck:
    """Every lam[g,h] and rho[g,h] must be a bijection.

    Only meaningful for unit-preserving systems over a group, where the
    axioms guarantee it; a failure certificate therefore indicates an
    invalid input system.
    """
    if not is_group_preserving(system):
        raise NotGroupPreservingError(
            "bijectivity analysis needs a unital system over a group"
        )
    n = system.base.size
    for a in range(n):
        for b in range(n):
            for kind, m, c in (
                ("lambda", system.lam_map(a, b), a),
                ("rho", system.rho_map(a, b), b),
            ):
                if sorted(m) != list(range(system.index_sizes[c])):
                    return BijectivityCheck(False, (kind, a, b))
    return BijectivityCheck(True)


def _inverse(seq) -> tuple[int, ...]:
    # materialised only after bijectivity has been verified
    out = [0] * len(seq)
    for i, v in enumerate(seq):
        out[v] = i
    return tuple(out)


def _unit_fiber_action(system: LrSystem) -> tuple[tuple[int, ...], ...]:
    """The rows act[i][g] = rho[g,e](inverse(lam[e,g])(i)) over the unit
    fiber; meaningful once every lam[e,g] is a bijection."""
    base = system.base
    e = identity_element(base)
    inv_lam = [_inverse(system.lam_map(e, g)) for g in base.elements()]
    return tuple(
        tuple(system.rho_map(g, e)[inv_lam[g][i]] for g in base.elements())
        for i in range(system.index_sizes[e])
    )


def derive_action(system: LrSystem) -> RightAction:
    """The right action of the base group on the unit fiber:

        i * g = rho[g,e](inverse(lam[e,g])(i))

    Both action laws are re-verified by the RightAction constructor; the
    associativity law here is exactly the composite-map identity obtained
    by rewriting the gamma axiom with unit cancellation.
    """
    check = check_bijectivity(system)
    if not check:
        raise NotGroupPreservingError(f"index map not bijective: {check.witness}")
    act = _unit_fiber_action(system)
    return RightAction(system.base, len(act), act)


def composite_action_identity_holds(system: LrSystem) -> bool:
    """Pointwise check of the composite identity on the unit fiber:

        (rho[h,e] o lam[e,h]^-1) o (rho[g,e] o lam[e,g]^-1)
            = rho[gh,e] o lam[e,gh]^-1

    for all g, h. This is the associativity half of the derived action,
    checked directly as composed maps.
    """
    base = system.base
    act = _unit_fiber_action(system)
    return all(
        act[act[i][g]][h] == act[i][base.mul(g, h)]
        for g in base.elements()
        for h in base.elements()
        for i in range(len(act))
    )


def wreathize(system: LrSystem) -> tuple[RightAction, Transformation]:
    """Rebuild a unital group system as an action-derived system.

    Returns the derived action together with the arrow whose base map is
    the identity and whose index maps are the lam[e,g] bijections; the
    arrow passes both square checks and is a system isomorphism.
    """
    action = derive_action(system)
    target = from_right_action(action)
    base = system.base
    e = identity_element(base)
    maps = tuple(system.lam_map(e, g) for g in base.elements())
    arrow = Transformation(system, target, Homomorphism.identity(base), maps)
    validate_transformation(arrow)
    if not is_system_isomorphism(arrow):
        raise NotGroupPreservingError("derived arrow is not an isomorphism")
    return action, arrow


class WreathIsoReport(_Frozen):
    """Both routes to the wreath-product isomorphism, plus the group check."""

    product_is_group: bool
    search_iso_found: bool
    construction_iso_ok: bool

    def __bool__(self):
        return (
            self.product_is_group
            and self.search_iso_found
            and self.construction_iso_ok
        )


def verify_wreath_iso(
    h_sg: FiniteSemigroup,
    system: LrSystem,
    cap: int = DEFAULT_UNIVERSE_CAP,
) -> WreathIsoReport:
    """Confirm that the product of a group over a unital group system is
    the wreath product over the derived action.

    Route one finds an isomorphism by search; route two builds the
    explicit element map (u, g) |-> (u o lam[e,g], g) from the wreathize
    arrow and checks it as a Homomorphism that is bijective. The two
    routes must agree.
    """
    if not is_group(h_sg):
        raise NotGroupPreservingError("coefficient semigroup must be a group")
    action, arrow = wreathize(system)
    prod = product_table(h_sg, system, cap=cap)
    oracle = wreath_oracle(h_sg, action, cap=cap)

    group_ok = is_group(prod)
    search_ok = find_isomorphism(oracle, prod, cap=max(prod.size, 1)) is not None

    # explicit route: the oracle lists its elements (u, g) in the product's
    # order, as every fiber is the carrier, and the arrow's maps[g] are the
    # lam[e,g]
    images = ((g, tuple(u[i] for i in arrow.maps[g])) for g, u in _tuples(h_sg, system))
    try:
        construction_ok = _product_hom(oracle, prod, h_sg, system, images).is_bijective()
    except NotAHomomorphismError:
        construction_ok = False
    return WreathIsoReport(group_ok, search_ok, construction_ok)


# ---------------------------------------------------------------------------
# The two worked decompositions


class DecompositionBranch(_Frozen):
    name: str
    system: LrSystem
    product: FiniteSemigroup
    partition: Partition
    quotient: FiniteSemigroup
    target: FiniteSemigroup
    iso: Homomorphism

    def partition_labels(self) -> tuple[tuple[str, ...], ...]:
        return tuple(
            tuple(self.product.name_of(i) for i in cls)
            for cls in self.partition.classes
        )

    def to_json_dict(self) -> dict:
        return {
            "branch": self.name,
            "product_size": self.product.size,
            "partition": [list(cls) for cls in self.partition.classes],
            "partition_labels": [list(c) for c in self.partition_labels()],
            "quotient_table": [list(r) for r in self.quotient.table],
            "iso_onto": list(self.iso.map),
        }


class CorollaryReport(_Frozen):
    """Machine-checked witnesses for the two division claims: the
    three-element flip-flop monoid drops out of a product over the
    two-element semilattice, and the two-element left-zero semigroup out
    of a product over the trivial semigroup."""

    flip_flop: DecompositionBranch
    left_zero: DecompositionBranch

    def branches(self):
        return (self.flip_flop, self.left_zero)

    def to_json_dict(self) -> dict:
        return {"branches": [b.to_json_dict() for b in self.branches()]}

    def render_text(self) -> str:
        lines = []
        for b in self.branches():
            lines.append(f"branch {b.name}:")
            lines.append(
                f"  product of Z2 over the {b.name} system: "
                f"{b.product.size} elements"
            )
            classes = ", ".join(
                "{" + ",".join(c) + "}" for c in b.partition_labels()
            )
            lines.append(f"  congruence witness: {classes}")
            lines.append(
                f"  quotient is isomorphic to the target "
                f"({b.target.size} elements); mapping {list(b.iso.map)}"
            )
        lines.append("both quotients re-validate as semigroups: ok")
        return "\n".join(lines)


def _decomposition_branch(name, system, partition_classes, target):
    prod = product_table(Z2, system)
    part = Partition.from_classes(prod.size, partition_classes)
    if not is_congruence(prod, part):
        raise NotACongruenceError(f"{name}: witness partition is not a congruence")
    quot = quotient(prod, part)
    validate_table(quot.table)  # re-validation cross-check
    iso = find_isomorphism(quot, target)
    if iso is None:
        raise NotIsomorphicError(f"{name}: witness quotient is not isomorphic to the target")
    return DecompositionBranch(name, system, prod, part, quot, target, iso)


def corollary_demo() -> CorollaryReport:
    """Verify both decomposition witnesses and package them for output.

    Element indices follow the documented universe order (anchors
    ascending, tuples lexicographic), so for the semilattice product the
    two-tuple classes are {00,11} and {01,10} at indices {2,5} and {3,4}.
    """
    flip = _decomposition_branch(
        "flip_flop",
        builtin_system("flip_flop"),
        [[0, 1], [2, 5], [3, 4]],
        L2_1,
    )
    lz = _decomposition_branch(
        "left_zero",
        builtin_system("left_zero"),
        [[0, 3], [1, 2]],
        L2,
    )
    return CorollaryReport(flip, lz)
