import pytest

from lamrho import (
    L2,
    L2_1,
    TRIVIAL,
    Z2,
    Z3,
    FiniteSemigroup,
    LrSystem,
    NotACongruenceError,
    NotGroupPreservingError,
    NotIsomorphicError,
    RightAction,
    builtin_system,
    check_bijectivity,
    composite_action_identity_holds,
    corollary_demo,
    derive_action,
    divides,
    enumerate_systems,
    find_isomorphism,
    from_right_action,
    identity_element,
    is_congruence,
    is_group,
    is_system_isomorphism,
    product_table,
    quotient,
    validate_table,
    verify_wreath_iso,
    wreath_oracle,
    wreathize,
)
from lamrho.groupwreath import _decomposition_branch


def regular_action(group):
    return RightAction(
        group,
        group.size,
        tuple(
            tuple(group.mul(x, a) for a in group.elements())
            for x in group.elements()
        ),
    )


def test_check_bijectivity_on_action_system():
    system = from_right_action(regular_action(Z2))
    assert check_bijectivity(system)


def test_check_bijectivity_requires_group_base():
    with pytest.raises(NotGroupPreservingError):
        check_bijectivity(builtin_system("flip_flop"))


def test_derived_action_recovers_the_original():
    act = regular_action(Z2)
    system = from_right_action(act)
    derived = derive_action(system)
    assert derived == act


def test_derived_action_unit_law():
    for group in (Z2, Z3):
        for system in enumerate_systems(group, [2] * group.size, unital_only=True):
            derived = derive_action(system)
            e = identity_element(group)
            for i in range(derived.carrier):
                assert derived.apply(i, e) == i


def test_composite_action_identity():
    for system in enumerate_systems(Z2, [2, 2], unital_only=True):
        assert composite_action_identity_holds(system)


def test_composite_action_identity_fails_when_rho_collapses():
    # every map the identity except rho[1,0] = (0, 0): 1*1 = 0 acts as the
    # identity, but acting by 1 twice sends the point 1 to 0
    ident = (0, 1)
    rho = (ident, ident, (0, 0), ident)
    system = LrSystem(Z2, (2, 2), (ident,) * 4, rho)
    assert not composite_action_identity_holds(system)


def test_wreathize_on_action_system_is_identity():
    act = regular_action(Z2)
    system = from_right_action(act)
    action, arrow = wreathize(system)
    assert action == act
    assert arrow.h.map == (0, 1)
    assert all(
        arrow.maps[g] == tuple(range(2)) for g in (0, 1)
    )
    assert is_system_isomorphism(arrow)


def test_wreathize_enumerated_systems():
    for group, sizes in ((Z2, [2, 2]), (Z3, [3, 3, 3])):
        for system in enumerate_systems(group, sizes, unital_only=True):
            action, arrow = wreathize(system)
            assert is_system_isomorphism(arrow)


def test_verify_wreath_iso_regular():
    system = from_right_action(regular_action(Z2))
    report = verify_wreath_iso(Z2, system)
    assert report
    assert report.product_is_group
    table = product_table(Z2, system)
    assert table.size == 8 and is_group(table)


def test_verify_wreath_iso_trivial_coefficients():
    system = from_right_action(regular_action(Z3))
    report = verify_wreath_iso(TRIVIAL, system)
    assert report
    assert find_isomorphism(product_table(TRIVIAL, system), Z3) is not None


def test_verify_wreath_iso_singleton_fibers():
    from lamrho import direct_product

    for system in enumerate_systems(Z3, [1, 1, 1], unital_only=True):
        report = verify_wreath_iso(Z2, system)
        assert report
        assert (
            find_isomorphism(
                product_table(Z2, system), direct_product(Z2, Z3)
            )
            is not None
        )


def test_verify_wreath_iso_explicit_route_refutes_a_relabelled_oracle(monkeypatch):
    # swapping oracle elements 1 and 2 keeps the table isomorphic, so the
    # search still succeeds, but the explicit map no longer respects it
    from lamrho import groupwreath

    def swapped_oracle(h, action, cap):
        table = wreath_oracle(h, action, cap=cap)
        swap = list(table.elements())
        swap[1], swap[2] = 2, 1
        rows = tuple(
            tuple(swap[table.mul(swap[i], swap[j])] for j in table.elements())
            for i in table.elements()
        )
        return FiniteSemigroup(table.size, rows)

    monkeypatch.setattr(groupwreath, "wreath_oracle", swapped_oracle)
    systems = list(enumerate_systems(Z2, [2, 2], unital_only=True))
    assert systems
    for system in systems:
        report = verify_wreath_iso(Z2, system)
        assert report.search_iso_found
        assert not report.construction_iso_ok
        assert not report


def test_verify_wreath_iso_rejects_non_group_coefficients():
    system = from_right_action(regular_action(Z2))
    with pytest.raises(NotGroupPreservingError):
        verify_wreath_iso(L2, system)


def test_three_conditions_agree_on_samples():
    # group-preserving, unital-over-group, and wreath-isomorphic must
    # agree; bounded condition (1) is probed with the trivial and z2
    # coefficients, which is enough to refute any failure
    from lamrho import is_group_preserving, is_unital

    groups = {"z2": Z2, "z3": Z3}
    for group in groups.values():
        for unital_flag in (True, False):
            count = 0
            for system in enumerate_systems(
                group, [2] * group.size, unital_only=unital_flag, limit=40
            ):
                if unital_flag is False and is_unital(system):
                    continue  # covered by the unital pass
                count += 1
                cond2 = is_group_preserving(system)
                cond1 = is_group(product_table(TRIVIAL, system)) and is_group(
                    product_table(Z2, system)
                )
                try:
                    _, arrow = wreathize(system)
                    cond3 = is_system_isomorphism(arrow)
                except NotGroupPreservingError:
                    cond3 = False
                assert cond1 == cond2 == cond3
            assert count > 0


def test_corollary_demo_witnesses():
    report = corollary_demo()
    flip = report.flip_flop
    assert flip.partition.classes == ((0, 1), (2, 5), (3, 4))
    assert flip.partition_labels() == (
        ("0:0", "0:1"),
        ("1:00", "1:11"),
        ("1:01", "1:10"),
    )
    assert find_isomorphism(flip.quotient, L2_1) is not None
    lz = report.left_zero
    assert lz.partition.classes == ((0, 3), (1, 2))
    assert find_isomorphism(lz.quotient, L2) is not None
    for branch in report.branches():
        validate_table([list(r) for r in branch.quotient.table])
        assert is_congruence(branch.product, branch.partition)


def test_corollary_agrees_with_division_search():
    report = corollary_demo()
    assert divides(L2_1, report.flip_flop.product, quotient_only=True) is not None
    assert divides(L2, report.left_zero.product, quotient_only=True) is not None


def test_corollary_json_roundtrip():
    import json

    payload = corollary_demo().to_json_dict()
    assert json.loads(json.dumps(payload)) == payload
    assert {b["branch"] for b in payload["branches"]} == {"flip_flop", "left_zero"}


def test_decomposition_branch_rejects_a_partition_that_is_not_a_congruence():
    # {0:0, 1:00} is not compatible with the product: 0:1 * 0:0 = 0:1 but
    # 0:1 * 1:00 = 1:11
    with pytest.raises(NotACongruenceError):
        _decomposition_branch(
            "flip_flop", builtin_system("flip_flop"), [[0, 2], [1], [3, 4, 5]], L2_1
        )


def test_decomposition_branch_rejects_a_quotient_that_misses_the_target():
    # the right partition, but a three-element group as the target
    with pytest.raises(NotIsomorphicError):
        _decomposition_branch(
            "flip_flop", builtin_system("flip_flop"), [[0, 1], [2, 5], [3, 4]], Z3
        )
