import itertools

import pytest

from lamrho import (
    CATALOG,
    JOIN2,
    L2,
    R2,
    LrSystem,
    TRIVIAL,
    SizeCapError,
    Z2,
    Z3,
    ActionLawError,
    RightAction,
    TwoSidedAction,
    block_product_oracle,
    builtin_system,
    direct_product,
    empty_system,
    find_isomorphism,
    from_right_action,
    from_two_sided_action,
    identity_element,
    is_group,
    natural_two_sided_action,
    product_table,
    singleton_system,
    two_sided_wreath_oracle,
    universe_size,
    validate_axioms,
    wreath_oracle,
)


def regular_action(group):
    return RightAction(
        group,
        group.size,
        tuple(tuple(group.mul(x, a) for a in group.elements()) for x in group.elements()),
    )


def trivial_action(base, carrier):
    return RightAction(base, carrier, tuple((x,) * base.size for x in range(carrier)))


def test_action_laws_enforced():
    with pytest.raises(ActionLawError):
        # x*e != x for a monoid base
        RightAction(Z2, 2, ((1, 0), (0, 1)))
    with pytest.raises(ActionLawError):
        RightAction(JOIN2, 1, ((1,),))


def test_right_zero_constant_action_is_legal():
    # f_a = const a is a right action of the right-zero semigroup
    act = RightAction(R2, 2, ((0, 1), (0, 1)))
    assert act.apply(0, 1) == 1


def test_empty_system_products():
    for base, h in ((Z2, Z3), (TRIVIAL, Z2), (L2, Z3)):
        table = product_table(h, empty_system(base))
        assert find_isomorphism(table, base) is not None


def test_singleton_system_products():
    assert (
        find_isomorphism(
            product_table(Z2, singleton_system(Z2)), direct_product(Z2, Z2)
        )
        is not None
    )
    assert find_isomorphism(product_table(Z3, singleton_system(TRIVIAL)), Z3) is not None
    assert (
        find_isomorphism(
            product_table(Z2, singleton_system(L2)), direct_product(Z2, L2)
        )
        is not None
    )


def test_from_right_action_validates_and_matches_oracle():
    act = regular_action(Z2)
    system = from_right_action(act)
    validate_axioms(system)
    table = product_table(Z2, system)
    oracle = wreath_oracle(Z2, act)
    assert table.table == oracle.table
    assert table.names == oracle.names
    assert table.size == 8
    assert is_group(table)


def test_from_right_action_trivial_cases():
    assert (
        find_isomorphism(
            product_table(Z2, from_right_action(trivial_action(TRIVIAL, 1))), Z2
        )
        is not None
    )
    sys_join = from_right_action(trivial_action(JOIN2, 1))
    assert (
        product_table(Z2, sys_join).table
        == wreath_oracle(Z2, trivial_action(JOIN2, 1)).table
    )


def test_wreath_oracle_edges():
    assert find_isomorphism(wreath_oracle(TRIVIAL, regular_action(Z2)), Z2) is not None
    empty_carrier = RightAction(Z2, 0, ())
    assert find_isomorphism(wreath_oracle(Z2, empty_carrier), Z2) is not None


def test_natural_two_sided_action_laws():
    for base in (TRIVIAL, Z2, JOIN2, L2):
        natural_two_sided_action(base)  # construction validates the laws


def test_two_sided_system_matches_oracle():
    act = natural_two_sided_action(Z2)
    system = from_two_sided_action(act)
    validate_axioms(system)
    table = product_table(Z2, system)
    oracle = two_sided_wreath_oracle(Z2, act)
    assert table.size == 32
    assert table.table == oracle.table


def test_block_product_size():
    assert block_product_oracle(Z2, Z2).size == 2 * 2**4
    assert universe_size(Z2, from_two_sided_action(natural_two_sided_action(Z2))) == 32


def test_degenerate_two_sided_action_reduces_to_wreath():
    # left = second projection turns the two-sided product into the
    # one-sided wreath product
    act = regular_action(Z2)
    two = TwoSidedAction(
        Z2,
        act.carrier,
        tuple(tuple(range(act.carrier)) for _ in Z2.elements()),
        act.act,
    )
    assert (
        two_sided_wreath_oracle(Z2, two).table == wreath_oracle(Z2, act).table
    )
    assert (
        product_table(Z2, from_two_sided_action(two)).table
        == product_table(Z2, from_right_action(act)).table
    )


def test_two_sided_trivial_case():
    two = natural_two_sided_action(TRIVIAL)
    assert find_isomorphism(two_sided_wreath_oracle(Z2, two), Z2) is not None
    assert find_isomorphism(two_sided_wreath_oracle(TRIVIAL, two), TRIVIAL) is not None


def test_non_semidirect_cardinality():
    u = builtin_system("non_semidirect")
    for h in (Z2, L2, R2, JOIN2):
        assert universe_size(h, u) == 1 + h.size**2


def test_builtin_system_names():
    with pytest.raises(KeyError):
        builtin_system("nope")
    assert builtin_system("boolean_shadow") == builtin_system("flip_flop")


def test_monoid_unit_law_only_when_identity_exists():
    # base join2 acting by x*a = x \/ a fixes the unit 0, so it is legal
    act = RightAction(
        JOIN2, 2, tuple(tuple(JOIN2.mul(x, a) for a in JOIN2.elements()) for x in range(2))
    )
    system = from_right_action(act)
    table = product_table(Z2, system)
    assert table.table == wreath_oracle(Z2, act).table
    assert identity_element(table) is not None


def _all_tables(rows, width, carrier):
    row_values = list(itertools.product(range(carrier), repeat=width))
    return itertools.product(row_values, repeat=rows)


def _lawful(build, *args):
    try:
        return build(*args)
    except ActionLawError:
        return None


def test_engine_and_oracles_agree_on_every_small_action():
    # every lawful action with carrier 0-2: one-sided over each catalog
    # base, two-sided over each catalog base of at most 2 elements
    cases = []
    for base in CATALOG.values():
        for c in range(3):
            for act in _all_tables(c, base.size, c):
                a = _lawful(RightAction, base, c, act)
                if a is not None:
                    cases.append((a, from_right_action, wreath_oracle))
            if base.size > 2:
                continue
            for left in _all_tables(base.size, c, c):
                for right in _all_tables(c, base.size, c):
                    a = _lawful(TwoSidedAction, base, c, left, right)
                    if a is not None:
                        cases.append(
                            (a, from_two_sided_action, two_sided_wreath_oracle)
                        )
    assert len(cases) == 37 + 81
    for action, system, oracle in cases:
        for h in (TRIVIAL, Z2, L2):
            total = action.base.size * h.size**action.carrier
            engine = product_table(h, system(action))
            built = oracle(h, action, cap=total)
            assert (built.table, built.names) == (engine.table, engine.names)
            with pytest.raises(SizeCapError, match=f"product has {total} elements"):
                oracle(h, action, cap=total - 1)


def test_oracle_cap_message_past_the_int_to_str_limit():
    # 3**10000 elements: the count has more digits than int-to-str allows
    action = RightAction(TRIVIAL, 10000, tuple((x,) for x in range(10000)))
    with pytest.raises(SizeCapError) as info:
        wreath_oracle(Z3, action)
    assert str(info.value) == "product has at least 2**15849 elements, cap is 1000000"


def test_oracle_cells_are_capped():
    # Z2 wr the trivial action of the trivial semigroup on 12 points: 4,096
    # elements, under the universe cap, and 16,777,216 cells
    action = RightAction(TRIVIAL, 12, tuple((x,) for x in range(12)))
    with pytest.raises(SizeCapError) as info:
        wreath_oracle(Z2, action)
    assert str(info.value) == "product has 16777216 cells, cap is 10000000"


# Reference constructions: each builder written out on its own.


def _reference_empty_system(base):
    n = base.size
    empty = tuple(() for _ in range(n * n))
    return validate_axioms(LrSystem(base, (0,) * n, empty, empty))


def _reference_singleton_system(base):
    n = base.size
    const = tuple((0,) for _ in range(n * n))
    return validate_axioms(LrSystem(base, (1,) * n, const, const))


def _reference_from_right_action(action):
    n, x = action.base.size, action.carrier
    lam = tuple(tuple(range(x)) for _ in range(n * n))
    rho = tuple(
        tuple(action.apply(p, a) for p in range(x))
        for a in range(n)
        for _b in range(n)
    )
    return validate_axioms(LrSystem(action.base, (x,) * n, lam, rho))


def _reference_from_two_sided_action(action):
    n, x = action.base.size, action.carrier
    lam = tuple(
        tuple(action.left_apply(b, p) for p in range(x))
        for _a in range(n)
        for b in range(n)
    )
    rho = tuple(
        tuple(action.right_apply(p, a) for p in range(x))
        for a in range(n)
        for _b in range(n)
    )
    return validate_axioms(LrSystem(action.base, (x,) * n, lam, rho))


def test_builders_match_the_reference_constructions():
    # every lawful action with carrier 0-2 (one-sided over each catalog
    # base, two-sided over each catalog base of at most 2 elements), the
    # natural two-sided action of each catalog base, and the empty and
    # singleton systems of each catalog base
    right, two_sided = [], [natural_two_sided_action(b) for b in CATALOG.values()]
    for base in CATALOG.values():
        assert empty_system(base) == _reference_empty_system(base)
        assert singleton_system(base) == _reference_singleton_system(base)
        for c in range(3):
            for act in _all_tables(c, base.size, c):
                a = _lawful(RightAction, base, c, act)
                if a is not None:
                    right.append(a)
            if base.size > 2:
                continue
            for left in _all_tables(base.size, c, c):
                for rows in _all_tables(c, base.size, c):
                    a = _lawful(TwoSidedAction, base, c, left, rows)
                    if a is not None:
                        two_sided.append(a)
    assert (len(right), len(two_sided)) == (37, 8 + 81)
    for action in right:
        assert from_right_action(action) == _reference_from_right_action(action)
    for action in two_sided:
        built = from_two_sided_action(action)
        assert built == _reference_from_two_sided_action(action)


def _tuple_hashing_two_sided_table(h, base, carrier, left, right):
    """The oracle body that built and hashed one carrier tuple per cell,
    kept as the reference for the fiber-code body."""
    n = base.size
    block = h.size**carrier
    fiber = list(itertools.product(range(h.size), repeat=carrier))
    index = {u: i for i, u in enumerate(fiber)}
    table = []
    for a in range(n):
        col = [right[p][a] for p in range(carrier)]
        for u in fiber:
            row = []
            for b in range(n):
                hrows = [h.table[u[q]] for q in left[b]]
                offset = base.mul(a, b) * block
                row.extend(
                    offset + index[tuple(r[w[c]] for r, c in zip(hrows, col))]
                    for w in fiber
                )
            table.append(tuple(row))
    names = tuple(
        f"{a}:" + "".join(str(v) for v in u) for a in range(n) for u in fiber
    )
    return n * block, tuple(table), names


def _oracle_grid():
    """Every catalog base with coefficients trivial, z2, z3 and l2, over
    the regular right action, the carrier-0 action, the carrier-1
    constant action, and the natural two-sided action where the product
    has at most 5000 elements."""
    grid = []
    for base_name, base in sorted(CATALOG.items()):
        actions = {
            "regular": regular_action(base),
            "carrier0": trivial_action(base, 0),
            "carrier1": trivial_action(base, 1),
            "natural": natural_two_sided_action(base),
        }
        for h_name in ("trivial", "z2", "z3", "l2"):
            h = CATALOG[h_name]
            for kind, action in actions.items():
                if base.size * h.size**action.carrier <= 5000:
                    name = f"{base_name}-{h_name}-{kind}"
                    grid.append(pytest.param(h, action, id=name))
    return grid


ORACLE_GRID = _oracle_grid()


def test_oracle_grid_has_126_tables():
    assert len(ORACLE_GRID) == 126


@pytest.mark.parametrize("h, action", ORACLE_GRID)
def test_oracle_matches_the_tuple_hashing_body(h, action):
    if isinstance(action, RightAction):
        built = wreath_oracle(h, action)
        left = (tuple(range(action.carrier)),) * action.base.size
        right = action.act
    else:
        built = two_sided_wreath_oracle(h, action)
        left, right = action.left, action.right
    expected = _tuple_hashing_two_sided_table(
        h, action.base, action.carrier, left, right
    )
    assert (built.size, built.table, built.names) == expected
