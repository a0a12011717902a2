"""The value classes keep the semantics of frozen dataclasses.

Every value class derives from ``semigroup._Frozen``. Each is checked here
against a mirror that ``dataclasses.make_dataclass(..., frozen=True)``
builds from the same annotations and defaults, on one sample value and a
second that differs from it in one field.
"""

import dataclasses

import pytest

import lamrho  # noqa: F401  (loads every library module)
from lamrho import (
    Z2,
    AssociativityReport,
    AxiomViolation,
    BijectivityCheck,
    CorollaryReport,
    DivisionWitness,
    FiniteSemigroup,
    Homomorphism,
    LrSystem,
    Partition,
    ProductElement,
    RightAction,
    SystemMorphism,
    Transformation,
    TwoSidedAction,
    UnitalCheck,
    WreathIsoReport,
    builtin_system,
    corollary_demo,
    product_table,
)
from lamrho.category import FreeAxiomReport, FreeInducedHom, FreeSquareReport
from lamrho.errors import InvalidPartitionError, NotAHomomorphismError, OutOfRangeEntryError
from lamrho.groupwreath import DecompositionBranch
from lamrho.semigroup import TRIVIAL, _Frozen

# a shape-valid system over the trivial semigroup with one fiber of two
PAIR = LrSystem(TRIVIAL, (2,), ((0, 1),), ((0, 1),))
FLIP = LrSystem(TRIVIAL, (2,), ((0, 1),), ((1, 0),))
BRANCH = corollary_demo().flip_flop
OTHER_BRANCH = corollary_demo().left_zero
ONTO = Homomorphism(Z2, Z2, (0, 1))

# class: (positional arguments, index of the field to change, its new value)
SAMPLES = {
    FiniteSemigroup: ((2, Z2.table, None), 2, ("e", "g")),
    Partition: ((3, ((0, 1), (2,))), 1, ((0,), (1, 2))),
    Homomorphism: ((Z2, Z2, (0, 1)), 2, (0, 0)),
    DivisionWitness: ((None, (0, 1), Partition(2, ((0,), (1,))), ONTO), 0, (1,)),
    LrSystem: ((TRIVIAL, (2,), ((0, 1),), ((0, 1),)), 3, ((1, 1),)),
    AxiomViolation: (("alpha", 0, 1, 2, 0), 0, "gamma"),
    UnitalCheck: ((False, "base has no identity element", None), 2, (0, "rho", 1)),
    ProductElement: ((1, (0, 1)), 1, (1, 1)),
    AssociativityReport: ((True, None), 0, False),
    RightAction: ((Z2, 2, ((0, 1), (1, 0))), 2, ((0, 0), (1, 1))),
    TwoSidedAction: ((Z2, 2, ((0, 1), (0, 1)), ((0, 1), (1, 0))), 3, ((0, 0), (1, 1))),
    SystemMorphism: ((PAIR, PAIR, ((0, 1),)), 2, ((1, 0),)),
    Transformation: ((PAIR, FLIP, Homomorphism.identity(TRIVIAL), ((0, 1),)), 1, PAIR),
    FreeAxiomReport: ((10, ()), 0, 11),
    FreeSquareReport: ((4, 8, ()), 1, 9),
    FreeInducedHom: ((True, True, 12, 20, 6), 3, 21),
    BijectivityCheck: ((True, None), 1, ("rho", 0, 1)),
    WreathIsoReport: ((True, True, True), 2, False),
    DecompositionBranch: (
        tuple(getattr(BRANCH, name) for name in DecompositionBranch.__annotations__),
        0,
        "other",
    ),
    CorollaryReport: ((BRANCH, OTHER_BRANCH), 1, BRANCH),
}


def test_every_value_class_has_a_sample():
    assert set(_Frozen.__subclasses__()) == set(SAMPLES)
    assert len(SAMPLES) == 20


def mirror_of(cls):
    """A frozen dataclass with the class's name, fields and defaults."""
    spec = [
        (name, object, dataclasses.field(default=vars(cls)[name]))
        if name in vars(cls) else (name, object)
        for name in cls.__annotations__
    ]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda cls: cls.__name__)
def test_value_semantics_match_a_frozen_dataclass(cls):
    args, index, new = SAMPLES[cls]
    mirror = mirror_of(cls)
    changed = args[:index] + (new,) + args[index + 1:]
    value, same, other = cls(*args), cls(*args), cls(*changed)
    m_value, m_same, m_other = mirror(*args), mirror(*args), mirror(*changed)

    if "__repr__" not in vars(cls):
        assert repr(value) == repr(m_value)
    assert (value == same, value != same) == (m_value == m_same, m_value != m_same)
    assert (value == other, value != other) == (m_value == m_other, m_value != m_other)
    assert (value == same, value != other) == (True, True)
    assert value != m_value and value != args  # another class is never equal
    assert hash(value) == hash(m_value) == hash(same)
    assert vars(value) == vars(m_value)

    # keywords, and defaults left out
    names = list(cls.__annotations__)
    assert cls(**dict(zip(names, args))) == value
    assert cls(*args[:1], **dict(zip(names[1:], args[1:]))) == value
    required = [name for name in names if name not in vars(cls)]
    if len(required) < len(names):
        short = args[: len(required)]
        assert cls(*short) == cls(*short, *(vars(cls)[n] for n in names[len(required):]))
        assert vars(cls(*short)) == vars(mirror(*short))
    for bad in (args + (None,), args[: len(required) - 1]):
        with pytest.raises(TypeError):
            cls(*bad)
    with pytest.raises(TypeError):
        cls(*args, **{names[0]: args[0]})
    with pytest.raises(TypeError):
        cls(*args, nope=1)

    for target in (value, m_value):
        with pytest.raises(AttributeError):
            setattr(target, names[index], new)
        with pytest.raises(AttributeError):
            delattr(target, names[0])
        with pytest.raises(AttributeError):
            target.extra = 1
    assert value == same


def test_post_init_still_checks_tables_partitions_and_maps():
    with pytest.raises(OutOfRangeEntryError):
        FiniteSemigroup(2, ((0, 1), (1, 2)))
    with pytest.raises(InvalidPartitionError):
        Partition(3, ((0,), (1,)))
    with pytest.raises(NotAHomomorphismError):
        Homomorphism(Z2, Z2, (1, 1))


def test_values_built_from_lists_equal_and_hash_as_those_from_tuples():
    listed = FiniteSemigroup(2, [[0, 1], [1, 0]], ["0", "1"])
    assert listed == Z2 and hash(listed) == hash(Z2)
    system = LrSystem(TRIVIAL, [2], [(0, 1)], [[0, 0]])
    same = LrSystem(TRIVIAL, (2,), ((0, 1),), ((0, 0),))
    assert system == same and hash(system) == hash(same)
    # a tuple is kept, not copied
    assert same.lam[0] is LrSystem(TRIVIAL, (2,), same.lam, same.rho).lam[0]


def test_a_product_table_equals_the_checked_construction():
    table = product_table(Z2, builtin_system("flip_flop"))
    checked = FiniteSemigroup(table.size, table.table, table.names)
    assert table == checked and hash(table) == hash(checked)
    assert vars(table) == vars(checked)
