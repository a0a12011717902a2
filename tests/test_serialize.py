import json

import pytest

from lamrho import (
    InputFormatError,
    Z2,
    builtin_system,
    identity_transformation,
    natural_two_sided_action,
    product_table,
)
from lamrho.actions import RightAction
from lamrho import serialize


def test_semigroup_roundtrip(tmp_path):
    table = product_table(Z2, builtin_system("flip_flop"))
    path = tmp_path / "prod.json"
    serialize.dump_json(serialize.semigroup_to_dict(table), str(path))
    again = serialize.load_semigroup(str(path))
    assert again == table


def test_system_roundtrip(tmp_path):
    system = builtin_system("non_semidirect")
    path = tmp_path / "sys.json"
    serialize.dump_json(serialize.system_to_dict(system), str(path))
    assert serialize.load_system(str(path)) == system


def test_system_base_by_relative_path(tmp_path):
    base_path = tmp_path / "base.json"
    serialize.dump_json(serialize.semigroup_to_dict(Z2), str(base_path))
    system_doc = serialize.system_to_dict(builtin_system("left_zero"))
    system_doc["base"] = "base.json"
    sys_path = tmp_path / "sys.json"
    serialize.dump_json(system_doc, str(sys_path))
    # the trivial-base maps do not fit a z2 base, so shape errors surface
    with pytest.raises(InputFormatError):
        serialize.load_system(str(sys_path))
    # now store a matching document
    sys2 = {
        "base": "base.json",
        "index_sizes": [1, 1],
        "lambda": {"0,0": [0], "0,1": [0], "1,0": [0], "1,1": [0]},
        "rho": {"0,0": [0], "0,1": [0], "1,0": [0], "1,1": [0]},
    }
    serialize.dump_json(sys2, str(sys_path))
    loaded = serialize.load_system(str(sys_path))
    assert loaded.base == Z2


def test_system_base_by_builtin_name():
    doc = serialize.system_to_dict(builtin_system("left_zero"))
    doc["base"] = "trivial"
    assert serialize.system_from_dict(doc) == builtin_system("left_zero")


def test_errors_name_path_and_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"size": 2}')
    with pytest.raises(InputFormatError) as exc:
        serialize.load_semigroup(str(path))
    assert str(path) in str(exc.value)
    assert "table" in str(exc.value)


def test_missing_pair_reported():
    doc = serialize.system_to_dict(builtin_system("left_zero"))
    del doc["lambda"]["0,0"]
    with pytest.raises(InputFormatError) as exc:
        serialize.system_from_dict(doc)
    assert "lambda[0,0]" in str(exc.value)


@pytest.mark.parametrize("key", ["0,0_1", " 0, 1", "0, 1", "00,1", "+0,1", "0,1,", "0,1 "])
def test_pair_key_must_be_exact(key):
    # int() would read each of these as the pair (0,1)
    doc = serialize.system_to_dict(builtin_system("flip_flop"))
    doc["rho"][key] = doc["rho"].pop("0,1")
    with pytest.raises(InputFormatError) as exc:
        serialize.system_from_dict(doc, "doc")
    assert str(exc.value) == f"doc: field 'rho[{key}]': key must look like 'a,b'"


def test_pair_key_naming_a_pair_twice_is_refused():
    # " 0, 1" used to replace the valid "0,1" map silently
    doc = serialize.system_to_dict(builtin_system("flip_flop"))
    doc["rho"][" 0, 1"] = [7, 7]
    with pytest.raises(InputFormatError, match=r"field 'rho\[ 0, 1\]'"):
        serialize.system_from_dict(doc)


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"0,1": 1, "0,1": 2}', "0,1"),
        ('{"a": {"b": 1, "c": 2, "b": 3}}', "b"),
        ('[{"x": 1}, {"x": 1, "x": 1}]', "x"),
    ],
)
def test_repeated_json_key_is_refused(text, key):
    with pytest.raises(InputFormatError) as exc:
        serialize._parse_json(text, "doc")
    assert str(exc.value) == f"doc: field '<json>': key {key!r} repeated in one object"


def test_same_key_in_different_objects_is_read():
    assert serialize._parse_json('{"a": {"a": 1}, "b": [{"a": 2}]}', "doc") == {
        "a": {"a": 1}, "b": [{"a": 2}]
    }


def test_action_roundtrip(tmp_path):
    act = RightAction(Z2, 2, ((0, 1), (1, 0)))
    path = tmp_path / "act.json"
    serialize.dump_json(serialize.right_action_to_dict(act), str(path))
    assert serialize.load_action(str(path)) == act

    two = natural_two_sided_action(Z2)
    path2 = tmp_path / "two.json"
    serialize.dump_json(serialize.two_sided_action_to_dict(two), str(path2))
    assert serialize.load_action(str(path2)) == two


def test_transformation_roundtrip():
    tr = identity_transformation(builtin_system("flip_flop"))
    doc = serialize.transformation_to_dict(tr)
    again = serialize.transformation_from_dict(doc, tr.source, tr.target)
    assert again == tr


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"h": [False, True], "t": {"0": [0], "1": [0, 1]}}, "h"),
        ({"h": [0, 1], "t": {"0": [False], "1": [0, 1]}}, "t[0]"),
        ({"h": [0, 1], "t": {"0": "a", "1": [0, 1]}}, "t[0]"),
        ({"h": [0, 1], "t": {"0": 5, "1": [0, 1]}}, "t[0]"),
    ],
)
def test_transformation_reader_checks_integers(doc, field):
    flip = builtin_system("flip_flop")
    with pytest.raises(InputFormatError) as info:
        serialize.transformation_from_dict(doc, flip, flip)
    assert info.value.field == field


def test_partition_from_obj():
    part = serialize.partition_from_obj([[0, 1], [2, 5], [3, 4]], 6)
    assert part.num_classes() == 3
    with pytest.raises(InputFormatError):
        serialize.partition_from_obj([[0, 1]], 6)


def test_emitted_json_is_stable():
    doc1 = json.dumps(serialize.system_to_dict(builtin_system("flip_flop")))
    doc2 = json.dumps(serialize.system_to_dict(builtin_system("flip_flop")))
    assert doc1 == doc2
