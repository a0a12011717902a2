"""JSON file formats for semigroups, systems, actions and arrows.

All documents are UTF-8 JSON. Tables are row-major with zero-based
element indices; system map keys are "a,b" pair strings. A system's base
may be inlined, given as a built-in name, or given as a path resolved
relative to the containing file.
"""

from __future__ import annotations

import json
import os

# the action, arrow and system types are imported by the readers that
# build them, so a caller that only reads semigroups loads no more
from .errors import InputFormatError, LamrhoError
from .semigroup import CATALOG, FiniteSemigroup, Homomorphism, Partition, _is_int

def _require(obj, field, where, types=None):
    if not isinstance(obj, dict):
        raise InputFormatError(where, field, "expected a JSON object")
    if field not in obj:
        raise InputFormatError(where, field, "missing")
    value = obj[field]
    if types is not None and (
        not isinstance(value, types) or isinstance(value, bool)
    ):
        raise InputFormatError(
            where, field, f"expected {types}, got {type(value).__name__}"
        )
    return value


def _int_matrix(value, field, where):
    if not isinstance(value, list) or not all(isinstance(r, list) for r in value):
        raise InputFormatError(where, field, "expected a list of lists")
    for r in value:
        for v in r:
            if not _is_int(v):
                raise InputFormatError(where, field, f"non-integer entry {v!r}")
    return value


def _int_list(value, field, where):
    if not isinstance(value, list) or not all(_is_int(v) for v in value):
        raise InputFormatError(where, field, "expected a list of integers")
    return value


def semigroup_to_dict(sg: FiniteSemigroup) -> dict:
    out = {"size": sg.size, "table": [list(r) for r in sg.table]}
    if sg.names is not None:
        out["names"] = list(sg.names)
    return out


def semigroup_from_dict(obj, where="<memory>") -> FiniteSemigroup:
    size = _require(obj, "size", where, int)
    table = _int_matrix(_require(obj, "table", where, list), "table", where)
    names = obj.get("names")
    if names is not None and (
        not isinstance(names, list) or not all(isinstance(s, str) for s in names)
    ):
        raise InputFormatError(where, "names", "expected a list of strings")
    if names is not None and len(names) != len(table):
        raise InputFormatError(
            where, "names", f"{len(names)} given for {len(table)} table rows"
        )
    try:
        sg = FiniteSemigroup.from_rows(table, names)
    except LamrhoError as exc:
        raise InputFormatError(where, "table", str(exc)) from exc
    if sg.size != size:
        raise InputFormatError(where, "size", f"{size} does not match the table")
    return sg


def _pair_maps_to_dict(system: LrSystem, which: str) -> dict:
    n = system.base.size
    out = {}
    for a in range(n):
        for b in range(n):
            seq = system.lam_map(a, b) if which == "lambda" else system.rho_map(a, b)
            out[f"{a},{b}"] = list(seq)
    return out


def system_to_dict(system: LrSystem) -> dict:
    return {
        "base": semigroup_to_dict(system.base),
        "index_sizes": list(system.index_sizes),
        "lambda": _pair_maps_to_dict(system, "lambda"),
        "rho": _pair_maps_to_dict(system, "rho"),
    }


def _resolve_base(value, where, base_dir):
    if isinstance(value, dict):
        return semigroup_from_dict(value, where=f"{where}#base")
    if isinstance(value, str):
        if value in CATALOG:
            return CATALOG[value]
        path = value
        if base_dir and not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        return load_semigroup(path)
    raise InputFormatError(where, "base", "expected an object, name or path")


def _pair_maps_from_dict(obj, field, n, where) -> dict:
    raw = _require(obj, field, where, dict)
    out = {}
    for key, seq in raw.items():
        try:
            a, b = map(int, key.split(","))
            if key != f"{a},{b}":  # the exact form: " 0, 1" and "0,0_1" name no pair
                raise ValueError
        except ValueError:
            raise InputFormatError(
                where, f"{field}[{key}]", "key must look like 'a,b'"
            ) from None
        if not (0 <= a < n and 0 <= b < n):
            raise InputFormatError(where, f"{field}[{key}]", "pair out of range")
        out[(a, b)] = tuple(_int_list(seq, f"{field}[{key}]", where))
    for a in range(n):
        for b in range(n):
            if (a, b) not in out:
                raise InputFormatError(where, f"{field}[{a},{b}]", "missing")
    return out


def system_from_dict(obj, where="<memory>", base_dir=None) -> LrSystem:
    from .system import LrSystem

    base = _resolve_base(_require(obj, "base", where), where, base_dir)
    sizes = _require(obj, "index_sizes", where, list)
    if len(sizes) != base.size or not all(
        _is_int(k) and k >= 0 for k in sizes
    ):
        raise InputFormatError(
            where, "index_sizes", "need one non-negative size per base element"
        )
    lam = _pair_maps_from_dict(obj, "lambda", base.size, where)
    rho = _pair_maps_from_dict(obj, "rho", base.size, where)
    try:
        return LrSystem.from_maps(base, sizes, lam, rho)
    except LamrhoError as exc:
        raise InputFormatError(where, "lambda/rho", str(exc)) from exc


def _action_table(obj, field, n, carrier, where):
    """The action table ``field``: 'left' has one row per base element of
    ``carrier`` points, 'act' and 'right' one row per carrier point of
    ``n`` points. Shape errors are input errors, so only the action laws
    are left to verify."""
    rows, width = (n, carrier) if field == "left" else (carrier, n)
    table = _int_matrix(_require(obj, field, where, list), field, where)
    if len(table) != rows:
        raise InputFormatError(where, field, f"{len(table)} rows, expected {rows}")
    for i, row in enumerate(table):
        if len(row) != width:
            raise InputFormatError(
                where, f"{field}[{i}]", f"{len(row)} entries, expected {width}"
            )
        for v in row:
            if not 0 <= v < carrier:
                raise InputFormatError(
                    where, f"{field}[{i}]", f"value {v} is outside the carrier"
                )
    return tuple(tuple(r) for r in table)


def right_action_to_dict(action: RightAction) -> dict:
    return {
        "carrier": action.carrier,
        "base": semigroup_to_dict(action.base),
        "act": [list(r) for r in action.act],
    }


def two_sided_action_to_dict(action: TwoSidedAction) -> dict:
    return {
        "carrier": action.carrier,
        "base": semigroup_to_dict(action.base),
        "left": [list(r) for r in action.left],
        "right": [list(r) for r in action.right],
    }


def action_from_dict(obj, where="<memory>", base_dir=None):
    """A right action from 'act', or a two-sided one from 'left' and
    'right'. Law violations propagate as ActionLawError: a well-formed but
    invalid action is a verification failure, not a malformed file."""
    if not isinstance(obj, dict):
        raise InputFormatError(where, "act", "expected a JSON object")
    fields = ("act",) if "act" in obj else ("left", "right")
    if not all(f in obj for f in fields):
        raise InputFormatError(where, "act", "missing (or give 'left' and 'right')")
    from .actions import RightAction, TwoSidedAction

    base = _resolve_base(_require(obj, "base", where), where, base_dir)
    carrier = _require(obj, "carrier", where, int)
    if carrier < 0:
        raise InputFormatError(where, "carrier", f"{carrier} is negative")
    tables = [_action_table(obj, f, base.size, carrier, where) for f in fields]
    return (RightAction if len(fields) == 1 else TwoSidedAction)(base, carrier, *tables)


def transformation_to_dict(tr: Transformation) -> dict:
    return {
        "h": list(tr.h.map),
        "t": {str(a): list(tr.maps[a]) for a in tr.target.base.elements()},
    }


def transformation_from_dict(
    obj, source: LrSystem, target: LrSystem, where="<memory>"
) -> Transformation:
    from .category import Transformation

    h_map = _int_list(_require(obj, "h", where), "h", where)
    raw_t = _require(obj, "t", where, dict)
    maps = []
    for a in target.base.elements():
        key = str(a)
        if key not in raw_t:
            raise InputFormatError(where, f"t[{key}]", "missing")
        maps.append(tuple(_int_list(raw_t[key], f"t[{key}]", where)))
    try:
        h = Homomorphism(target.base, source.base, tuple(h_map))
        return Transformation(source, target, h, tuple(maps))
    except LamrhoError as exc:
        raise InputFormatError(where, "h/t", str(exc)) from exc


def partition_from_obj(obj, size, where="<memory>") -> Partition:
    if isinstance(obj, dict):
        obj = _require(obj, "classes", where, list)
    classes = _int_matrix(obj, "classes", where)
    try:
        return Partition.from_classes(size, classes)
    except LamrhoError as exc:
        raise InputFormatError(where, "classes", str(exc)) from exc


# ---------------------------------------------------------------------------
# File plumbing


def _parse_json(text: str, where: str):
    def unique_keys(pairs):
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen = set()
            key = next(k for k, _ in pairs if k in seen or seen.add(k))
            raise InputFormatError(where, "<json>", f"key {key!r} repeated in one object")
        return obj

    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except RecursionError:
        raise InputFormatError(where, "<json>", "nested too deeply") from None
    except ValueError as exc:  # malformed, or an integer past the digit limit
        raise InputFormatError(where, "<json>", str(exc)) from None


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise InputFormatError(path, "<file>", "no such file") from None
    except UnicodeDecodeError as exc:
        raise InputFormatError(path, "<file>", f"not UTF-8 text: {exc.reason}") from None
    except OSError as exc:
        raise InputFormatError(path, "<file>", exc.strerror or str(exc)) from None
    return _parse_json(text, path)


def load_semigroup(path: str) -> FiniteSemigroup:
    return semigroup_from_dict(_load_json(path), where=path)


def load_system(path: str) -> LrSystem:
    return system_from_dict(
        _load_json(path), where=path, base_dir=os.path.dirname(path)
    )


def load_action(path: str):
    return action_from_dict(
        _load_json(path), where=path, base_dir=os.path.dirname(path)
    )


def dump_json(obj, path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise InputFormatError(path, "<file>", exc.strerror or str(exc)) from None
