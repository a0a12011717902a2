"""Command-line front end.

Inputs are file paths or inline JSON (anything starting with '{' or '['),
and a semigroup or system input may also be a built-in name. Exit status:
0 on success or verified, 1 on a verification failure (the witness is
printed), 2 on usage or input errors. Commands that randomise accept
--seed and are reproducible given it; repeated runs with identical
arguments produce identical bytes.

One table, ``_COMMANDS``, gives each command its handler, its help, the
flags it requires, the flags it may take and its --cap default. A flag the
command does not read, an abbreviated flag, a missing required flag and
both flags of an exclusive pair are usage errors. A standard output that
its reader has closed is an input error.

Each command imports the library modules it calls, inside the branch that
calls them, so a run loads no more of the package than its command needs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import (
    BUILTIN_SYSTEMS,
    DEFAULT_CONGRUENCE_CAP,
    DEFAULT_ISO_CAP,
    DEFAULT_UNIVERSE_CAP,
    InputFormatError,
    LamrhoError,
    MapRangeError,
    SearchCapError,
    SizeCapError,
)

DEFAULT_ENUM_LIMIT = 100


def _read_spec(spec: str):
    """The JSON document ``spec`` holds inline (anything starting with '{'
    or '[') or in the file it names, with the source its errors name and
    the directory a relative base path resolves against: ``(document,
    "<inline>", None)`` or ``(document, path, os.path.dirname(path))``."""
    from . import serialize

    if spec.lstrip().startswith(("{", "[")):
        return serialize._parse_json(spec, "<inline>"), "<inline>", None
    return serialize._load_json(spec), spec, os.path.dirname(spec)


def resolve_semigroup(spec: str) -> FiniteSemigroup:
    from .semigroup import CATALOG

    if spec in CATALOG:
        return CATALOG[spec]
    from . import serialize

    doc, where, _ = _read_spec(spec)
    return serialize.semigroup_from_dict(doc, where)


def _associative(sg: FiniteSemigroup) -> FiniteSemigroup:
    """``sg``, refused unless its table associates."""
    from . import semigroup

    return semigroup._associative(sg)


def _valid_semigroup(spec: str) -> FiniteSemigroup:
    """The semigroup ``spec`` names, refused unless its table associates."""
    return _associative(resolve_semigroup(spec))


def resolve_system(spec: str) -> LrSystem:
    """The system ``spec`` names; a document's base must associate."""
    from . import serialize

    names = {cli: name for name, cli in BUILTIN_SYSTEMS.items() if cli}
    if spec in names:
        from .actions import builtin_system

        return builtin_system(names[spec])
    system = serialize.system_from_dict(*_read_spec(spec))
    _associative(system.base)
    return system


def resolve_action(spec: str):
    """The action ``spec`` names; its base must associate. The laws are
    checked on construction, so a failed law is reported first."""
    from . import serialize

    action = serialize.action_from_dict(*_read_spec(spec))
    _associative(action.base)
    return action


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise InputFormatError("<args>", "--sizes", "expected integers like 2,1") from None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _spec(text: str) -> str:
    # an empty name, path or document is refused, not read as an absent flag
    if not text:
        raise argparse.ArgumentTypeError("expected a name, a path or inline JSON, got ''")
    return text


def render_table(sg: FiniteSemigroup) -> str:
    names = [sg.name_of(i) for i in sg.elements()]
    width = max(len(n) for n in names + ["*"]) + 2
    lines = ["".join(s.rjust(width) for s in ["*"] + names)]
    for i in sg.elements():
        row = [names[i]] + [names[sg.mul(i, j)] for j in sg.elements()]
        lines.append("".join(s.rjust(width) for s in row))
    return "\n".join(lines)


def _emit(args, text_render, json_obj) -> None:
    if args.format == "json":
        print(json.dumps(json_obj, indent=2))
    else:
        print(text_render() if callable(text_render) else text_render)
    if args.out:
        from . import serialize

        serialize.dump_json(json_obj, args.out)


# ---------------------------------------------------------------------------
# Command handlers (each returns the exit status)


def _cmd_validate(args) -> int:
    if args.base is None and args.system is None and args.action is None:
        raise InputFormatError("<args>", "--base/--system/--action", "nothing to validate")
    if args.base is not None:
        sg = _valid_semigroup(args.base)
        print(f"semigroup ok: {sg.size} elements")
    if args.system is not None:
        from .system import validate_axioms

        system = resolve_system(args.system)
        validate_axioms(system)
        print(
            "system ok: base size "
            f"{system.base.size}, index sizes {list(system.index_sizes)}"
        )
    if args.action is not None:
        action = resolve_action(args.action)
        print(f"action ok: carrier {action.carrier} over base {action.base.size}")
    return 0


def _cmd_product(args) -> int:
    from . import serialize
    from .product import product_table
    from .system import validate_axioms

    system = validate_axioms(resolve_system(args.base))
    h = _valid_semigroup(args.h)
    table = product_table(h, system, cap=args.cap)
    _emit(args, lambda: render_table(table), serialize.semigroup_to_dict(table))
    return 0


def _cmd_quotient(args) -> int:
    from . import serialize
    from .semigroup import quotient

    sg = _valid_semigroup(args.base)
    doc, where, _ = _read_spec(args.partition)
    part = serialize.partition_from_obj(doc, sg.size, where)
    q = quotient(sg, part)
    _emit(args, lambda: render_table(q), serialize.semigroup_to_dict(q))
    return 0


def _cmd_iso(args) -> int:
    from .semigroup import find_isomorphism

    a = _valid_semigroup(args.base)
    b = _valid_semigroup(args.h)
    iso = find_isomorphism(a, b, cap=args.cap)
    if iso is None:
        print("absent: no isomorphism")
        return 1
    _emit(args, f"isomorphic via {list(iso.map)}", {"iso": list(iso.map)})
    return 0


def _cmd_divides(args) -> int:
    from .semigroup import divides

    s = _valid_semigroup(args.base)
    t = _valid_semigroup(args.h)
    witness = divides(t, s, quotient_only=args.quotient_only, congruence_cap=args.cap)
    if witness is None:
        print("absent: no division witness")
        return 1
    payload = {
        "sub_generators": list(witness.sub_generators)
        if witness.sub_generators is not None
        else None,
        "sub_elements": list(witness.sub_elements),
        "partition": [list(c) for c in witness.ambient_classes()],
        "iso": list(witness.iso.map),
    }
    _emit(
        args,
        lambda: "divides: quotient witness with classes "
        + ", ".join("{" + ",".join(map(str, c)) + "}" for c in witness.ambient_classes()),
        payload,
    )
    return 0


def _cmd_examples(args) -> int:
    from . import serialize

    if args.base is not None:
        sg = _valid_semigroup(args.base)
        _emit(args, lambda: render_table(sg), serialize.semigroup_to_dict(sg))
        return 0
    if args.system is not None:
        system = resolve_system(args.system)
        _emit(
            args,
            lambda: f"system over base of size {system.base.size}, "
            f"index sizes {list(system.index_sizes)}",
            serialize.system_to_dict(system),
        )
        return 0
    from .semigroup import CATALOG

    names = {
        "semigroups": sorted(CATALOG),
        "systems": sorted(filter(None, BUILTIN_SYSTEMS.values())),
    }
    _emit(
        args,
        lambda: "built-in semigroups: "
        + ", ".join(names["semigroups"])
        + "\nbuilt-in systems: "
        + ", ".join(names["systems"]),
        names,
    )
    return 0


def _cmd_free(args) -> int:
    from .category import free_monoid_system, free_semigroup_system

    if args.sizes is None:
        from . import serialize

        raw, where, _ = _read_spec(args.system)
        if not isinstance(raw, dict):
            raise InputFormatError(where, "<json>", "expected an object")
        free = free_monoid_system(
            serialize._require(raw, "shared_size", where, int),
            serialize._int_matrix(serialize._require(raw, "lambda", where), "lambda", where),
            serialize._int_matrix(serialize._require(raw, "rho", where), "rho", where),
            args.bound,
            cap=args.cap,
        )
    else:
        free = free_semigroup_system(_parse_sizes(args.sizes), args.bound, cap=args.cap)
    report = free.check_axioms()
    payload = {
        "mode": "monoid" if free.unit else "semigroup",
        "bound": free.bound,
        "words": len(free.words),
        "fiber_sizes": {
            "".join(map(str, w)) or "eps": free.fiber_size(w) for w in free.words
        },
        "axiom_instances_checked": report.instances,
        "axioms_ok": report.ok,
    }
    text = (
        f"{payload['mode']} mode, bound {free.bound}: {payload['words']} words\n"
        f"axiom instances checked (within bound): {report.instances}\n"
        f"axioms ok: {report.ok}"
    )
    if free.unit:
        payload["unital_on_truncated"] = free.unital_on_truncated()
        text += f"\nunital on truncated domain: {payload['unital_on_truncated']}"
    _emit(args, text, payload)
    return 0 if report.ok else 1


def _cmd_wreathize(args) -> int:
    from . import serialize
    from .groupwreath import verify_wreath_iso, wreathize
    from .semigroup import Z2
    from .system import validate_axioms

    system = validate_axioms(resolve_system(args.system))
    action, arrow = wreathize(system)
    report = verify_wreath_iso(Z2, system, cap=args.cap)
    payload = {
        "action": serialize.right_action_to_dict(action),
        "transformation": serialize.transformation_to_dict(arrow),
        "product_is_group": report.product_is_group,
        "search_iso_found": report.search_iso_found,
        "construction_iso_ok": report.construction_iso_ok,
    }
    _emit(
        args,
        lambda: "\n".join(
            [
                f"derived action on {action.carrier} points",
                "index maps through the unit fiber: isomorphism ok",
                f"wreath check over z2: group={report.product_is_group} "
                f"search={report.search_iso_found} explicit={report.construction_iso_ok}",
            ]
        ),
        payload,
    )
    return 0 if bool(report) else 1


def _cmd_corollary(args) -> int:
    from .groupwreath import corollary_demo

    report = corollary_demo()
    _emit(args, report.render_text, report.to_json_dict())
    return 0


def _cmd_enumerate(args) -> int:
    from . import serialize
    from .system import enumerate_systems

    base = _valid_semigroup(args.base)
    sizes = _parse_sizes(args.sizes)
    found = []
    for system in enumerate_systems(base, sizes, limit=args.cap, seed=args.seed):
        found.append(system)
        if args.format == "json":
            print(json.dumps(serialize.system_to_dict(system)))
        else:
            lam = serialize._pair_maps_to_dict(system, "lambda")
            rho = serialize._pair_maps_to_dict(system, "rho")
            print(f"system {len(found)}: lambda={lam} rho={rho}")
    if args.format != "json":
        print(f"total: {len(found)} system(s), limit {args.cap}")
    if args.out:
        serialize.dump_json(
            [serialize.system_to_dict(s) for s in found], args.out
        )
    return 0


# Each flag's add_argument keywords, written once.
_FLAGS = {
    "base": {"type": _spec, "help": "semigroup (or system, for product)"},
    "h": {"type": _spec, "help": "coefficient or candidate semigroup"},
    "system": {"type": _spec, "help": "index-map system"},
    "action": {"type": _spec, "help": "action document"},
    "partition": {"type": _spec, "help": "partition (path or inline JSON)"},
    "bound": {"type": int, "default": 3, "help": "word length bound"},
    "seed": {"type": int, "help": "random seed"},
    "cap": {"type": _positive_int, "help": "size or search cap (positive)"},
    "sizes": {"help": "comma-separated fiber sizes"},
    "quotient-only": {"action": "store_true",
                      "help": "restrict division search to quotients of the ambient semigroup"},
    "format": {"choices": ("pretty", "json"), "default": "pretty"},
    "out": {"help": "write the JSON artifact to this path"},
}

# command: (handler, help, required flags, optional flags, --cap default).
# A tuple of flags is an exclusive group: exactly one of them when
# required, at most one when optional. A command accepts no other flag.
_COMMANDS = {
    "validate": (_cmd_validate, "validate a semigroup table, system or action",
                 (), ("base", "system", "action"), None),
    "product": (_cmd_product, "multiply a coefficient semigroup over a system",
                ("base", "h"), ("cap", "format", "out"), DEFAULT_UNIVERSE_CAP),
    "quotient": (_cmd_quotient, "quotient a semigroup by a congruence",
                 ("base", "partition"), ("format", "out"), None),
    "iso": (_cmd_iso, "search for an isomorphism between two semigroups",
            ("base", "h"), ("cap", "format", "out"), DEFAULT_ISO_CAP),
    "divides": (_cmd_divides, "search for a division witness (--h divides --base)",
                ("base", "h"), ("cap", "quotient-only", "format", "out"),
                DEFAULT_CONGRUENCE_CAP),
    "examples": (_cmd_examples, "list or dump built-in semigroups and systems",
                 (), (("base", "system"), "format", "out"), None),
    "free": (_cmd_free, "build a bounded free system and check it",
             (("system", "sizes"),), ("bound", "cap", "format", "out"), DEFAULT_UNIVERSE_CAP),
    "wreathize": (_cmd_wreathize, "derive the action form of a unital group system",
                  ("system",), ("cap", "format", "out"), DEFAULT_UNIVERSE_CAP),
    "corollary": (_cmd_corollary, "verify the two worked decomposition witnesses",
                  (), ("format", "out"), None),
    "enumerate": (_cmd_enumerate, "stream systems over a base with given fiber sizes",
                  ("base", "sizes"), ("cap", "seed", "format", "out"), DEFAULT_ENUM_LIMIT),
}


class _CommandParser(argparse.ArgumentParser):
    """One command's parser. It refuses the leftovers after the command
    with its own usage line; those before it are the top level's."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lamrho",
        description="finite semigroup and index-map system workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    for name, (handler, help_text, required, optional, cap) in _COMMANDS.items():
        # no abbreviated flags: an unread --h would otherwise mean --help
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag, needed in [(f, True) for f in required] + [(f, False) for f in optional]:
            if isinstance(flag, tuple):
                group = p.add_mutually_exclusive_group(required=needed)
                for member in flag:
                    group.add_argument(f"--{member}", **_FLAGS[member])
            else:
                p.add_argument(f"--{flag}", required=needed, **_FLAGS[flag])
        p.set_defaults(handler=handler, cap=cap)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        status = args.handler(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError as exc:
        # the reader has gone: the flush at exit writes to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"input error: <stdout>: field '<file>': {exc.strerror}", file=sys.stderr)
        return 2
    except (InputFormatError, MapRangeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (SizeCapError, SearchCapError) as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 1
    except LamrhoError as exc:
        print(f"not verified: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
