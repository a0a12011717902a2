"""Spans and counts around calls into lamrho, recorded from outside it.

``install`` wraps every public module-level function of every loaded
``lamrho`` module (plus ``TruncatedFreeSystem.check_axioms``) and rebinds
the wrapper under every name any lamrho module holds for the original, so
calls made across modules (``divides`` -> ``all_congruences``,
``groupwreath`` -> ``product_table``) get spans too. No library code is
changed. A span is (name, start, end, parent id); spans stay in memory
until ``write`` is called. Counts are derived from arguments and results
by the ``COUNTERS`` hooks, which run outside the span they describe.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
from collections import Counter

LAYERS = (
    "semigroup", "system", "product", "actions",
    "category", "groupwreath", "serialize", "cli",
)

def _universe_index(h, system, element):
    """Position of a ProductElement in the documented universe order."""
    offset = sum(h.size ** system.index_sizes[a] for a in range(element.anchor))
    code = 0
    for v in element.values:
        code = code * h.size + v
    return offset + code


def _scan_work(n, witness_rank):
    # a passing scan visits n^3 triples; a failing one stops at the witness
    return n ** 3 if witness_rank is None else witness_rank + 1


def _count_assoc_witness(t, args, kwargs, result):
    n = len(args[0])
    rank = None if result is None else (result[0] * n + result[1]) * n + result[2]
    t.counts["semigroup.assoc_triples"] += _scan_work(n, rank)


def _count_oracle(t, args, kwargs, result):
    h, system = args[0], args[1]
    n = sum(h.size ** k for k in system.index_sizes)
    t.counts["product.cells"] += n * n
    rank = None
    if result.witness is not None:
        i, j, k = (_universe_index(h, system, e) for e in result.witness)
        rank = (i * n + j) * n + k
    t.counts["product.oracle_triples"] += _scan_work(n, rank)


def _count_axiom_check(t, args, kwargs, result):
    first_only = kwargs.get("first_only", args[1] if len(args) > 1 else False)
    if first_only and result:
        return  # stopped early: not a full check
    system = args[0]
    base = system.base
    sizes = system.index_sizes
    t.counts["system.axiom_points"] += sum(
        sizes[base.mul(base.mul(a, b), c)]
        for a in base.elements() for b in base.elements() for c in base.elements()
    )


def _count_divides(t, args, kwargs, result):
    t.counts["semigroup.divides_attempted"] += 1
    key = "semigroup.divides_absent" if result is None else "semigroup.divides_present"
    t.counts[key] += 1


def _file_bytes(key, pos):
    def hook(t, args, kwargs, result):
        path = args[pos] if len(args) > pos else kwargs["path"]
        t.counts[key] += os.path.getsize(path)
    return hook


def _add(key, amount):
    def hook(t, args, kwargs, result):
        t.counts[key] += amount(args, result)
    return hook


COUNTERS = {
    "product.product_table": _add("product.cells", lambda a, r: r.size * r.size),
    "product.universe": _add("product.universe_elems", lambda a, r: len(r)),
    "product.associativity_oracle": _count_oracle,
    "semigroup.associativity_witness": _count_assoc_witness,
    "semigroup.all_congruences": _add("semigroup.congruences", lambda a, r: len(r)),
    "semigroup.find_isomorphism": lambda t, a, k, r: t.counts.update(
        ["semigroup.iso_absent" if r is None else "semigroup.iso_found"]
    ),
    "semigroup.divides": _count_divides,
    "system.axiom_violations": _count_axiom_check,
    "actions.wreath_oracle": _add("actions.oracle_cells", lambda a, r: r.size * r.size),
    "actions.two_sided_wreath_oracle": _add(
        "actions.oracle_cells", lambda a, r: r.size * r.size
    ),
    "category.TruncatedFreeSystem.check_axioms": _add(
        "category.free_instances", lambda a, r: r.instances
    ),
    "groupwreath.verify_wreath_iso": _add("groupwreath.wreath_checks", lambda a, r: 1),
    "serialize.dump_json": _file_bytes("serialize.bytes_written", 1),
    "serialize.load_semigroup": _file_bytes("serialize.bytes_read", 0),
    "serialize.load_system": _file_bytes("serialize.bytes_read", 0),
    "serialize.load_action": _file_bytes("serialize.bytes_read", 0),
}


class Tracer:
    """In-memory span recorder. ``enabled`` is switched off while the
    benchmark checks answers, so checking work is not charged to layers."""

    def __init__(self):
        self.enabled = False
        self.reset()

    def reset(self) -> None:
        """Forget every span and count recorded so far."""
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()

    def open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(sid)
        self.starts.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter()
        self.stack.pop()

    def layer_times(self) -> dict[str, float]:
        """Self time per layer: span time less the time of its child spans."""
        child = [0.0] * len(self.names)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[sid] - self.starts[sid]
        out = {layer: 0.0 for layer in LAYERS}
        for sid, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += self.ends[sid] - self.starts[sid] - child[sid]
        return out

    def layer_calls(self) -> dict[str, int]:
        out = {layer: 0 for layer in LAYERS}
        for name, n in self.calls.items():
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += n
        return out

    def write(self, path: str) -> None:
        """Write spans, calls and counts as one JSON document."""
        doc = {
            "spans": {
                "name": self.names,
                "start": self.starts,
                "end": self.ends,
                "parent": self.parents,
            },
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    def merge_file(self, path: str) -> None:
        """Add the spans and counts another process wrote with ``write``."""
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        base = len(self.names)
        spans = doc["spans"]
        self.names.extend(spans["name"])
        self.starts.extend(spans["start"])
        self.ends.extend(spans["end"])
        self.parents.extend(p + base if p >= 0 else -1 for p in spans["parent"])
        self.calls.update(doc["calls"])
        self.counts.update(doc["counts"])


def _wrap_function(tracer: Tracer, name: str, fn):
    count = COUNTERS.get(name)

    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        tracer.calls[name] += 1
        sid = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            tracer.close(sid)
            if name == "semigroup.divides" and type(exc).__name__ == "SearchCapError":
                # a truncated division search: attempted, but inconclusive
                tracer.counts["semigroup.divides_attempted"] += 1
                tracer.counts["semigroup.divides_inconclusive"] += 1
            raise
        tracer.close(sid)
        if count is not None:
            count(tracer, args, kwargs, result)
        return result

    traced.__wrapped__ = fn
    return traced


def _wrap_generator(tracer: Tracer, name: str, fn):
    """One span per resumption of the generator."""

    def resumed(inner):
        while True:
            sid = tracer.open(name)
            try:
                item = next(inner)
            except StopIteration:
                tracer.close(sid)
                return
            except Exception:
                tracer.close(sid)
                raise
            tracer.close(sid)
            if name == "system.enumerate_systems":
                tracer.counts["system.systems_yielded"] += 1
            yield item

    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        tracer.calls[name] += 1
        return resumed(fn(*args, **kwargs))

    traced.__wrapped__ = fn
    return traced


def install(tracer: Tracer) -> int:
    """Wrap lamrho's public functions in every loaded lamrho module.

    Returns the number of functions wrapped. Call once per import of
    lamrho, after the modules to be traced are imported.
    """
    modules = {
        key: mod for key, mod in sys.modules.items()
        if mod is not None and (key == "lamrho" or key.startswith("lamrho."))
    }
    wrappers = {}
    for key, mod in modules.items():
        layer = key.rsplit(".", 1)[-1]
        if layer not in LAYERS:
            continue
        for attr, value in vars(mod).items():
            if (
                attr.startswith("_")
                or not inspect.isfunction(value)
                or value.__module__ != key
            ):
                continue
            name = f"{layer}.{attr}"
            wrap = _wrap_generator if inspect.isgeneratorfunction(value) else _wrap_function
            wrappers[id(value)] = wrap(tracer, name, value)
        if layer == "category":
            # the free systems' axiom check is a method, the one entry point
            # into a layer that module functions do not cover
            cls = mod.TruncatedFreeSystem
            cls.check_axioms = _wrap_function(
                tracer, "category.TruncatedFreeSystem.check_axioms", cls.check_axioms
            )
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                setattr(mod, attr, wrapper)
    return len(wrappers)
