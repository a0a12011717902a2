"""The four workloads: seeded inputs, fixed query lists and answer checks.

Each ``build_<workload>(L, rng, work)`` receives the imported ``lamrho``
package, a ``random.Random`` made from the workload seed and a scratch
directory, and returns the workload's fixed query list. The seed never
changes the sizes that set the cost of a query: it relabels elements and
index points, picks actions among ones of equal size, and seeds the
library's own random enumeration inside queries. Searches made while
building the inputs (enumerated and perturbed systems) start from fixed
inputs and only their results are relabelled, so set-up costs the same on
every seed. Answers that do not depend on labels (present or absent,
lattice sizes, exit codes) are therefore fixed here and checked on every
seed.

Queries call the library through attributes of ``L`` at run time, so the
traced run sees the wrapped functions.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable


class Mismatch(Exception):
    """An answer that fails its check."""


def expect(condition, message: str) -> None:
    if not condition:
        raise Mismatch(message)


@dataclass
class Query:
    """One timed call of the workload.

    ``run`` does the timed work; ``check`` raises on a wrong answer and
    runs outside the timed region; ``digest`` gives the value whose hash
    is compared with the golden record of the default seed. ``smoke``
    marks the cheap queries the smoke test runs.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]
    digest: Callable[[object], object]
    smoke: bool = False


# ---------------------------------------------------------------------------
# Relabelled copies: isomorphic inputs whose cost does not depend on the seed


def shuffled(rng, n: int) -> list[int]:
    p = list(range(n))
    rng.shuffle(p)
    return p


def inverse(p) -> list[int]:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return out


def relabel_semigroup(L, sg, p):
    """The copy of ``sg`` in which element i is called p[i]; validated."""
    n = sg.size
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            rows[p[i]][p[j]] = p[sg.table[i][j]]
    names = [""] * n
    for i in range(n):
        names[p[i]] = sg.name_of(i)
    return L.validate_table(rows, names)


def relabel_system(L, system, rng, validate=True):
    """An isomorphic system: base elements and each fiber's points permuted."""
    old = system.base
    p = shuffled(rng, old.size)
    base = relabel_semigroup(L, old, p)
    sigma = [shuffled(rng, k) for k in system.index_sizes]
    sigma_inv = [inverse(s) for s in sigma]
    sizes = [0] * old.size
    lam, rho = {}, {}
    for a in old.elements():
        sizes[p[a]] = system.index_sizes[a]
        for b in old.elements():
            ab = old.mul(a, b)
            lm, rm = system.lam_map(a, b), system.rho_map(a, b)
            lam[p[a], p[b]] = [sigma[a][lm[q]] for q in sigma_inv[ab]]
            rho[p[a], p[b]] = [sigma[b][rm[q]] for q in sigma_inv[ab]]
    out = L.LrSystem.from_maps(base, sizes, lam, rho)
    return L.validate_axioms(out) if validate else out


def relabel_action(L, action, rng):
    """An isomorphic right action: base elements and carrier points permuted."""
    p = shuffled(rng, action.base.size)
    q = shuffled(rng, action.carrier)
    base = relabel_semigroup(L, action.base, p)
    act = [[0] * base.size for _ in range(action.carrier)]
    for x in range(action.carrier):
        for s in action.base.elements():
            act[q[x]][p[s]] = q[action.act[x][s]]
    return L.RightAction(base, action.carrier, tuple(map(tuple, act)))


def regular_action(L, base):
    """A semigroup acting on itself by right multiplication."""
    act = tuple(tuple(base.mul(x, s) for s in base.elements()) for x in base.elements())
    return L.RightAction(base, base.size, act)


def involution_action(L, rng, points: int):
    """Z2 acting on ``points`` points through a random involution."""
    sigma = list(range(points))
    order = shuffled(rng, points)
    for i in range(0, points - 1 - rng.randrange(2), 2):
        x, y = order[i], order[i + 1]
        sigma[x], sigma[y] = y, x
    return L.RightAction(L.Z2, points, tuple((x, sigma[x]) for x in range(points)))


def trivial_action(L, base, points: int):
    return L.RightAction(base, points, tuple((x,) * base.size for x in range(points)))


def perturb(L, system):
    """Change one entry of one map so that some axiom fails (shape kept).

    Tries entries in a fixed order, so the search costs the same whatever
    the seed. Returns None when no single-entry change breaks an axiom (as
    for the identity system over the trivial semigroup).
    """
    n = system.base.size
    slots = [
        (kind, a, b)
        for kind in ("lam", "rho")
        for a in range(n)
        for b in range(n)
        if system.index_sizes[system.base.mul(a, b)] > 0
        and system.index_sizes[a if kind == "lam" else b] > 1
    ]
    for kind, a, b in slots:
        maps = system.lam if kind == "lam" else system.rho
        cod = system.index_sizes[a if kind == "lam" else b]
        for point in range(len(maps[a * n + b])):
            for value in range(cod):
                seqs = [list(m) for m in maps]
                if seqs[a * n + b][point] == value:
                    continue
                seqs[a * n + b][point] = value
                changed = tuple(map(tuple, seqs))
                lam, rho = (changed, system.rho) if kind == "lam" else (system.lam, changed)
                bad = L.LrSystem(system.base, system.index_sizes, lam, rho)
                if L.axiom_violations(bad, first_only=True):
                    return bad
    return None


def perturbed(L, rng, systems, count):
    """Relabelled, broken copies of the first ``count`` systems that a
    single-entry change breaks."""
    out = []
    for system in systems:
        bad = perturb(L, system)
        if bad is not None:
            out.append(relabel_system(L, bad, rng, validate=False))
            if len(out) == count:
                return out
    raise ValueError(f"only {len(out)} of {count} systems could be perturbed")


def enumerated(L, base, sizes, count):
    """The first ``count`` systems of the library's default enumeration.

    A seeded search costs up to 10x more on one seed than on another, so
    the benchmark seed relabels these systems instead of seeding the search.
    """
    return list(L.enumerate_systems(base, sizes, limit=count))


def universe_size(h, system) -> int:
    return sum(h.size ** k for k in system.index_sizes)


def table_digest(sg):
    return (sg.size, sg.table, sg.names)


# ---------------------------------------------------------------------------
# tables: a few large products, each scanned and cross-checked


def build_tables(L, rng, work):
    queries = []

    def action_query(h, action, two_sided=False):
        if two_sided:
            system = L.from_two_sided_action(action)
        else:
            system = L.from_right_action(action)
        size = universe_size(h, system)

        def run():
            table = L.product_table(h, system)
            L.validate_table(table.table, table.names)
            if two_sided:
                return table, L.two_sided_wreath_oracle(h, action)
            return table, L.wreath_oracle(h, action)

        def check(res):
            table, oracle = res
            expect(table.size == size, f"universe has {table.size} elements, expected {size}")
            expect(table.table == oracle.table, "engine table differs from the oracle table")
            expect(table.names == oracle.names, "engine names differ from the oracle names")

        kind = "two_sided" if two_sided else "action"
        return Query(kind, run, check, lambda res: table_digest(res[0]), smoke=size <= 40)

    def enumerated_query(h, system):
        size = universe_size(h, system)

        def run():
            table = L.product_table(h, system)
            L.validate_table(table.table, table.names)
            return table

        def check(table):
            expect(table.size == size, f"universe has {table.size} elements, expected {size}")

        return Query("enumerated", run, check, table_digest, smoke=size <= 40)

    def perturbed_query(h, bad):
        def run():
            return L.associativity_oracle(h, bad)

        def check(report):
            expect(not report.associative and report.witness is not None,
                   "perturbed system passed the associativity scan")
            expect(not L.triple_associates(h, bad, report.witness),
                   "witness triple associates")

        return Query("perturbed", run, check,
                     lambda r: tuple(e.label() for e in r.witness), smoke=True)

    two_elem = [L.L2, L.R2, L.Z2, L.JOIN2, L.MEET2]
    four = [L.direct_product(x, y) for x, y in ((L.Z2, L.Z2), (L.L2, L.Z2), (L.JOIN2, L.JOIN2))]
    queries.append(action_query(L.Z3, relabel_action(L, regular_action(L, rng.choice(four)), rng)))
    for base in rng.sample(two_elem, 2):
        queries.append(action_query(L.Z3, L.natural_two_sided_action(
            relabel_semigroup(L, base, shuffled(rng, 2))), two_sided=True))
    for _ in range(12):
        base = rng.choice([L.Z3, L.L2_1])
        queries.append(action_query(L.Z3, relabel_action(L, regular_action(L, base), rng)))
    for _ in range(10):
        queries.append(action_query(L.Z2, relabel_action(L, regular_action(L, rng.choice(four)), rng)))
    for _ in range(18):
        queries.append(action_query(L.Z2, L.natural_two_sided_action(
            relabel_semigroup(L, rng.choice(two_elem), shuffled(rng, 2))), two_sided=True))
    for system in enumerated(L, L.L2, (3, 3), 8) + enumerated(L, L.JOIN2, (3, 3), 8):
        queries.append(enumerated_query(L.Z3, relabel_system(L, system, rng)))
    for h, base, sizes, count in ((L.Z2, L.TRIVIAL, (5,), 11), (L.Z3, L.JOIN2, (2, 3), 10),
                                  (L.Z2, L.L2_1, (3, 2, 2), 10), (L.Z3, L.TRIVIAL, (3,), 10)):
        for bad in perturbed(L, rng, enumerated(L, base, sizes, 3 * count), count):
            queries.append(perturbed_query(h, bad))
    return queries


# ---------------------------------------------------------------------------
# enumerate: many tiny systems, each re-validated


def free_instances(alphabet: int, bound: int, min_len: int) -> int:
    """Triples of words (lengths >= min_len) whose concatenation fits the bound."""
    lengths = range(min_len, bound + 1)
    return sum(
        alphabet ** (x + y + z)
        for x in lengths for y in lengths for z in lengths
        if x + y + z <= bound
    )


def unit_of(sg):
    for e in sg.elements():
        if all(sg.mul(e, a) == a == sg.mul(a, e) for a in sg.elements()):
            return e
    return None


def build_enumerate(L, rng, work):
    queries = []

    def stream_query(base, sizes, limit=None, seed=None, unital=False, cross_check=True):
        kwargs = {"limit": limit, "seed": seed, "unital_only": unital}
        h = L.Z2 if cross_check else None
        lexicographic = seed is None and base.size <= 3 and max(sizes) <= 3

        def run():
            systems = list(L.enumerate_systems(base, sizes, **kwargs))
            violations = [L.axiom_violations(s) for s in systems]
            oracle = [bool(L.associativity_oracle(h, s)) for s in systems] if h else []
            return systems, violations, oracle

        def check(res):
            systems, violations, oracle = res
            expect(systems, "empty stream")
            expect(limit is None or len(systems) <= limit, "stream exceeds its limit")
            expect(not any(violations), "enumerated system violates an axiom")
            expect(all(oracle), "enumerated system gives a non-associative product")
            keys = [s.lam + s.rho for s in systems]
            expect(len(set(keys)) == len(keys), "stream repeats a system")
            if lexicographic:
                expect(keys == sorted(keys), "exhaustive stream is out of order")
            if unital:
                e = unit_of(base)
                for s in systems:
                    for a in base.elements():
                        ident = tuple(range(s.index_sizes[a]))
                        expect(s.lam_map(a, e) == ident and s.rho_map(e, a) == ident,
                               "unital stream yields a non-unital system")

        digest = lambda res: [(s.index_sizes, s.lam, s.rho) for s in res[0]]
        cheap = limit is None or limit <= 50
        return Query("unital" if unital else "exhaustive" if seed is None else "seeded",
                     run, check, digest, smoke=cheap and sum(sizes) <= 3)

    def perturbed_query(bad):
        def run():
            violation = L.axiom_violations(bad, first_only=True)[0]
            h, triple = L.nonassociativity_witness(bad, violation)
            return violation, h, triple, L.triple_associates(h, bad, triple)

        def check(res):
            violation, h, triple, associates = res
            expect(not associates, "non-associativity witness associates")
            expect(violation.axiom in ("alpha", "beta", "gamma"), "unknown axiom")

        def digest(res):
            v, h, triple, _ = res
            return (v.axiom, v.a, v.b, v.c, v.point, h.table, tuple(e.label() for e in triple))

        return Query("perturbed", run, check, digest, smoke=True)

    def free_query(letter_sizes, bound, monoid=None):
        alphabet = len(letter_sizes)
        if monoid:
            shared, lam, rho = monoid

        def run():
            if monoid:
                free = L.free_monoid_system(shared, lam, rho, bound)
            else:
                free = L.free_semigroup_system(letter_sizes, bound)
            return free.check_axioms()

        def check(report):
            expect(report.ok, "free system violates an axiom")
            expected = free_instances(alphabet, bound, 0 if monoid else 1)
            expect(report.instances == expected,
                   f"{report.instances} instances checked, expected {expected}")

        return Query("free", run, check, lambda r: (r.instances, r.violations), smoke=True)

    # The streams run over the catalog tables as they are: the cost of a
    # depth-first search with a limit depends on element labels, so only the
    # library seed of the TRIVIAL streams (whose cost is materialising the
    # candidate maps) and the labels of the perturbed and free inputs come
    # from the seed.
    two = [L.Z2, L.L2, L.R2, L.JOIN2, L.MEET2]
    three = [L.Z3, L.L2_1]
    for k in (1, 2, 3):
        queries.append(stream_query(L.TRIVIAL, (k,)))
    for base in two:
        for sizes in ((1, 1), (1, 2), (2, 1), (2, 2)):
            queries.append(stream_query(base, sizes))
    for base in three:
        for sizes in ((1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2)):
            queries.append(stream_query(base, sizes))
    queries.append(stream_query(L.L2_1, (2, 2, 2), limit=150, cross_check=False))
    queries.append(stream_query(L.Z2, (3, 3), limit=150, cross_check=False))
    for base in two:
        queries.append(stream_query(base, (2, 3), limit=60))
        queries.append(stream_query(base, (3, 3), limit=40, cross_check=False))
    queries.append(stream_query(L.Z3, (3, 3, 3), limit=20, cross_check=False))
    for k in (4, 5, 6, 7):
        queries.append(stream_query(L.TRIVIAL, (k,), limit=20, seed=rng.randrange(10**6),
                                    cross_check=False))
    for i, base in enumerate(two):
        queries.append(stream_query(base, (4, 4), limit=10, seed=i, cross_check=False))
    for i, base in enumerate(three):
        queries.append(stream_query(base, (2, 2, 2), limit=30, seed=i))
    for base in (L.TRIVIAL, L.Z2, L.JOIN2, L.MEET2, L.Z3, L.L2_1):
        for k in (1, 2):
            queries.append(stream_query(base, (k,) * base.size, unital=True))
    for base in (L.Z2, L.MEET2):
        queries.append(stream_query(base, (3, 3), unital=True, cross_check=False))
    for base, sizes in ((L.TRIVIAL, (3,)), (L.JOIN2, (2, 2)), (L.L2_1, (2, 2, 1)), (L.Z2, (2, 3))):
        for bad in perturbed(L, rng, enumerated(L, base, sizes, 15), 5):
            queries.append(perturbed_query(bad))
    # Free systems in unit mode keep fixed letter maps: the maps decide the
    # fiber sizes, and so the cost.
    monoids = [
        (2, [[0, 1], [1]], [[0, 1], [0]]),
        (2, [[0, 1], [1, 1]], [[1, 0], [0, 1]]),
        (3, [[0, 2], [1]], [[2, 1], [0]]),
        (1, [[0, 0], [0]], [[0, 0], [0]]),
        (2, [[1], [0, 1]], [[1], [1, 0]]),
    ]
    letters = [(1, 2), (2, 2), (1, 3), (2, 3), (1, 1, 2)]
    for i in range(10):
        # reordering the letters relabels the free system; the cost stays
        queries.append(free_query(tuple(rng.sample(letters[i % 5], len(letters[i % 5]))), 4))
        shared, lam, rho = monoids[i % len(monoids)]
        letter_sizes = tuple(len(m) for m in lam)
        queries.append(free_query(letter_sizes, 3, monoid=(shared, lam, rho)))
    return queries


# ---------------------------------------------------------------------------
# decompose: congruence, isomorphism and division searches on small products

# Division answers by product, for the catalog order z2 z3 l2 r2 l2_1 join2
# meet2, quotient-only then full; they do not depend on element labels.
DIVISION_TARGETS = ("z2", "z3", "l2", "r2", "l2_1", "join2", "meet2")
SMALL_DIVISIONS = {
    "P4": ("1010000", "1010000"),
    "P5": ("0000011", "1000011"),
    "P6": ("1000111", "1010111"),
    "P8": ("1010000", "1010000"),
    "P12": ("0100111", "0110111"),
}
# (target, product, quotient_only, present): the searches that take seconds.
LARGE_DIVISIONS = (
    ("l2_1", "P16", False, False),
    ("z2", "P16", True, True),
    ("r2", "P32", True, True),
    ("z3", "P16", True, False),
)
# Four more full searches on P12 that end absent (about 75 ms each): with them
# the 90th percentile falls inside a block of equal queries, not on the edge
# between two groups of different cost.
P12_ABSENT_REPEATS = ("z2", "r2", "z2", "r2")
CONGRUENCE_COUNTS = {"P4": 4, "P5": 6, "P6": 8, "P8": 10, "P12": 17, "P16": 82}


def check_division(L, t, s, witness, quotient_only):
    """Re-verify a division witness from its parts."""
    elems = witness.sub_elements
    inside = set(elems)
    expect(all(s.mul(x, y) in inside for x in elems for y in elems),
           "witness subsemigroup is not closed")
    if witness.sub_generators is None:
        expect(elems == tuple(s.elements()), "whole-semigroup witness misses elements")
        sub = s
    else:
        expect(not quotient_only, "quotient-only search used a subsemigroup")
        sub = L.subsemigroup_table(s, elems)
    expect(L.is_congruence(sub, witness.partition), "witness partition is not a congruence")
    q = L.quotient(sub, witness.partition)
    expect(L.Homomorphism(q, t, witness.iso.map).is_bijective(),
           "witness quotient is not isomorphic to the target")


def check_isomorphism(a, b, mapping):
    expect(sorted(mapping) == list(range(b.size)), "isomorphism is not a bijection")
    expect(all(mapping[a.mul(x, y)] == b.mul(mapping[x], mapping[y])
               for x in a.elements() for y in a.elements()),
           "isomorphism does not respect the product")


def build_decompose(L, rng, work):
    queries = []

    def copy(sg):
        return relabel_semigroup(L, sg, shuffled(rng, sg.size))

    products = {
        "P4": L.product_table(L.Z2, L.builtin_system("left_zero")),
        "P5": L.product_table(L.Z2, L.builtin_system("non_semidirect")),
        "P6": L.product_table(L.Z2, L.builtin_system("flip_flop")),
        "P8": L.product_table(L.Z2, L.from_right_action(regular_action(L, L.L2))),
        "P12": L.product_table(L.Z3, L.builtin_system("flip_flop")),
        "P16": L.product_table(L.Z2, L.from_right_action(trivial_action(L, L.JOIN2, 3))),
        "P32": L.product_table(L.Z2, L.from_two_sided_action(L.natural_two_sided_action(L.L2))),
    }
    # The products keep their labels: the cost of a congruence or division
    # search depends on them (up to 1.5x on the small products), so the
    # seed relabels the targets, the isomorphism oracles and the group
    # systems instead.

    def divides_query(target, name, quotient_only, present):
        t, s = copy(L.CATALOG[target]), products[name]

        def run():
            return L.divides(t, s, quotient_only=quotient_only)

        def check(witness):
            expect((witness is not None) == present,
                   f"{target} | {name}: expected {'present' if present else 'absent'}")
            if witness is not None:
                check_division(L, t, s, witness, quotient_only)

        def digest(w):
            if w is None:
                return None
            return (w.sub_generators, w.sub_elements, w.partition.classes, w.iso.map)

        kind = "divides_" + ("present" if present else "absent")
        return Query(kind, run, check, digest, smoke=s.size <= 6)

    def congruence_query(name):
        s = products[name]

        def run():
            return L.all_congruences(s)

        def check(parts):
            expect(len(parts) == CONGRUENCE_COUNTS[name],
                   f"{name}: {len(parts)} congruences, expected {CONGRUENCE_COUNTS[name]}")
            expect(parts[0].num_classes() == s.size and parts[-1].num_classes() == 1,
                   "lattice misses the discrete or the total congruence")
            expect(all(L.is_congruence(s, p) for p in parts), "a listed partition is not a congruence")

        return Query("congruences", run, check, lambda ps: [p.classes for p in ps],
                     smoke=s.size <= 6)

    def iso_query(h, action, other=None, labels=rng):
        engine = L.product_table(h, L.from_right_action(action))
        oracle = L.wreath_oracle(h, relabel_action(L, other or action, labels))
        present = other is None

        def run():
            return L.find_isomorphism(engine, oracle, cap=engine.size)

        def check(iso):
            expect((iso is not None) == present, "isomorphism search gave the wrong answer")
            if iso is not None:
                check_isomorphism(engine, oracle, iso.map)

        return Query("iso_present" if present else "iso_absent", run, check,
                     lambda iso: None if iso is None else iso.map, smoke=engine.size <= 8)

    def wreath_query(h, system):
        def run():
            return L.verify_wreath_iso(h, system)

        def check(report):
            expect(bool(report), f"wreath check failed: {report}")

        return Query("wreath", run, check,
                     lambda r: (r.product_is_group, r.search_iso_found, r.construction_iso_ok),
                     smoke=True)

    def corollary_query():
        def check(report):
            for branch, size in ((report.flip_flop, 3), (report.left_zero, 2)):
                expect(branch.quotient.size == size, f"{branch.name} quotient has the wrong size")
                expect(L.is_congruence(branch.product, branch.partition),
                       f"{branch.name} partition is not a congruence")
                check_isomorphism(branch.quotient, branch.target, branch.iso.map)

        return Query("corollary", lambda: L.corollary_demo(), check,
                     lambda r: json.dumps(r.to_json_dict(), sort_keys=True), smoke=True)

    for name, answers in SMALL_DIVISIONS.items():
        for quotient_only, bits in zip((True, False), answers):
            for target, bit in zip(DIVISION_TARGETS, bits):
                queries.append(divides_query(target, name, quotient_only, bit == "1"))
    for target, name, quotient_only, present in LARGE_DIVISIONS:
        queries.append(divides_query(target, name, quotient_only, present))
    for target in P12_ABSENT_REPEATS:
        queries.append(divides_query(target, "P12", False, False))
    for name in CONGRUENCE_COUNTS:
        queries.append(congruence_query(name))
    for _ in range(2):
        queries.append(iso_query(L.Z2, regular_action(L, L.L2)))
        queries.append(iso_query(L.Z2, regular_action(L, L.Z3)))
        queries.append(iso_query(L.Z2, regular_action(L, L.L2_1)))
        queries.append(iso_query(L.Z2, trivial_action(L, L.JOIN2, 3)))
        # The backtracking cost on this 32-element product ranges over
        # 1000x with the labels, so its labels come from a fixed seed
        # (one that costs about 0.2 s on a 2.1 GHz Xeon).
        fixed = random.Random("iso32-88")
        queries.append(iso_query(L.Z2, involution_action(L, fixed, 4), labels=fixed))
        queries.append(iso_query(L.Z2, regular_action(L, L.Z3), regular_action(L, L.L2_1)))
    for base, sizes in ((L.Z2, (1, 1)), (L.Z2, (2, 2)), (L.Z2, (3, 3)), (L.Z3, (1, 1, 1)), (L.Z3, (2, 2, 2))):
        systems = list(L.enumerate_systems(base, sizes, unital_only=True))
        for h in (L.Z2, L.Z3):
            queries.append(wreath_query(h, relabel_system(L, rng.choice(systems), rng)))
    for _ in range(6):
        queries.append(corollary_query())
    return queries


# ---------------------------------------------------------------------------
# cli: one `lamrho` child process at a time


@dataclass
class Workspace:
    """Where a workload may write files, and how it starts the CLI.

    ``run_cli(args)`` runs one child with ``dir`` as its working directory
    and returns its exit code and standard output.
    """

    dir: str
    run_cli: Callable[[list], tuple]


def build_cli(L, rng, work):
    from lamrho import serialize

    queries = []

    def save(name, doc):
        serialize.dump_json(doc, os.path.join(work.dir, name))
        return name

    def copy(sg):
        return relabel_semigroup(L, sg, shuffled(rng, sg.size))

    def command(kind, args, code, check_out=None, smoke=False):
        def run():
            return work.run_cli(args)

        def check(res):
            got, out = res
            expect(got == code, f"`lamrho {' '.join(args)}` exited {got}, expected {code}")
            if check_out is not None:
                check_out(out.decode("utf-8"))

        queries.append(Query(kind, run, check, lambda res: res, smoke=smoke))

    def prints(text):
        def check_out(out):
            expect(text in out, f"output lacks {text!r}")
        return check_out

    def iso_output(a, b):
        def check_out(out):
            expect(out.startswith("isomorphic via "), "no isomorphism printed")
            check_isomorphism(a, b, json.loads(out[len("isomorphic via "):]))
        return check_out

    def table_output(expected):
        def check_out(out):
            doc = json.loads(out)
            expect(doc["table"] == [list(r) for r in expected.table], "exported table differs")
            expect(doc["names"] == list(expected.names), "exported names differ")
            with open(os.path.join(work.dir, "product.json"), encoding="utf-8") as fh:
                expect(json.load(fh) == doc, "--out file differs from standard output")
        return check_out

    def systems_output(count):
        def check_out(out):
            lines = out.splitlines()
            expect(len(lines) == count, f"{len(lines)} systems printed, expected {count}")
            for line in lines:
                system = serialize.system_from_dict(json.loads(line))
                expect(not L.axiom_violations(system), "printed system violates an axiom")
        return check_out

    catalog = sorted(L.CATALOG)
    sg_files = []
    for i, name in enumerate(catalog):
        sg = copy(L.CATALOG[name])
        sg_files.append((save(f"sg{i}.json", serialize.semigroup_to_dict(sg)), sg))
    flip = relabel_system(L, L.builtin_system("flip_flop"), rng)
    flip_file = save("flip.json", serialize.system_to_dict(flip))
    bad = perturbed(L, rng, [L.builtin_system("flip_flop")], 1)[0]
    bad_file = save("bad.json", serialize.system_to_dict(bad))
    p6 = copy(L.product_table(L.Z2, L.builtin_system("flip_flop")))
    p6_file = save("p6.json", serialize.semigroup_to_dict(p6))
    congruence = next(p for p in L.all_congruences(p6) if 1 < p.num_classes() < p6.size)
    partition = json.dumps([list(c) for c in congruence.classes])
    # ~160 elements: Z3 over the natural two-sided action of a 2-element base
    action = L.natural_two_sided_action(copy(rng.choice([L.L2, L.R2, L.JOIN2, L.MEET2])))
    two_sided_file = save("two_sided.json", serialize.system_to_dict(L.from_two_sided_action(action)))
    big = L.two_sided_wreath_oracle(L.Z3, action)
    big_file = save("big.json", serialize.semigroup_to_dict(big))
    z2_copy = next(f for f, sg in sg_files if sg.size == 2 and L.find_isomorphism(sg, L.Z2))
    enum_seed = str(rng.randrange(10**6))

    for _ in range(7):
        # the lightest command: its latency is the CLI's start-up cost
        command("startup", ["examples"], 0, prints("built-in semigroups:"), smoke=True)
    for f, sg in sg_files:
        command("examples", ["examples", "--base", f], 0, prints(sg.name_of(0)))
        command("validate", ["validate", "--base", f], 0, prints(f"semigroup ok: {sg.size} elements"))
    for _ in range(3):
        command("validate", ["validate", "--system", flip_file], 0, prints("system ok"))
        command("validate", ["validate", "--system", "flipflop_system"], 0, prints("system ok"))
        command("refuted", ["validate", "--system", bad_file], 1)
    for _ in range(4):
        command("corollary", ["corollary"], 0, prints("both quotients re-validate"))
    for f, sg in sg_files:
        other = copy(sg)
        other_file = save(f"iso_{f}", serialize.semigroup_to_dict(other))
        command("iso", ["iso", "--base", f, "--h", other_file], 0, iso_output(sg, other))
    for a, b in (("z2", "join2"), ("l2", "r2"), ("z3", "l2_1"), ("join2", "l2")):
        command("refuted", ["iso", "--base", a, "--h", b], 1, prints("absent"))
    for target, code in (("l2_1", 0), ("join2", 0), ("z2", 0), ("l2", 0), ("z3", 1), ("r2", 1)):
        command("divides", ["divides", "--base", p6_file, "--h", target], code)
        command("divides", ["divides", "--base", p6_file, "--h", target, "--quotient-only"],
                0 if target in ("l2_1", "join2", "z2") else 1)
    for _ in range(4):
        command("quotient", ["quotient", "--base", p6_file, "--partition", partition], 0)
        command("free", ["free", "--sizes", "1,2", "--bound", "3"], 0, prints("axioms ok: True"))
    usage = (
        ["product", "--base", "flipflop_system"],
        ["validate"],
        ["enumerate", "--base", "z2"],
        ["validate", "--base", "missing.json"],
        ["iso", "--base", "z2"],
        ["nosuchcommand"],
    )
    for args in usage:
        command("usage", args, 2, smoke=args == ["validate"])
    # Ten product exports and four re-validations of the exported table are
    # the slowest fourteen commands, so the 90th percentile falls among the
    # equal product exports, not on the edge between two groups of cost.
    for _ in range(10):
        command("product", ["product", "--base", two_sided_file, "--h", "z3",
                            "--format", "json", "--out", "product.json"], 0, table_output(big))
    for _ in range(4):
        command("validate_big", ["validate", "--base", big_file], 0,
                prints(f"semigroup ok: {big.size} elements"))
        command("enumerate", ["enumerate", "--base", z2_copy, "--sizes", "2,2",
                              "--format", "json"], 0, systems_output(16))
        command("enumerate", ["enumerate", "--base", "trivial", "--sizes", "3", "--cap", "30",
                              "--seed", enum_seed, "--format", "json"], 0, systems_output(30))
        command("examples", ["examples", "--system", flip_file, "--format", "json"], 0,
                prints('"index_sizes"'))
    return queries
