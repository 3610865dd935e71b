"""Cross-validation battery: every characterization against its oracle.

One pass over the requested range sets builds each set's table once and
its generating set once, in the first check that asks for it, and hands
both to every check; each check is a per-set sweep of failure details
and reports one ok/FAIL line, with the first failure it met.  Every check
can fail: facts that hold by construction on a finite chain are not
swept.  The canonical order-isomorphism is certified inside the
semigroup: each element a and the first element c of its kernel class
are joined by the extension s of the fiber-matching bijection, which
must map into Y, and the composite a * s must give c (and back), a
witness that a R c.
Checks whose cost explodes with the chain size are skipped (with a note)
beyond the sizes they are meant for; a skip is not a failure.  The
pairwise isomorphism sweep covers every range set whose table is inside
the search guard.  The closure guard is applied to the largest requested
set before any work starts; for a sweep of every set that is the whole
chain.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations

from .chain import PartialMap, RangeSet, image, kernel, maps_into
from .completability import (
    build_extension,
    canonical_order_isomorphism,
    count_extensions,
    is_completable,
)
from .enumeration import (
    check_guard,
    closure_guard,
    count_maps,
    enumerate_semigroup,
    search_guard,
)
from .generators import (
    captive_set,
    generates,
    minimum_generating_set,
    rank_by_formula,
    rank_by_search,
)
from .green import RELATIONS, green_classes, green_classes_by_ideals
from .isomorphism import are_isomorphic, find_isomorphism
from .regularity import is_regular, is_regular_by_search, is_semigroup_regular
from .words import express_in_generators

# raised to 210 it takes in the six n = 6, r = 5 sets (~21 ms oracle, ~7 ms
# green_key each), doubling verify_battery's op_p90_ms: 14 -> 30 ms on 2 cores
GREEN_LIMIT = 130          # largest table the green-oracle sweep covers
COMPLETABILITY_LIMIT = 5   # chain size cap for the partial-map sweep
WORDS_LIMIT = 5            # chain size cap for full word reconstruction
BRUTE_RANK_LIMIT = 21      # table size cap for the subset-search oracle here


def _all_range_sets(n: int) -> list[RangeSet]:
    out = []
    for size in range(1, n + 1):
        for members in combinations(range(1, n + 1), size):
            out.append(RangeSet(n, members))
    return out


def run_all(n: int, sets: list[RangeSet] | None = None) -> dict:
    largest = n if sets is None else max(map(len, sets), default=1)
    check_guard(count_maps(n, largest), closure_guard())  # refuses n < 1
    Ys = _all_range_sets(n) if sets is None else sets
    guard = search_guard()
    brute_cap = min(BRUTE_RANK_LIMIT, guard)

    def searchable(Y: RangeSet) -> bool:
        return count_maps(n, len(Y)) <= brute_cap

    def cardinality(Y, table, generating_set):
        if len(table) != count_maps(n, len(Y)):
            yield f"wrong count for {Y!r}"

    def regularity(Y, table, generating_set):
        where = f"Y={list(Y.members)}"
        ids = [table.id_of(g) for g in generating_set().elements()]
        flags = [is_regular(f, Y) for f in table.elements]
        for f, flag, found in zip(table.elements, flags,
                                  is_regular_by_search(table, ids)):
            if flag != found:
                yield f"{f!r} in {where}"
        if is_semigroup_regular(n, Y) != all(flags):
            yield f"trichotomy wrong for {where}"
        # closed under right products by generators: a right ideal of S
        reg = [a for a, flag in enumerate(flags) if flag]
        columns, _ = table.columns_of(ids)
        if not all(flags[col[a]] for col in columns for a in reg):
            yield f"right ideal breaks in {where}"

    def green(Y, table, generating_set):
        if len(table) > GREEN_LIMIT:
            return
        where = f"Y={list(Y.members)}"
        oracle = {}
        for rel in RELATIONS:
            oracle[rel] = green_classes_by_ideals(rel, table)
            if green_classes(rel, table, Y) != oracle[rel]:
                yield f"{rel} differs for {where}"
        if len(oracle["H"]) != len(table):
            yield f"H not trivial for {where}"
        if oracle["D"] != oracle["J"]:
            yield f"D != J for {where}"

    def completability(Y, table, generating_set):
        # grouped by their images on a domain, the elements are the
        # extension lists of the partial maps on it, in id order
        for k in range(1, n + 1):
            for dom in combinations(range(1, n + 1), k):
                exts: dict = {}  # images on dom -> elements with them
                for f in table.elements:
                    exts.setdefault(tuple([f.images[d - 1] for d in dom]),
                                    []).append(f)
                if len(exts) < math.comb(k + len(Y) - 1, k):
                    yield (f"finite chain refused a map on {list(dom)} "
                           f"into Y={list(Y.members)}")
                for img, group in exts.items():
                    theta = PartialMap(n, dom, img)
                    if (not is_completable(theta, Y)
                            or build_extension(theta, Y) not in group
                            or count_extensions(theta, Y) != len(group)):
                        yield f"{theta!r} into Y={list(Y.members)}"

    def rank_constructed(Y, table, generating_set):
        where = f"Y={list(Y.members)}"
        gens = generating_set()
        if not generates(gens.elements(), table):
            yield f"constructed set fails to generate {where}"
        # for Y = {1} or {n} the captive set is nonempty, yet the constant
        # alone generates: the criterion holds for 1 < r < n only
        if 1 < len(Y) < n and (not captive_set(n, Y)) != generates(
                [g.element for g in gens.members if g.kind == "full_image"],
                table):
            yield f"captive-empty criterion fails for {where}"

    def rank_search(Y, table, generating_set):
        if searchable(Y) and rank_by_search(table) != rank_by_formula(n, Y):
            yield f"search disagrees for Y={list(Y.members)}"

    def words(Y, table, generating_set):
        r = len(Y)
        if not 1 < r < n:
            return
        gens = generating_set()
        for f in table.elements:
            if len(image(f)) == r:
                continue
            try:
                express_in_generators(f, gens)
            except AssertionError as exc:
                yield f"{f!r} in Y={list(Y.members)}: {exc}"

    def canonical(Y, table, generating_set):
        els = table.elements
        first: dict = {}  # kernel -> id of its first element
        for a, f in enumerate(els):
            c = first.setdefault(kernel(f).boundaries, a)
            for x, y in ((a, c), (c, a)):
                s = build_extension(
                    canonical_order_isomorphism(els[x], els[y]), Y)
                if (s is None or not maps_into(s, Y) or els[y].images
                        != tuple(s.images[v - 1] for v in els[x].images)):
                    yield f"roundtrip fails in Y={list(Y.members)}"

    def isomorphism(Y, table, generating_set):
        if Y.members not in small:
            return
        for Z, T in small.values():
            expected = are_isomorphic(n, Y, n, Z)
            if expected != (find_isomorphism(table, T) is not None):
                yield f"Y={list(Y.members)} Z={list(Z.members)}"

    def capped(name, sweep, limit):
        if n <= limit:
            return name, sweep, ""
        return name, None, f"skipped for n > {limit}"

    oversize = sum(count_maps(n, len(Y)) > GREEN_LIMIT for Y in Ys)
    checks = [
        ("cardinality", cardinality, f"{len(Ys)} sets"),
        ("regularity-oracle-equivalence", regularity, ""),
        ("green-oracle-equivalence", green,
         f"skipped {oversize} oversize sets" if oversize else ""),
        capped("completability-criterion", completability, COMPLETABILITY_LIMIT),
        ("rank-constructed", rank_constructed, ""),
        ("rank-search", rank_search,
         f"{sum(map(searchable, Ys))} sets within guard"),
        capped("word-reconstruction", words, WORDS_LIMIT),
        ("canonical-order-isomorphism", canonical, ""),
    ]
    small: dict = {}  # the tables the pairwise search sweep reads
    if sets is None:
        small = {Y.members: (Y, enumerate_semigroup(n, Y)) for Y in Ys
                 if count_maps(n, len(Y)) <= guard}
        above = len(Ys) - len(small)
        checks.append(("isomorphism-classification", isomorphism,
                       f"skipped {above} sets above the search guard"
                       if above else ""))
    pairs = (small.get(Y.members) or (Y, enumerate_semigroup(n, Y)) for Y in Ys)

    first_failure: dict[str, str] = {}
    for Y, table in pairs:
        generating_set = functools.cache(
            functools.partial(minimum_generating_set, n, Y, check=False))
        for name, sweep, _ in checks:
            if sweep is not None and name not in first_failure:
                try:
                    detail = next(sweep(Y, table, generating_set), None)
                except AssertionError as exc:  # a construction's own check
                    detail = f"{exc} for Y={list(Y.members)}"
                if detail is not None:
                    first_failure[name] = detail

    lines = []
    for name, _, note in checks:
        detail = first_failure.get(name, note)
        tag = "FAIL" if name in first_failure else "ok  "
        suffix = f"  ({detail})" if detail else ""
        lines.append(f"{tag} {name}{suffix}")
    return {"lines": lines, "checks": len(checks), "failures": len(first_failure)}
