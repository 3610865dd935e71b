"""Cross-validation battery: every characterization against its oracle.

One pass over the requested range sets builds each set's table once and
its generating set once, in the first check that asks for it, and hands
both to every check; each check is a per-set sweep of failure details
and reports one ok/FAIL line, with the first failure it met.  Every check
can fail: facts that hold by construction on a finite chain are not
swept.  The canonical order-isomorphism is certified inside the
semigroup: each element a and the first element c of its kernel class
are joined by the extension s of the fiber-matching bijection, which
must map into Y, and a * s must give c (and back unless a is c), a
witness that a R c.  For kernel-equal maps the bijection is the order
isomorphism between the two images, so it and its extension are built
once per distinct pair of images in a table, and every element is
checked against them; s is injective on the image of a, so a * s = c
still fails when a and c have different kernels.  The green sweep keys
every element under all five relations in one pass
(``green.green_partitions``) and compares with the oracle's five.
Coverage has one rule: each check names the range sets it covers and
the cap that skips the rest, and its line counts the sets it skipped:
``ok   <name>  (skipped K of M sets: <cap>)``, with no note when K = 0.
A skip is not a failure.  Before any work starts a requested set on
another chain is refused, and the closure guard is applied to the largest
requested set; for --all that is the whole chain.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from itertools import combinations

from .chain import (ChainMap, DomainError, PartialMap, RangeSet,
                    check_on_chain, kernel, maps_into, values)
from .completability import (
    build_extension,
    canonical_order_isomorphism,
    count_extensions,
    is_completable,
)
from .enumeration import (
    DEFAULT_SEARCH_GUARD,
    check_guard,
    closure_guard,
    count_maps,
    enumerate_semigroup,
    search_guard,
)
from .generators import (
    FULL_IMAGE,
    captive_set,
    generates,
    minimum_generating_set,
    rank_by_formula,
    rank_by_search,
)
from .green import RELATIONS, green_partitions, green_partitions_by_ideals
from .isomorphism import are_isomorphic, find_isomorphism
from .regularity import is_regular, is_regular_by_search, is_semigroup_regular
from .words import express_in_generators

# The caps on what a check covers, each with the cost of lifting it (two
# cores, CPU time, best of 7 interleaved runs; BENCH_27.json:
# verify_battery p90 op 6.7 ms, pass 0.39 s)
GREEN_LIMIT = 130          # at 210: +8 ms on each of the six (6, r = 5) sets
COMPLETABILITY_LIMIT = 5   # at n = 6: run_all(6) 0.29 s -> 1.06 s
WORDS_LIMIT = 5            # at n = 6: run_all(6) 0.27 s -> 0.45 s
BRUTE_RANK_LIMIT = 21      # at 60: +107 ms per verify_battery pass


def _all_range_sets(n: int) -> list[RangeSet]:
    out = []
    for size in range(1, n + 1):
        for members in combinations(range(1, n + 1), size):
            out.append(RangeSet(n, members))
    return out


def _extension_images(alpha: ChainMap, beta: ChainMap, Y: RangeSet
                      ) -> tuple[int, ...] | None:
    """The images of the least extension of the fiber-matching bijection
    from alpha to beta, or None when the kernels differ, there is no
    extension or it leaves Y."""
    try:
        theta = canonical_order_isomorphism(alpha, beta)
    except DomainError:  # kernels differ
        return None
    s = build_extension(theta, Y)
    return s.images if s is not None and maps_into(s, Y) else None


def run_all(n: int, sets: list[RangeSet] | None = None) -> dict:
    for Y in sets or ():
        check_on_chain(n, Y)
    largest = n if sets is None else max(map(len, sets), default=1)
    check_guard(count_maps(n, largest), closure_guard())  # refuses n < 1
    Ys = _all_range_sets(n) if sets is None else sets
    guard = search_guard()

    def everywhere(Y):
        return True

    def tables_within(limit):
        return lambda Y: count_maps(n, len(Y)) <= limit, f"table above {limit}"

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
        if is_semigroup_regular(Y) != all(flags):
            yield f"trichotomy wrong for {where}"
        # closed under right products by generators: a right ideal of S
        reg = [a for a, flag in enumerate(flags) if flag]
        columns, _ = table.columns_of(ids)
        if not all(flags[col[a]] for col in columns for a in reg):
            yield f"right ideal breaks in {where}"

    def green(Y, table, generating_set):
        where = f"Y={list(Y.members)}"
        oracle = green_partitions_by_ideals(table, RELATIONS)
        characterized = green_partitions(table, RELATIONS)
        for rel in RELATIONS:
            if characterized[rel] != oracle[rel]:
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
        # alone generates: the criterion holds for r > 1 only
        if len(Y) > 1 and (not captive_set(Y)) != generates(
                [g.element for g in gens.members if g.kind == FULL_IMAGE],
                table):
            yield f"captive-empty criterion fails for {where}"

    def rank_search(Y, table, generating_set):
        if rank_by_search(table) != rank_by_formula(Y):
            yield f"search disagrees for Y={list(Y.members)}"

    def words(Y, table, generating_set):
        gens = generating_set()
        for f in table.elements:
            if len(values(f)) == len(Y):
                continue
            try:
                express_in_generators(f, gens)
            except AssertionError as exc:
                yield f"{f!r} in Y={list(Y.members)}: {exc}"

    def canonical(Y, table, generating_set):
        els = table.elements
        vals = [values(f) for f in els]
        first: dict = {}  # kernel -> id of its first element
        # (values x, values y) -> images of the extension into Y, or None:
        # the bijection is the order isomorphism between the two images
        extensions: dict = {}
        for a, f in enumerate(els):
            c = first.setdefault(kernel(f).boundaries, a)
            for x, y in ((a, c), (c, a)) if a != c else ((c, c),):
                key = (vals[x], vals[y])
                if key not in extensions:
                    extensions[key] = _extension_images(els[x], els[y], Y)
                s = extensions[key]
                if s is None or els[y].images != tuple(
                        s[v - 1] for v in els[x].images):
                    yield f"roundtrip fails in Y={list(Y.members)}"

    def isomorphism(Y, table, generating_set):
        for Z, T in peers.values():
            expected = are_isomorphic(Y, Z)
            if expected != (find_isomorphism(table, T) is not None):
                yield f"Y={list(Y.members)} Z={list(Z.members)}"

    checks = [  # name, sweep, the sets it covers, the cap that skips the rest
        ("cardinality", cardinality, everywhere, ""),
        ("regularity-oracle-equivalence", regularity, everywhere, ""),
        ("green-oracle-equivalence", green, *tables_within(GREEN_LIMIT)),
        ("completability-criterion", completability,
         lambda Y: n <= COMPLETABILITY_LIMIT, f"n > {COMPLETABILITY_LIMIT}"),
        ("rank-constructed", rank_constructed, everywhere, ""),
        ("rank-search", rank_search,
         *tables_within(min(BRUTE_RANK_LIMIT, guard))),
        ("word-reconstruction", words,
         lambda Y: len(Y) < n and n <= WORDS_LIMIT,
         f"the whole chain, or n > {WORDS_LIMIT}"),
        ("canonical-order-isomorphism", canonical, everywhere, ""),
    ]
    peers: dict = {}  # the tables the pairwise search sweep compares
    if sets is None:
        covered, cap = tables_within(min(DEFAULT_SEARCH_GUARD, guard))
        checks.append(("isomorphism-classification", isomorphism, covered, cap))
        peers = {Y.members: (Y, enumerate_semigroup(Y)) for Y in Ys
                 if covered(Y)}
    pairs = (peers.get(Y.members) or (Y, enumerate_semigroup(Y)) for Y in Ys)

    first_failure: dict[str, str] = {}
    skipped: Counter = Counter()
    for Y, table in pairs:
        generating_set = functools.cache(
            functools.partial(minimum_generating_set, n, Y, check=False))
        for name, sweep, covers, _ in checks:
            if not covers(Y):
                skipped[name] += 1
            elif name not in first_failure:
                try:
                    detail = next(sweep(Y, table, generating_set), None)
                except AssertionError as exc:  # a construction's own check
                    detail = f"{exc} for Y={list(Y.members)}"
                if detail is not None:
                    first_failure[name] = detail

    lines = []
    for name, sweep, _, cap in checks:
        tag, note = "ok  ", ""
        if name in first_failure:
            tag, note = "FAIL", first_failure[name]
        elif skipped[name]:
            note = f"skipped {skipped[name]} of {len(Ys)} sets: {cap}"
        elif sweep is cardinality:
            note = f"{len(Ys)} sets"
        lines.append(f"{tag} {name}  ({note})" if note else f"{tag} {name}")
    return {"lines": lines, "checks": len(checks), "failures": len(first_failure)}
