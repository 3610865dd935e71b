"""When are two of these semigroups isomorphic, and how to find the map.

The classification over finite chains is a trichotomy: the range sets
are both singletons (trivial semigroups), or the chains have equal size
and the range sets are equal, or equal size and mirror images of each
other under the chain reflection.  The search is kept fully independent
of that classification: it individualizes and refines element colourings
over the two product tables (McKay and Piperno, "Practical graph
isomorphism, II", 2014; Araújo, von Bünau, Mitchell and Neunhöffer,
"Computing automorphisms of semigroups", 2010), returns the
lexicographically least isomorphism, and verifies it against the whole
multiplication table, so a successful answer is a certified isomorphism.
It reads the caller's two tables and refuses, through
``enumeration.check_guard``, a pair whose larger table is above the
search guard; a caller that builds the tables checks that guard first.
"""

from __future__ import annotations

from collections import Counter

from .chain import RangeSet, constant, reflect_set
from .enumeration import SemigroupTable, check_guard, search_guard


def isomorphism_condition(Y: RangeSet, Z: RangeSet) -> int | None:
    """Which clause of the classification applies: 1, 2, 3, or None.

    1: both range sets are singletons; 2: equal chains and equal sets;
    3: equal chains and mirror-image sets.
    """
    if len(Y) == 1 and len(Z) == 1:
        return 1
    if Y == Z:
        return 2
    if reflect_set(Y) == Z:
        return 3
    return None


def are_isomorphic(Y: RangeSet, Z: RangeSet) -> bool:
    return isomorphism_condition(Y, Z) is not None


def is_isomorphism(phi: dict[int, int], S: SemigroupTable, T: SemigroupTable) -> bool:
    """Full multiplication-table check of a candidate bijection."""
    if len(phi) != len(S) or len(set(phi.values())) != len(S) or len(S) != len(T):
        return False
    for a in range(len(S)):
        fa = phi[a]
        for b in range(len(S)):
            if T.product(fa, phi[b]) != phi[S.product(a, b)]:
                return False
    return True


def _product_table(table: SemigroupTable) -> tuple[list, list[list[int]]]:
    """Rows (a*b over b) and columns (b*a over b) of every element a."""
    columns, slots = table.columns_of(range(len(table)))
    cols = [columns[s] for s in slots]
    return list(zip(*cols)), cols


def _each_side(S: SemigroupTable, T: SemigroupTable, build) -> list:
    """[build(S), build(T)], with one build shared by both sides of a self
    pair; the search never mutates what it builds."""
    first = build(S)
    return [first, first if T is S else build(T)]


def _refine(tables, colours):
    """Refine the colourings of S and T together until they are stable.

    The new colour of a is its old colour with the multiset over b of
    (colour b, colour a*b, colour b*a); one naming dict serves both
    tables, so equal names mean equal keys.  None when the two colour
    multisets part ways: no isomorphism respects the colourings.
    """
    count = len(set(colours[0]))
    while True:
        names: dict = {}
        refined = []
        for (rows, cols), c in zip(tables, colours):
            paint = c.__getitem__
            refined.append([names.setdefault((c[a], tuple(sorted(zip(
                c, map(paint, rows[a]), map(paint, cols[a]))))), len(names))
                for a in range(len(c))])
        colours = refined
        if sorted(colours[0]) != sorted(colours[1]):
            return None
        if len(names) == count:
            return colours
        count = len(names)


def find_isomorphism(S: SemigroupTable, T: SemigroupTable) -> dict[int, int] | None:
    """Search for an isomorphism S -> T; None when there is none.

    Individualize and refine over the two product tables.  Elements start
    coloured by idempotency, and the colourings are refined by how colours
    multiply until stable.  The search then branches on the lowest id of
    S whose colour class is not a single element, trying the T elements
    of that colour in ascending id order; both get one fresh colour and
    the colourings are refined again.  A discrete colouring fixes the
    map, which is certified against the whole table.  Every element below
    the branch point already has a forced image and pruning uses only
    isomorphism invariants, so maps are tried in lexicographic order of
    (phi(0), ..., phi(N-1)).  Every isomorphism preserves idempotency, so
    the answer is the lexicographically least isomorphism.
    """
    check_guard(max(len(S), len(T)), search_guard())
    if len(S) != len(T):
        return None
    start = _each_side(S, T, lambda X: [int(X.product(i, i) == i)
                                        for i in range(len(X))])
    if sorted(start[0]) != sorted(start[1]):
        return None
    tables = _each_side(S, T, _product_table)
    stack = [start]
    while stack:
        colours = _refine(tables, stack.pop())
        if colours is None:
            continue
        cs, ct = colours
        sizes = Counter(cs)
        v = next((a for a, c in enumerate(cs) if sizes[c] > 1), None)
        if v is None:
            where = {c: t for t, c in enumerate(ct)}
            phi = {a: where[c] for a, c in enumerate(cs)}
            if is_isomorphism(phi, S, T):
                return phi
            continue
        fresh = len(sizes)
        branches = []
        for t, c in enumerate(ct):
            if c == cs[v]:
                branches.append([cs[:v] + [fresh] + cs[v + 1:],
                                 ct[:t] + [fresh] + ct[t + 1:]])
        stack.extend(reversed(branches))  # pop the lowest t first
    return None


def induced_range_bijection(phi: dict[int, int], S: SemigroupTable,
                            T: SemigroupTable) -> dict[int, int]:
    """Read the bijection Y -> Z off the images of the constant maps.

    A verified isomorphism must send constants to constants; anything
    else is reported as a broken isomorphism, not a usage error.  The
    result is monotone or antitone, never mixed.
    """
    Y, Z = S.range_set, T.range_set
    out: dict[int, int] = {}
    for y in Y:
        cid = S.id_of(constant(Y.n, y))
        target = T.elements[phi[cid]]
        vals = set(target.images)
        if len(vals) != 1:
            raise AssertionError(
                f"isomorphism sends the constant at {y} to {target!r}, "
                "which is not constant")
        out[y] = next(iter(vals))
    if sorted(out.values()) != list(Z.members):
        raise AssertionError("induced map is not a bijection onto the range set")
    return out
