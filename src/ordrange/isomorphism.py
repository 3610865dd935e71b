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
It reads the caller's two tables, through ``columns_of`` only (the search
once per side, a self pair once, the certificate on its own), and refuses,
through ``enumeration.check_guard``, a pair whose larger table is above the
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
    """Full multiplication-table check, a*b read as the column of b at row
    a; columns are unchecked, so a phi not a bijection of 0..N-1 is refused."""
    ids = set(range(len(S)))
    if len(T) != len(S) or phi.keys() != ids or set(phi.values()) != ids:
        return False
    image = [phi[a] for a in range(len(S))]
    s_columns, s_slot = S.columns_of(range(len(S)))
    t_columns, t_slot = T.columns_of(image)  # T's column of phi(b), per b
    return all(list(map(t_columns[t].__getitem__, image))
               == list(map(image.__getitem__, s_columns[s]))
               for s, t in set(zip(s_slot, t_slot)))


def _side(table: SemigroupTable) -> tuple[list[int], list[list[int]]]:
    """Idempotency colours (a*a == a) and columns (b*a over b) of every
    element a, from one ``columns_of`` pass; the search never mutates them."""
    columns, slots = table.columns_of(range(len(table)))
    cols = [columns[s] for s in slots]
    return [int(col[a] == a) for a, col in enumerate(cols)], cols


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
    cs, s_cols = _side(S)
    ct, t_cols = (cs, s_cols) if T is S else _side(T)
    if sorted(cs) != sorted(ct):
        return None
    rows = list(zip(*s_cols))
    tables = [(rows, s_cols), (rows if T is S else list(zip(*t_cols)), t_cols)]
    stack = [[cs, ct]]
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
        pinned = cs[:v] + [fresh] + cs[v + 1:]
        for t in reversed(range(len(ct))):  # the lowest t is popped first
            if ct[t] == cs[v]:
                stack.append([pinned, ct[:t] + [fresh] + ct[t + 1:]])
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
    images, members = list(out.values()), list(Z.members)  # in Y's order
    if sorted(images) != members:
        raise AssertionError("induced map is not a bijection onto the range set")
    if images != members and images[::-1] != members:
        raise AssertionError("induced map is neither monotone nor antitone")
    return out
