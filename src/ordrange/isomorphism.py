"""When are two of these semigroups isomorphic, and how to find the map.

The classification over finite chains is a trichotomy: the range sets
are both singletons (trivial semigroups), or the chains have equal size
and the range sets are equal, or equal size and mirror images of each
other under the chain reflection.  The brute-force search is kept fully
independent: it assigns images to a generating set, extends through
recorded product expressions, and verifies the whole multiplication
table, so a successful answer is a certified isomorphism.
"""

from __future__ import annotations

from .chain import (
    DomainError,
    GuardExceeded,
    RangeSet,
    constant,
    fixed_points,
    image,
    reflect_set,
)
from .enumeration import SemigroupTable, search_guard


def isomorphism_condition(n1: int, Y: RangeSet, n2: int, Z: RangeSet) -> int | None:
    """Which clause of the classification applies: 1, 2, 3, or None.

    1: both range sets are singletons; 2: equal chains and equal sets;
    3: equal chains and mirror-image sets.
    """
    if Y.n != n1 or Z.n != n2:
        raise DomainError("range sets do not live on the stated chains")
    if len(Y) == 1 and len(Z) == 1:
        return 1
    if n1 == n2 and Y.members == Z.members:
        return 2
    if n1 == n2 and reflect_set(Y).members == Z.members:
        return 3
    return None


def are_isomorphic(n1: int, Y: RangeSet, n2: int, Z: RangeSet) -> bool:
    return isomorphism_condition(n1, Y, n2, Z) is not None


def _profile(table: SemigroupTable, i: int) -> tuple:
    el = table.elements[i]
    idem = table.product(i, i) == i
    return (idem, table.is_regular_id(i), len(image(el)), len(fixed_points(el)))


def _greedy_generators(table: SemigroupTable) -> list[int]:
    gens: list[int] = []
    have: frozenset[int] = frozenset()
    for i in range(len(table)):
        if i not in have:
            gens.append(i)
            have = table.closure(gens)
            if len(have) == len(table):
                break
    return gens


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


def find_isomorphism(S: SemigroupTable, T: SemigroupTable) -> dict[int, int] | None:
    """Search for an isomorphism S -> T; None when there is none.

    Generator images are tried in ascending id order among elements with
    a matching invariant profile (idempotency, regularity, image size,
    fixed-point count), each full assignment is extended through product
    expressions and certified against the whole table, so the first hit
    is deterministic and correct.
    """
    guard = search_guard()
    if len(S) > guard or len(T) > guard:
        raise GuardExceeded(
            f"tables of sizes {len(S)}, {len(T)} above the guard {guard}")
    if len(S) != len(T):
        return None
    prof_s = [_profile(S, i) for i in range(len(S))]
    prof_t = [_profile(T, i) for i in range(len(T))]
    if sorted(prof_s) != sorted(prof_t):
        return None
    gens = _greedy_generators(S)
    order = S.expressions(gens)
    candidates = [
        [t for t in range(len(T)) if prof_t[t] == prof_s[g]] for g in gens
    ]

    def extend(assign: list[int]) -> dict[int, int] | None:
        phi = {g: v for g, v in zip(gens, assign)}
        if len(set(assign)) != len(assign):
            return None
        for entry in order:
            if len(entry) == 1:
                continue
            p, x, g = entry
            v = T.product(phi[x], phi[g])
            if p in phi:
                if phi[p] != v:
                    return None
            else:
                phi[p] = v
        if is_isomorphism(phi, S, T):
            return phi
        return None

    def dfs(k: int, assign: list[int], used: set[int]) -> dict[int, int] | None:
        if k == len(gens):
            return extend(assign)
        for t in candidates[k]:
            if t in used:
                continue
            assign.append(t)
            used.add(t)
            got = dfs(k + 1, assign, used)
            if got is not None:
                return got
            assign.pop()
            used.remove(t)
        return None

    return dfs(0, [], set())


def induced_range_bijection(phi: dict[int, int], S: SemigroupTable,
                            T: SemigroupTable, Y: RangeSet, Z: RangeSet
                            ) -> dict[int, int]:
    """Read the bijection Y -> Z off the images of the constant maps.

    A verified isomorphism must send constants to constants; anything
    else is reported as a broken isomorphism, not a usage error.  The
    result is monotone or antitone, never mixed.
    """
    out: dict[int, int] = {}
    for y in Y:
        cid = S.id_of(constant(S.n, y))
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
