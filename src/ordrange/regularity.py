"""Regular elements and regular semigroups of restricted-range monotone maps.

An element a is regular when a = a*b*a for some b in the same semigroup.
For monotone maps into Y over a finite chain this is equivalent to the
range condition  image(a) == a(Y):  every value of a is already hit from
a point of Y.  The set of all such elements is simultaneously the largest
regular subsemigroup and a right ideal, so a single predicate serves both
roles.
"""

from __future__ import annotations

from .chain import ChainMap, DomainError, RangeSet, image, maps_into
from .enumeration import SemigroupTable, enumerate_elements


def range_image(alpha: ChainMap, Y: RangeSet) -> frozenset[int]:
    """The set of values alpha takes on the points of Y."""
    return frozenset(alpha(y) for y in Y)


def is_regular(alpha: ChainMap, Y: RangeSet) -> bool:
    """True iff image(alpha) equals alpha(Y); alpha must map into Y."""
    if not maps_into(alpha, Y):
        raise DomainError(
            f"{alpha!r} does not map into {list(Y.members)}")
    return range_image(alpha, Y) == frozenset(image(alpha).members)


def is_regular_by_search(alpha: ChainMap, table: SemigroupTable) -> bool:
    """Definition-based oracle: some b in the table satisfies a*b*a == a."""
    return table.is_regular_id(table.id_of(alpha))


def regular_elements(n: int, Y: RangeSet) -> list[ChainMap]:
    """All regular elements, in enumeration order; closed under composition."""
    return [f for f in enumerate_elements(n, Y) if is_regular(f, Y)]


def is_semigroup_regular(n: int, Y: RangeSet) -> bool:
    """Every element regular iff Y is everything, a single point, or {1, n}."""
    if Y.n != n:
        raise DomainError(f"range set lives on chain {Y.n}, not {n}")
    return (
        len(Y) == n
        or len(Y) == 1
        or Y.members == (1, n)
    )


def regularity_conditions(alpha: ChainMap) -> tuple[bool, bool, bool]:
    """Evaluate, literally, the three order-theoretic regularity conditions.

    1. if the image has an upper bound, it has a maximum;
    2. if the image has a lower bound, it has a minimum;
    3. every point outside the image that is neither an upper nor a lower
       bound of the image has a nearest image value on at least one side.

    On a finite chain each condition holds for every map; the point of
    evaluating them literally is to confirm exactly that.
    """
    points = range(1, alpha.n + 1)
    im = sorted(set(alpha.images))

    has_upper = any(all(a <= x for a in im) for x in points)
    has_max = any(all(a <= m for a in im) for m in im)
    cond1 = (not has_upper) or has_max

    has_lower = any(all(x <= a for a in im) for x in points)
    has_min = any(all(m <= a for a in im) for m in im)
    cond2 = (not has_lower) or has_min

    cond3 = True
    for x in points:
        if x in im:
            continue
        if all(a <= x for a in im) or all(x <= a for a in im):
            continue
        below = [a for a in im if a < x]
        above = [a for a in im if x < a]
        if not below and not above:
            cond3 = False
            break
        # max of a nonempty finite set always exists; evaluate anyway
        ok_below = bool(below) and max(below) in below
        ok_above = bool(above) and min(above) in above
        if not (ok_below or ok_above):
            cond3 = False
            break
    return (cond1, cond2, cond3)
