"""Regular elements and regular semigroups of restricted-range monotone maps.

An element a is regular when a = a*b*a for some b in the same semigroup.
For monotone maps into Y over a finite chain this is equivalent to the
range condition  image(a) == a(Y):  every value of a is already hit from
a point of Y.  The set of all such elements is simultaneously the largest
regular subsemigroup and a right ideal, so a single predicate serves both
roles.
"""

from __future__ import annotations

from .chain import ChainMap, DomainError, RangeSet, maps_into
from .enumeration import SemigroupTable, enumerate_elements


def is_regular(alpha: ChainMap, Y: RangeSet) -> bool:
    """True iff image(alpha) equals alpha(Y); alpha must map into Y."""
    if not maps_into(alpha, Y):
        raise DomainError(
            f"{alpha!r} does not map into {list(Y.members)}")
    return {alpha.images[y - 1] for y in Y.members} == set(alpha.images)


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
