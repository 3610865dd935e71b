"""Regular elements and regular semigroups of restricted-range monotone maps.

An element a is regular when a = a*b*a for some b in the same semigroup.
For monotone maps into Y over a finite chain this is equivalent to the
range condition  image(a) == a(Y):  every value of a is already hit from
a point of Y.  The set of all such elements is simultaneously the largest
regular subsemigroup and a right ideal, so a single predicate serves both
roles.  The definition-based oracle calls a regular iff its R-class, its
``enumeration.cayley_labels`` R label, holds an idempotent (Howie,
*Fundamentals of Semigroup Theory*, 1995, Prop. 2.3.2).
"""

from __future__ import annotations

from .chain import ChainMap, RangeSet, check_maps_into
from .enumeration import SemigroupTable, cayley_labels, enumerate_elements


def is_regular(alpha: ChainMap, Y: RangeSet) -> bool:
    """True iff image(alpha) equals alpha(Y); alpha must map into Y."""
    check_maps_into(alpha, Y)
    return {alpha.images[y - 1] for y in Y.members} == set(alpha.images)


def is_regular_by_search(table: SemigroupTable,
                         generator_ids: list[int]) -> list[bool]:
    """One flag per element id, reading only the generators' columns;
    AssertionError unless the ids generate the table."""
    labels = cayley_labels(table, generator_ids, "R")["R"]
    holding = {k for k, f in zip(labels, table.elements) if f.is_idempotent()}
    return [k in holding for k in labels]


def regular_elements(Y: RangeSet) -> list[ChainMap]:
    """All regular elements in enumeration order, inside the closure guard."""
    return [f for f in enumerate_elements(Y) if is_regular(f, Y)]


def is_semigroup_regular(Y: RangeSet) -> bool:
    """Every element regular iff Y is everything, a single point, or {1, n}."""
    return (
        len(Y) == Y.n
        or len(Y) == 1
        or Y.members == (1, Y.n)
    )
