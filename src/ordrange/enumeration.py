"""Enumeration of the semigroup of monotone self-maps with restricted range.

For a chain of size n and a range set Y, the semigroup consists of all
weakly increasing length-n sequences over the members of Y; there are
C(n+r-1, r-1) of them for r = |Y|.  Enumeration order is fixed as
lexicographic on image sequences so element ids are stable across runs.
"""

from __future__ import annotations

import math
import os
from itertools import combinations_with_replacement
from typing import Iterable, Sequence

from .chain import (
    ChainMap,
    DomainError,
    GuardExceeded,
    RangeSet,
    identity,
)

DEFAULT_SEARCH_GUARD = 60
DEFAULT_CLOSURE_GUARD = 5000


def _env_guard() -> int | None:
    """ORDRANGE_MAX_ELEMENTS as a positive integer, or None when unset."""
    raw = os.environ.get("ORDRANGE_MAX_ELEMENTS")
    if raw is None:
        return None
    try:
        value = int(raw)
        if value > 0:
            return value
    except ValueError:
        pass
    raise DomainError(
        f"ORDRANGE_MAX_ELEMENTS must be a positive integer, got {raw!r}")


def search_guard() -> int:
    """Element-count limit for subset searches; the env value replaces it."""
    override = _env_guard()
    return DEFAULT_SEARCH_GUARD if override is None else override


def closure_guard() -> int:
    """Element-count limit for closure computations; the env value can
    raise it but never lower it."""
    override = _env_guard()
    return max(DEFAULT_CLOSURE_GUARD, override or 0)


def count_maps(n: int, r: int) -> int:
    """Number of monotone maps on {1..n} with values in an r-element set."""
    if n < 1:
        raise DomainError(f"chain size must be positive, got {n}")
    if not 1 <= r <= n:
        raise DomainError(f"range size {r} outside 1..{n}")
    return math.comb(n + r - 1, r - 1)


class SemigroupTable:
    """An enumerated finite semigroup of ChainMaps with id-based products.

    Elements are pairwise distinct and the set must be closed under
    composition.  Every element takes its values in U, the union of all
    their values, so the product f*g reads g only through its
    restriction to U: elements with equal restrictions share one product
    column, and there are at most C(2|U|-1, |U|-1) columns.  A column is
    filled on first use.  N distinct maps into U with N = C(n+|U|-1, |U|-1)
    are all of them, hence closed; any other element list has every
    column filled at construction, which is its closure check.
    """

    def __init__(self, elements: Sequence[ChainMap]):
        self.elements: tuple[ChainMap, ...] = tuple(elements)
        if not self.elements:
            raise DomainError("a semigroup table needs at least one element")
        self.n = self.elements[0].n
        self.index: dict[tuple[int, ...], int] = {}
        for i, el in enumerate(self.elements):
            if el.n != self.n:
                raise DomainError("mixed chain sizes in one table")
            if el.images in self.index:
                raise DomainError(f"duplicate element {el!r}")
            self.index[el.images] = i
        ident = identity(self.n).images
        self.has_identity = ident in self.index
        values = sorted({v for el in self.elements for v in el.images})
        keys: dict[tuple[int, ...], int] = {}
        self._col_of: list[int] = []  # column id of each element
        self._rep: list[int] = []  # one element id per column
        for i, el in enumerate(self.elements):
            key = tuple(el.images[u - 1] for u in values)
            if key not in keys:
                keys[key] = len(self._rep)
                self._rep.append(i)
            self._col_of.append(keys[key])
        self._cols: list[list[int] | None] = [None] * len(self._rep)
        if len(self.elements) != count_maps(self.n, len(values)):
            for c in range(len(self._cols)):
                self._column(c)  # raises if any product escapes

    def _column(self, c: int) -> list[int]:
        """Ids of f * g over all f, for the elements g of column c."""
        col = self._cols[c]
        if col is None:
            pick = (0,) + self.elements[self._rep[c]].images  # 1-based
            index = self.index
            try:
                col = [index[tuple(map(pick.__getitem__, f.images))]
                       for f in self.elements]
            except KeyError:
                raise DomainError(
                    "a product escapes the table; not closed") from None
            self._cols[c] = col
        return col

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def id_of(self, el: ChainMap) -> int:
        try:
            return self.index[el.images]
        except KeyError:
            raise DomainError(f"{el!r} is not an element of this table") from None

    def product(self, i: int, j: int) -> int:
        """Id of elements[i] followed by elements[j]."""
        col = self._cols[self._col_of[j]]
        if col is None:
            col = self._column(self._col_of[j])
        return col[i]

    def columns_of(self, ids: Iterable[int]) -> tuple[list[list[int]], list[int]]:
        """The distinct product columns of the given right factors.

        Returns the columns, each listing the ids of f * g over all f for
        the elements g that share it, and for each id in ``ids`` the
        position of its column in that list.  Columns are filled on demand.
        """
        position: dict[int, int] = {}
        columns: list[list[int]] = []
        slots = []
        for g in ids:
            c = self._col_of[g]
            if c not in position:
                position[c] = len(columns)
                columns.append(self._column(c))
            slots.append(position[c])
        return columns, slots

    def identity_id(self) -> int | None:
        if not self.has_identity:
            return None
        return self.index[identity(self.n).images]

    def is_regular_id(self, a: int) -> bool:
        """Regularity by definition: a*b*a == a for some element b.

        a*b depends on b only through its column, so one b per column
        covers every element.
        """
        col_a = self._column(self._col_of[a])
        return any(col_a[(col or self._column(c))[a]] == a  # None: not filled yet
                   for c, col in enumerate(self._cols))

    def expressions(self, generator_ids: Iterable[int]) -> list[tuple[int, ...]]:
        """Breadth-first closure of the generators, in discovery order.

        Each entry is (g,) for a generator, in ascending id order, or
        (p, x, g) for an element p first reached as x * g, where x
        appears earlier in the order and g is a generator.
        """
        gens = sorted(set(generator_ids))
        for g in gens:
            if not 0 <= g < len(self.elements):
                raise DomainError(f"generator id {g} out of range")
        order: list[tuple[int, ...]] = [(g,) for g in gens]
        right = [(g, self._column(self._col_of[g])) for g in gens]
        seen = set(gens)
        frontier = gens
        while frontier:
            fresh = []
            for x in frontier:
                for g, col in right:
                    p = col[x]
                    if p not in seen:
                        seen.add(p)
                        order.append((p, x, g))
                        fresh.append(p)
            frontier = fresh
        return order

    def closure(self, generator_ids: Iterable[int]) -> frozenset[int]:
        """Ids of all products of the given generators (any length >= 1)."""
        return frozenset(entry[0] for entry in self.expressions(generator_ids))


def enumerate_elements(n: int, Y: RangeSet) -> list[ChainMap]:
    """All monotone maps on {1..n} with values in Y, in lexicographic order."""
    if Y.n != n:
        raise DomainError(f"range set lives on chain {Y.n}, not {n}")
    return [ChainMap(n, seq)
            for seq in combinations_with_replacement(Y.members, n)]


def enumerate_semigroup(n: int, Y: RangeSet) -> SemigroupTable:
    """SemigroupTable of all monotone maps into Y, with stable element ids."""
    limit = closure_guard()
    total = count_maps(n, len(Y))
    if total > limit:
        raise GuardExceeded(
            f"semigroup has {total} elements, above the guard {limit}")
    return SemigroupTable(enumerate_elements(n, Y))
