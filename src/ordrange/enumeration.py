"""Enumeration of O(n, Y), the monotone self-maps with range in Y.

For a chain of size n and a range set Y, the semigroup consists of all
weakly increasing length-n sequences over the members of Y; there are
C(n+r-1, r-1) of them for r = |Y|.  Enumeration order is fixed as
lexicographic on image sequences so element ids are stable across runs.
``SemigroupTable(n, Y)`` is the one table built on it: O(n, Y) and no
other set of maps.
"""

from __future__ import annotations

import math
import os
from itertools import combinations_with_replacement
from typing import Iterable

from .chain import ChainMap, DomainError, GuardExceeded, RangeSet

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
    """The semigroup O(n, Y) of all monotone maps on {1..n} into Y, with
    id-based products.

    Element ids follow the lexicographic order of image sequences.  The
    product f*g reads g only through its restriction to Y, a monotone
    self-map of Y, so elements with equal restrictions share one product
    column: there are C(2r-1, r-1) columns for r = |Y|, each filled on
    first use.
    """

    def __init__(self, n: int, Y: RangeSet):
        self.n = n
        self.elements: tuple[ChainMap, ...] = tuple(enumerate_elements(n, Y))
        self.index = {el.images: i for i, el in enumerate(self.elements)}
        keys: dict[tuple[int, ...], int] = {}
        self._col_of: list[int] = []  # column id of each element
        self._rep: list[int] = []  # one element id per column
        for i, el in enumerate(self.elements):
            key = tuple(el.images[y - 1] for y in Y.members)
            if key not in keys:
                keys[key] = len(self._rep)
                self._rep.append(i)
            self._col_of.append(keys[key])
        self._cols: list[list[int] | None] = [None] * len(self._rep)

    def _column(self, c: int) -> list[int]:
        """Ids of f * g over all f, for the elements g of column c."""
        col = self._cols[c]
        if col is None:
            pick = (0,) + self.elements[self._rep[c]].images  # 1-based
            index = self.index
            col = self._cols[c] = [index[tuple(map(pick.__getitem__, f.images))]
                                   for f in self.elements]
        return col

    def __len__(self) -> int:
        return len(self.elements)

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

    def is_regular_id(self, a: int) -> bool:
        """Regularity by definition: a*b*a == a for some element b.

        a*b depends on b only through its column, so one b per column
        covers every element.
        """
        col_a = self._column(self._col_of[a])
        return any(col_a[(col or self._column(c))[a]] == a  # None: not filled yet
                   for c, col in enumerate(self._cols))

    def closure(self, generator_ids: Iterable[int]) -> frozenset[int]:
        """Ids of all products of the given generators (any length >= 1).

        A breadth-first search that multiplies each element reached on
        the right by the distinct columns of the generators.
        """
        reached = set(generator_ids)
        for g in reached:
            if not 0 <= g < len(self.elements):
                raise DomainError(f"generator id {g} out of range")
        columns, _ = self.columns_of(reached)
        todo = list(reached)
        for x in todo:  # grows while it is read
            for col in columns:
                p = col[x]
                if p not in reached:
                    reached.add(p)
                    todo.append(p)
        return frozenset(reached)


def enumerate_elements(n: int, Y: RangeSet) -> list[ChainMap]:
    """All monotone maps on {1..n} with values in Y, in lexicographic order."""
    if Y.n != n:
        raise DomainError(f"range set lives on chain {Y.n}, not {n}")
    return [ChainMap(n, seq)
            for seq in combinations_with_replacement(Y.members, n)]


def check_closure_guard(n: int, r: int) -> None:
    """Refuse, before any work, a table of maps into an r-element set
    that is larger than the closure guard."""
    limit = closure_guard()
    total = count_maps(n, r)
    if total > limit:
        raise GuardExceeded(
            f"semigroup has {total} elements, above the guard {limit}")


def enumerate_semigroup(n: int, Y: RangeSet) -> SemigroupTable:
    """The table of O(n, Y) with stable element ids, inside the closure guard."""
    check_closure_guard(n, len(Y))
    return SemigroupTable(n, Y)
