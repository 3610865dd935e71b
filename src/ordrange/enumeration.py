"""Enumeration of O(n, Y), the monotone self-maps with range in Y.

For a chain of size n and a range set Y, the semigroup consists of all
weakly increasing length-n sequences over the members of Y; there are
C(n+r-1, r-1) of them for r = |Y|.  Enumeration order is fixed as
lexicographic on image sequences so element ids are stable across runs.
``SemigroupTable(Y)`` is the one table built on it: O(n, Y) on the
chain of Y and no other set of maps, keeping Y as ``range_set``.  Its
ids are lexicographic ranks computed as sums of per-position weights,
and each product column is filled by suffix sums over the lexicographic
trie of the elements, with no lookup per element.
``check_guard`` is the one element-count refusal: a caller hands it the
size of the table it is about to build or search.  The subset searches
read tables their callers built, so a caller needs one table per range
set.  ``cayley_labels`` serves both definition-based oracles.
"""

from __future__ import annotations

import math
import os
from itertools import accumulate, combinations_with_replacement
from typing import Iterable, Sequence

from .chain import ChainMap, DomainError, GuardExceeded, RangeSet, check_int

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
    check_int(n, "chain size")
    check_int(r, "range size")
    if n < 1:
        raise DomainError(f"chain size must be positive, got {n}")
    if not 1 <= r <= n:
        raise DomainError(f"range size {r} outside 1..{n}")
    return math.comb(n + r - 1, r - 1)


class SemigroupTable:
    """The semigroup O(n, Y) of all monotone maps on {1..n} into Y, with
    id-based products; n is the chain Y lives on.

    Element ids follow the lexicographic order of image sequences, and an
    id is computed, not looked up: it is the rank of the sequence in the
    combinatorial number system (Knuth, TAOCP 4A, 7.2.1.3).  For image
    indices a_0 <= ... <= a_{n-1} into Y = {y_0 < ... < y_{r-1}} the rank
    is sum_i Q[i][a_i], with Q[i][v] = P_i(v) - P_{i+1}(v), where
    P_i(v) = sum_{w<v} C(n-i-1 + r-1-w, n-i-1) counts the weakly
    increasing index sequences on positions i..n-1 that start below v,
    and P_n = 0.

    The product f*g reads g only through its restriction to Y, a monotone
    self-map b of the indices of Y, so elements with equal restrictions
    share one product column: there are C(2r-1, r-1) columns, each filled
    on first use.  The id of f*g is sum_i Q[i][b[a_i]], so a column is
    filled by walking the lex trie of the elements from the last position
    to the first, keeping for each value v the suffix sums of the
    sequences that start at v or above, in lexicographic order.
    """

    def __init__(self, Y: RangeSet):
        self.range_set = Y
        self.elements: tuple[ChainMap, ...] = tuple(enumerate_elements(Y))
        n, members, r = Y.n, Y.members, len(Y)
        prefix = [list(accumulate((math.comb(n - i - 1 + r - 1 - w, n - i - 1)
                                   for w in range(r - 1)), initial=0))
                  for i in range(n)] + [[0] * r]
        self._q = [[p - p1 for p, p1 in zip(prefix[i], prefix[i + 1])]
                   for i in range(n)]
        self._weights = [dict(zip(members, row)) for row in self._q]
        self._ids = list(range(len(self.elements)))  # one int object per id
        pos = {y: v for v, y in enumerate(members)}
        columns: dict[tuple[int, ...], int] = {}  # restriction -> column id
        self._col_of = [columns.setdefault(
            tuple([pos[f.images[y - 1]] for y in members]), len(columns))
            for f in self.elements]
        self._restriction = list(columns)  # b of each column, as indices
        self._cols: list[list[int] | None] = [None] * len(columns)

    def _column(self, c: int) -> list[int]:
        """Ids of f * g over all f, for the elements g of column c."""
        col = self._cols[c]
        if col is None:
            b = self._restriction[c]
            r = len(b)
            # below[v]: the suffix sums, in lex order, of the suffixes
            # after position i whose first value is v or above
            below: list[list[int]] = [[0]] * r
            for q in reversed(self._q[1:]):
                acc: list[int] = []
                level = []
                for v in range(r - 1, -1, -1):
                    k = q[b[v]]
                    acc = [k + s for s in below[v]] + acc
                    level.append(acc)
                below = level[::-1]
            q, ids = self._q[0], self._ids
            col = []
            for v in range(r):
                k = q[b[v]]
                col += [ids[k + s] for s in below[v]]
            self._cols[c] = col
        return col

    def __len__(self) -> int:
        return len(self.elements)

    def id_of(self, el: ChainMap) -> int:
        if el.n == self.range_set.n:
            try:
                return sum(map(dict.__getitem__, self._weights, el.images))
            except KeyError:
                pass
        raise DomainError(f"{el!r} is not an element of this table")

    def product(self, i: int, j: int) -> int:
        """Id of elements[i] then elements[j]; a public, checked accessor."""
        size = len(self._ids)
        if not (0 <= i < size and 0 <= j < size):
            raise DomainError(f"element ids {i}, {j}: not both in 0..{size - 1}")
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
            if not 0 <= g < len(self._ids):
                raise DomainError(
                    f"element id {g} outside 0..{len(self._ids) - 1}")
            c = self._col_of[g]
            if c not in position:
                position[c] = len(columns)
                columns.append(self._column(c))
            slots.append(position[c])
        return columns, slots

    def closure(self, generator_ids: Iterable[int]) -> frozenset[int]:
        """Ids of all products of the given generators (any length >= 1).

        A breadth-first search that multiplies each element reached on
        the right by the distinct columns of the generators; ids that
        already cover the table are returned at once.
        """
        reached = set(generator_ids)
        if len(reached) == len(self._ids) and reached.issuperset(self._ids):
            return frozenset(reached)
        columns, _ = self.columns_of(reached)
        todo = list(reached)
        for x in todo:  # grows while it is read
            for col in columns:
                p = col[x]
                if p not in reached:
                    reached.add(p)
                    todo.append(p)
        return frozenset(reached)


def cayley_labels(table: SemigroupTable, generator_ids: Sequence[int],
                  sides: Iterable[str]) -> dict[str, list[int]]:
    """Strongly connected component labels of the table's Cayley graphs,
    whose reachability is principal-ideal containment (the empty path is
    the adjoined identity), for each side asked: "R" on right edges
    a -> a*g over the ids' columns, the same components for every
    generating set; "L" on left edges a -> s*a, the entries of a's
    column, through one hub node per column; "J" on both.  One
    ``columns_of`` pass.  AssertionError unless the ids generate."""
    if len(table.closure(generator_ids)) != len(table):
        raise AssertionError("the ids do not generate the table")
    sides, size = set(sides), len(table)
    if sides <= {"R"}:
        columns, _ = table.columns_of(generator_ids)
    else:  # the left edges read every column; the right ones the ids'
        every, slot = table.columns_of(range(size))
        columns = [every[c] for c in dict.fromkeys(slot[g] for g in generator_ids)]
        left = [(size + c,) for c in slot] + [tuple(set(col)) for col in every]
    right = list(zip(*columns)) if sides & {"R", "J"} else []
    labels = {}
    if "R" in sides:
        labels["R"] = scc_labels(right)
    if "L" in sides:
        labels["L"] = scc_labels(left)[:size]
    if "J" in sides:
        labels["J"] = scc_labels([r + e for r, e in zip(right, left)]
                                 + left[size:])[:size]
    return labels


def scc_labels(adj: list[Sequence[int]]) -> list[int]:
    """Strongly connected component label of every node of a digraph.

    ``adj[v]`` lists the successors of node v.  Iterative Tarjan: one
    explicit stack of (node, successor iterator) frames, no recursion.
    """
    size = len(adj)
    index = [-1] * size
    low = [0] * size
    label = [-1] * size
    stack: list[int] = []
    count = comps = 0
    for root in range(size):
        if index[root] >= 0:
            continue
        index[root] = low[root] = count
        count += 1
        stack.append(root)
        frames = [(root, iter(adj[root]))]
        while frames:
            v, successors = frames[-1]
            for w in successors:
                if index[w] < 0:
                    index[w] = low[w] = count
                    count += 1
                    stack.append(w)
                    frames.append((w, iter(adj[w])))
                    break
                if label[w] < 0 and index[w] < low[v]:  # w is on the stack
                    low[v] = index[w]
            else:
                frames.pop()
                if frames and low[v] < low[frames[-1][0]]:
                    low[frames[-1][0]] = low[v]
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        label[w] = comps
                        if w == v:
                            break
                    comps += 1
    return label


def enumerate_elements(Y: RangeSet) -> list[ChainMap]:
    """All monotone maps on the chain of Y into Y, in lexicographic order."""
    n, new = Y.n, ChainMap._unchecked  # Y is a checked RangeSet on this chain
    return [new(n, seq) for seq in combinations_with_replacement(Y.members, n)]


def check_guard(total: int, limit: int) -> None:
    """Refuse, before any work, a semigroup of ``total`` elements that is
    larger than the given guard; the one element-count refusal."""
    if total > limit:
        raise GuardExceeded(
            f"semigroup has {total} elements, above the guard {limit}")


def enumerate_semigroup(Y: RangeSet) -> SemigroupTable:
    """The table of O(n, Y) with stable element ids, inside the closure guard."""
    check_guard(count_maps(Y.n, len(Y)), closure_guard())
    return SemigroupTable(Y)
