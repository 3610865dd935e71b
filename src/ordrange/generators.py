"""Generating sets and rank of the semigroup of monotone maps into Y.

Writing Y = {y_1 < ... < y_r} with 1 < r < n, the rank of the semigroup
is C(n-1, r-1) + (number of captive members of Y).  A member y is
*captive* when y is an endpoint of the chain or both of its chain
neighbours lie in Y; a captive value can only appear in the image of a
product when some factor already misses exactly the right value, which
forces one extra generator per captive member beyond the C(n-1, r-1)
maps whose image is all of Y.

The constructive machinery mirrors that picture: one factorization that
raises image size by one below full image (at corank one its left factor
has image all of Y and its right factor is regular), retractions that
shuttle the missing value of a corank-one regular element up or down,
and one rule that assembles a minimum generating set: a retraction per
captive member, ceiling below the least missing chain point and floor
above it, with a shift in place of the end retraction when Y opens on a
run from 1, or closes on a run to n, of two or more points and has
members beyond that run.  The minimality oracle is a subset search over
the caller's table, resting only on two facts of every finite semigroup
S: a lies in every generating set iff a is not x*y with x != a and
y != a (the prefix x of a shortest word for a over S - {a} is not a, or
a shorter word would exist), and a least generating set holds nothing
that the rest of it generates.
"""

from __future__ import annotations

import math
from functools import cache, cached_property
from itertools import combinations

from .chain import (
    ChainMap,
    ConvexPartition,
    DomainError,
    GuardExceeded,
    PartialMap,
    RangeSet,
    ceiling_extension,
    check_int,
    check_maps_into,
    check_on_chain,
    compose,
    floor_extension,
    kernel,
    reflect,
    reflect_set,
    values,
    _Frozen,
    _set,
)
from .enumeration import (
    SemigroupTable,
    check_guard,
    closure_guard,
    enumerate_semigroup,
    search_guard,
)
from .regularity import is_regular

FULL_IMAGE = "full_image"
FLOOR = "floor_retraction"
CEILING = "ceiling_retraction"
PREFIX_SHIFT = "prefix_shift"
SUFFIX_SHIFT = "suffix_shift"
CORANK_ONE = "corank_one"


# ---------------------------------------------------------------------------
# captive members and the rank formula


def captive_set(Y: RangeSet) -> tuple[int, ...]:
    """The captive members of Y: endpoints of the chain, or members whose
    chain neighbours both lie in Y.  May be empty."""
    out = []
    for y in Y:
        if y in (1, Y.n) or (y - 1 in Y and y + 1 in Y):
            out.append(y)
    return tuple(out)


def rank_by_formula(Y: RangeSet) -> int:
    """Minimum size of a generating set: C(n-1, r-1) + #captive(Y).

    On the whole chain every member is captive, so this gives n + 1, the
    semigroup rank of all monotone maps: the monoid rank n plus the
    identity, which no product of other elements reaches.  A one-point
    range has rank 1, its constant map alone generating; the formula
    would give 2 at an endpoint, which is captive.  This is the rank the
    subset search computes.
    """
    r = len(Y)
    if r == 1:
        return 1
    return math.comb(Y.n - 1, r - 1) + len(captive_set(Y))


# ---------------------------------------------------------------------------
# building blocks


def _blocks_and_values(alpha: ChainMap, part: ConvexPartition
                       ) -> tuple[list[tuple[int, int]], list[int]]:
    """The blocks of alpha's kernel ``part`` and alpha's value on each."""
    blocks = list(part.blocks())
    return blocks, [alpha.images[s - 1] for s, _ in blocks]


def _map_from_blocks(n: int, blocks: list[tuple[int, int]],
                     values: list[int]) -> ChainMap:
    out = [0] * n
    for (s, e), v in zip(blocks, values):
        for x in range(s, e + 1):
            out[x - 1] = v
    return ChainMap(n, tuple(out))


def full_image_map(partition: ConvexPartition, Y: RangeSet) -> ChainMap:
    """The unique monotone map with the given kernel and image all of Y."""
    check_on_chain(partition.n, Y)
    if partition.weight != len(Y):
        raise DomainError(
            f"partition has {partition.weight} blocks for {len(Y)} values")
    return _map_from_blocks(
        partition.n, list(partition.blocks()), list(Y.members))


def full_image_maps(Y: RangeSet) -> list[ChainMap]:
    """All C(n-1, r-1) maps whose image is the whole of Y.

    One per convex partition of weight r, ordered lexicographically by
    block boundaries; block t is sent to the t-th member of Y.
    """
    n = Y.n
    out = []
    for cuts in combinations(range(1, n), len(Y) - 1):
        part = ConvexPartition(n, cuts + (n,))
        out.append(full_image_map(part, Y))
    return out


def _retraction_seed(Y: RangeSet, i: int) -> PartialMap:
    members = Y.without(i)
    return PartialMap(Y.n, members, members)


def floor_retraction(Y: RangeSet, i: int) -> ChainMap:
    """Idempotent fixing Y minus its i-th member, pulling y_i downward."""
    return floor_extension(_retraction_seed(Y, i))


def ceiling_retraction(Y: RangeSet, i: int) -> ChainMap:
    """Idempotent fixing Y minus its i-th member, pushing y_i upward."""
    return ceiling_extension(_retraction_seed(Y, i))


@cache
def _retraction(Y: RangeSet, kind: str, i: int) -> ChainMap:
    """The ``kind`` (FLOOR or CEILING) retraction of Y at i, built once
    per (Y, kind, i): only the slide reads it, to check its word, and it
    reuses the same few of them for every element of a range set."""
    return (ceiling_retraction if kind == CEILING else floor_retraction)(Y, i)


def prefix_shift_generator(Y: RangeSet, i: int) -> ChainMap:
    """One map replacing both low-end retractions when Y starts 1..i-1.

    Defined for 3 <= i <= r: the first i-2 members shift up one slot,
    the tail from y_i on stays fixed; the ceiling extension misses y_1.
    """
    r = len(Y)
    check_int(i, "index")
    if not 3 <= i <= r:
        raise DomainError(f"index {i} outside 3..{r}")
    ys = Y.members
    dom = ys[: i - 2] + ys[i - 1:]
    img = ys[1: i - 1] + ys[i - 1:]
    return ceiling_extension(PartialMap(Y.n, dom, img))


def suffix_shift_generator(Y: RangeSet, j: int) -> ChainMap:
    """Mirror of the prefix shift for a top-end run; misses y_r.

    Defined for 2 <= j <= r-1: members up to y_{j-1} stay fixed, the
    tail from y_{j+1} on shifts down one slot.  It is the reflection of
    the prefix shift of the mirrored set at index r+2-j.
    """
    r = len(Y)
    check_int(j, "index")
    if not 2 <= j <= r - 1:
        raise DomainError(f"index {j} outside 2..{r - 1}")
    return reflect(prefix_shift_generator(reflect_set(Y), r + 2 - j))


def corank_one_generator(Y: RangeSet, t: int) -> ChainMap:
    """For the whole chain: the map with image {1..n} minus t whose one
    non-singleton kernel block is {n-t, n-t+1}, or {1, 2} when t = n."""
    n = Y.n
    check_int(t, "index")
    if not 2 <= n == len(Y) or not 1 <= t <= n:
        raise DomainError(f"need Y the whole chain of n >= 2 and 1 <= t <= n, "
                          f"got |Y|={len(Y)}, n={n}, t={t}")
    s = n - t if t < n else 1
    part = ConvexPartition(n, tuple(x for x in range(1, n + 1) if x != s))
    return full_image_map(part, RangeSet(n, Y.without(t)))


_BUILDERS = {
    FLOOR: floor_retraction,
    CEILING: ceiling_retraction,
    PREFIX_SHIFT: prefix_shift_generator,
    SUFFIX_SHIFT: suffix_shift_generator,
    CORANK_ONE: corank_one_generator,
}


# ---------------------------------------------------------------------------
# factorizations


def missing_index(alpha: ChainMap, Y: RangeSet) -> int:
    """For a map whose image misses exactly one member of Y, its 1-based index."""
    # on one chain, the corank test below implies that alpha maps into Y
    check_on_chain(alpha.n, Y)
    im = set(values(alpha))
    gone = [t for t, y in enumerate(Y.members, start=1) if y not in im]
    if len(gone) != 1 or len(im) != len(Y) - 1:
        raise DomainError(
            f"image size {len(im)} is not {len(Y) - 1}; not corank one")
    return gone[0]


def factor_raising_rank(alpha: ChainMap, Y: RangeSet) -> tuple[ChainMap, ChainMap]:
    """Split a map of image size k < r into a left factor of image size
    k+1 and a right factor of image size min(k+1, r-1).

    Let a_1 < ... < a_k be the values of alpha, j its first non-singleton
    kernel block, and take the members of Y missing from those values, at
    most two: the least u, and v when there is one.  When u is the only
    one, x = u; otherwise x, y = u, v when a_j < v and x, y = v, u.  The
    left factor splits block j at its least point and takes the values
    a_1..a_k with x woven in; the right factor is the floor extension
    sending those values, less that of the split-off block j+1, to
    a_1..a_k in order, and y, if any, to itself.  At k = r-1 only u is
    missing and nothing is fixed: the left factor has image all of Y, and
    the right factor, of image size r-1, is regular.
    """
    check_maps_into(alpha, Y)
    part = kernel(alpha)
    blocks, a = _blocks_and_values(alpha, part)
    k = len(a)
    if k >= len(Y):
        raise DomainError(f"image size {k} is not below {len(Y)}")
    gone = [y for y in Y if y not in a][:2]
    j = next(t for t, (s, e) in enumerate(blocks, start=1) if e > s)
    if len(gone) == 2 and a[j - 1] >= gone[1]:
        gone.reverse()
    x, *fixed = gone
    bv = sorted(a + [x])
    n = alpha.n
    beta = _map_from_blocks(n, list(part.split_block(j).blocks()), bv)
    dom, img = zip(*sorted([*zip(bv[:j] + bv[j + 1:], a), *zip(fixed, fixed)]))
    gamma = floor_extension(PartialMap(n, dom, img))
    assert compose(beta, gamma) == alpha
    assert len(values(beta)) == k + 1 and len(values(gamma)) == k + len(fixed)
    assert fixed or is_regular(gamma, Y)
    return beta, gamma


def slide_to_missing_index(alpha: ChainMap, target: int, Y: RangeSet
                           ) -> tuple[ChainMap, list[tuple[str, int]]]:
    """Rewrite a regular corank-one map with a prescribed missing value.

    Returns (beta, word) with beta regular, missing exactly the target
    member of Y, and alpha equal to beta followed by the word of
    retractions: ceiling retractions with indices target-1 down to m
    when the current missing index m is below the target, floor
    retractions with indices target+1 up to m when above.
    """
    r = len(Y)
    check_int(target, "target")
    if not 1 <= target <= r:
        raise DomainError(f"target {target} outside 1..{r}")
    if not is_regular(alpha, Y):
        raise DomainError("only regular maps slide between corank classes")
    m = missing_index(alpha, Y)
    blocks, values = _blocks_and_values(alpha, kernel(alpha))
    word: list[tuple[str, int]] = []
    cur = m
    while cur < target:
        # beta in the class missing y_{cur+1}: block holding y_{cur+1}
        # steps down to y_cur
        word.insert(0, (CEILING, cur))
        values[cur - 1] = Y.members[cur - 1]
        cur += 1
    while cur > target:
        word.insert(0, (FLOOR, cur))
        values[cur - 2] = Y.members[cur - 1]
        cur -= 1
    beta = _map_from_blocks(alpha.n, blocks, values)
    assert missing_index(beta, Y) == target and is_regular(beta, Y)
    check = beta
    for kind, idx in word:
        check = compose(check, _retraction(Y, kind, idx))
    assert check == alpha
    return beta, word


# ---------------------------------------------------------------------------
# the generating set


class TaggedGenerator(_Frozen):
    """A generator together with how it was constructed."""

    __slots__ = _fields = ("element", "kind", "index")

    def __init__(self, element: ChainMap, kind: str,
                 index: int | None = None) -> None:
        _set(self, "element", element)
        _set(self, "kind", kind)
        _set(self, "index", index)

    def as_dict(self) -> dict:
        return {
            "images": list(self.element.images),
            "kind": self.kind,
            "index": self.index,
        }


class GeneratingSet(_Frozen):
    """Tagged generators of the monotone maps into a range set.

    Four lookups are kept with the set (they are not fields, so
    equality, hashing and the constructor ignore them).  The duplicate
    check builds two of them as it walks the members: ``kind_of``, mapping
    each member's image tuple to its kind, and ``tag_words``, mapping the
    ``(kind, index)`` of each member not of kind ``FULL_IMAGE`` to the
    one-letter word of that member, which :mod:`ordrange.words` extends
    with the checked word over the set of each pruned retraction it is
    asked for.  ``corank_words`` starts empty; :mod:`ordrange.words`
    keeps in it, under the map's image tuple, the word over the set of
    each regular corank-one map it rewrites, at most one per such
    element.  ``anchors``, the pair :func:`first_missing_point`,
    :func:`tail_anchor` of the range set, is computed on first use and
    raises DomainError on the whole chain.
    """

    # no __slots__: the lookups and the cached ``anchors`` live in __dict__
    _fields = ("range_set", "members")

    def __init__(self, range_set: RangeSet,
                 members: tuple[TaggedGenerator, ...]) -> None:
        _set(self, "range_set", range_set)
        _set(self, "members", members)
        kind_of: dict[tuple[int, ...], str] = {}
        tag_words: dict[tuple[str, int | None], tuple[ChainMap, ...]] = {}
        for g in self.members:
            if g.element.images in kind_of:
                raise DomainError(f"duplicate generator {g.element!r}")
            kind_of[g.element.images] = g.kind
            check_maps_into(g.element, self.range_set)
            if g.kind != FULL_IMAGE:
                tag_words[g.kind, g.index] = (g.element,)
        _set(self, "kind_of", kind_of)
        _set(self, "tag_words", tag_words)
        _set(self, "corank_words", {})

    @cached_property
    def anchors(self) -> tuple[int, int]:
        return (first_missing_point(self.range_set),
                tail_anchor(self.range_set))

    def elements(self) -> list[ChainMap]:
        return [g.element for g in self.members]

    def __len__(self) -> int:
        return len(self.members)


def first_missing_point(Y: RangeSet) -> int:
    """Least chain point outside Y; at most r+1 and defined whenever r < n."""
    for x in range(1, Y.n + 1):
        if x not in Y:
            return x
    raise DomainError("the range set covers the whole chain")


def tail_anchor(Y: RangeSet) -> int:
    """Position j such that Y holds exactly the run n-r+j..n at its top.

    Equals r+1 when n is outside Y, and 1 when Y is one solid run
    ending at n.  Read off the least point missing from the mirrored set.
    """
    return len(Y) + 2 - first_missing_point(reflect_set(Y))


def minimum_generating_set(n: int, Y: RangeSet, *, check: bool = True
                           ) -> GeneratingSet:
    """A generating set of the minimum size :func:`rank_by_formula`.

    All full-image maps are always needed.  For 1 < r < n there is one
    extra generator per captive member y_t, with i the least missing
    chain point and j the top run anchor.  A captive y_t < i gives the
    ceiling retraction t, except that the prefix shift i stands in for
    t = 1 when 3 <= i <= r.  A captive y_t > i gives the floor
    retraction t, except that the suffix shift j stands in for t = r
    when 2 <= j < r.  Retractions whose index is not captive lie in the
    closure of the full-image maps.  A one-point Y needs its constant
    map alone; the whole chain needs the identity and the n maps of
    :func:`corank_one_generator`.  Refused before any map is built when
    larger than the closure guard; with ``check`` (mandatory wherever the
    guard allows) its closure is compared against the full semigroup.
    """
    r = len(Y)
    check_on_chain(n, Y)
    rank, guard = rank_by_formula(Y), closure_guard()
    if rank > guard:
        raise GuardExceeded(f"generating set has {rank} members, above the "
                            f"closure guard {guard}")
    eps: list[tuple[str, int]] = []
    if r == n > 1:
        eps = [(CORANK_ONE, t) for t in range(1, n + 1)]
    elif r > 1:
        i = first_missing_point(Y)
        j = tail_anchor(Y)
        captive = set(captive_set(Y))
        low = [t for t, y in enumerate(Y, start=1) if y in captive and y < i]
        high = [t for t, y in enumerate(Y, start=1) if y in captive and y > i]
        if 3 <= i <= r:
            eps = [(PREFIX_SHIFT, i)] + [(CEILING, t) for t in low if t > 1]
        else:
            eps = [(CEILING, t) for t in low]
        if 2 <= j < r:
            eps += [(FLOOR, t) for t in high if t < r] + [(SUFFIX_SHIFT, j)]
        else:
            eps += [(FLOOR, t) for t in high]

    members = [
        TaggedGenerator(f, FULL_IMAGE) for f in full_image_maps(Y)
    ]
    for kind, idx in eps:
        members.append(TaggedGenerator(_BUILDERS[kind](Y, idx), kind, idx))

    gens = GeneratingSet(Y, tuple(members))
    if len(gens) != rank:
        raise AssertionError(
            f"built {len(gens)} generators, formula says {rank}")
    if check:
        table = enumerate_semigroup(Y)
        if not generates(gens.elements(), table):
            raise AssertionError("constructed set fails to generate")
    return gens


def generates(elements, table: SemigroupTable) -> bool:
    """True iff the closure of the elements under composition is everything."""
    ids = [table.id_of(el) for el in elements]
    return len(table.closure(ids)) == len(table)


# ---------------------------------------------------------------------------
# minimality oracle


def minimal_generating_sets(table: SemigroupTable, *, witness_limit: int | None = None,
                            ) -> tuple[int, list[frozenset[int]]]:
    """Search the caller's table for a least-size generating set; returns
    (size, witnesses), the witnesses as sets of element ids.

    Two facts of every finite semigroup S restrict the sweep.  The base,
    the elements a that are not x*y for any x != a and y != a, lies in
    every generating set: a shortest word for a over S - {a} has a prefix
    x != a, or a shorter word would exist.  A least generating set holds
    nothing that the rest of it generates, so it adds to the base only
    elements outside the closure of the base.  Those supersets are tried
    in ascending size, so the witnesses are every least generating set,
    up to ``witness_limit``.  A table above the search guard is refused.
    """
    size = len(table)
    check_guard(size, search_guard())
    columns, slots = table.columns_of(range(size))
    made = set()  # ids that are x*y with x and y both other than the product
    for y, slot in enumerate(slots):
        made.update(p for x, p in enumerate(columns[slot]) if p != x and p != y)
    base = [a for a in range(size) if a not in made]
    spanned = table.closure(base)
    # larger images first: witnesses surface sooner; the order never
    # changes the answer, since every size is swept in full
    pool = sorted((i for i in range(size) if i not in spanned),
                  key=lambda i: (-len(values(table.elements[i])), i))
    for extra in range(len(pool) + 1):
        found: list[frozenset[int]] = []
        for combo in combinations(pool, extra):
            ids = base + list(combo)
            if len(table.closure(ids)) == size:
                found.append(frozenset(ids))
                if witness_limit is not None and len(found) >= witness_limit:
                    break
        if found:
            return len(base) + extra, found
    raise AssertionError("the whole semigroup failed to generate itself")


def rank_by_search(table: SemigroupTable) -> int:
    """Minimum cardinality of a generating set of the table, by exhaustive
    search."""
    rank, _ = minimal_generating_sets(table, witness_limit=1)
    return rank
