"""Rewriting semigroup elements as words over a minimum generating set.

The route follows the structure of the rank proof itself: every map
below full image that is not regular of corank one is split by
:func:`factor_raising_rank`, which raises image size by one.  Corank-one
maps split by the same rule, into a full-image map times a regular
corank-one map.  A regular corank-one map slides to the pivot class
fixed by the least missing chain point, where explicit products of
full-image maps (plus at most one retraction) finish the job.
Retractions that were pruned from the generating set are themselves
rewritten as words over it.  Every step is verified by multiplying the
word back out.  The rewriting functions take the generating set and read
its four lookups where they are used: ``kind_of``, which tells a
generator and a full-image generator by its image tuple; ``anchors``,
only on the regular corank-one path, so a full-image element is its own
word on every range set, the identity of the whole chain included;
``tag_words``, which holds each tagged member as its own one-letter word
and keeps the word for each pruned retraction the slide asks for, built
and checked against :func:`floor_retraction` or
:func:`ceiling_retraction` the first time it is asked for; and
``corank_words``, which keeps the word for each regular corank-one map,
the one factor every rewrite below full image ends in, built by the
slide and checked the first time the set meets that map.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import reduce

from .chain import (
    ChainMap,
    DomainError,
    PartialMap,
    RangeSet,
    ceiling_extension,
    check_maps_into,
    compose,
    floor_extension,
    kernel,
    reflect,
    reflect_set,
    values,
)
from .generators import (
    CEILING,
    FLOOR,
    FULL_IMAGE,
    PREFIX_SHIFT,
    SUFFIX_SHIFT,
    GeneratingSet,
    ceiling_retraction,
    factor_raising_rank,
    floor_retraction,
    full_image_map,
    slide_to_missing_index,
)
from .regularity import is_regular


def product_of(maps: list[ChainMap]) -> ChainMap:
    if not maps:
        raise DomainError("empty word has no product")
    return reduce(compose, maps)


def _checked(word: list[ChainMap], target: ChainMap) -> list[ChainMap]:
    """``word``, once its product is verified to be ``target``."""
    assert product_of(word) == target
    return word


def _lemcr_theta(Y: RangeSet, i: int) -> ChainMap:
    """Full-image helper splitting the prefix shift into both retractions.

    Needs Y to start with the run 1..i-1 and skip i; the ceiling
    extension has image all of Y.
    """
    m = Y.members
    dom = m[1: i - 1] + (m[i - 2] + 1,) + m[i - 1:]
    img = m
    return ceiling_extension(PartialMap(Y.n, dom, img))


def _lema_theta(Y: RangeSet, k: int) -> ChainMap:
    """Full-image map whose square is the k-th floor retraction.

    Requires a chain point strictly between y_k and y_{k+1}.
    """
    m = Y.members
    dom = m[: k - 1] + (m[k - 1] + 1,) + m[k:]
    return floor_extension(PartialMap(Y.n, dom, m))


def _lemb_word(Y: RangeSet, k: int) -> list[ChainMap]:
    """The k-th floor retraction as a product of two full-image maps.

    Requires a gap just below y_k, y_{k+1} = y_k + 1 and room above it
    (y_k < n-r+k); the least chain point above y_k missing from the tail
    of Y, which lies above y_{k+1}, is woven through both factors.
    """
    n, m = Y.n, Y.members
    tail = set(m[k - 1:])
    spare = [y for y in range(m[k - 1], n + 1) if y not in tail]
    if not spare:
        raise DomainError(f"no spare point above {m[k - 1]}")
    y = spare[0]
    ell = bisect_left(m, y)  # y_ell < y < y_{ell+1}, 1-based ell
    dom1 = m[: k - 1] + m[k: ell] + (y,) + m[ell:]
    th1 = floor_extension(PartialMap(n, dom1, m))
    dom2 = m[: k - 1] + (m[k - 1] - 1, m[k - 1]) + m[k: ell - 1] + m[ell:]
    th2 = floor_extension(PartialMap(n, dom2, m))
    return [th1, th2]


def _imed_word(beta: ChainMap, Y: RangeSet, i: int) -> list:
    """A regular map missing y_i (chain starts 1..i-1, then skips i).

    Returns a list whose entries are either full-image ChainMaps or the
    tag (FLOOR, i); the caller resolves the tag against the generating
    set.  Which shape comes out depends on where the chain point i sits
    among the kernel blocks.  At i = 1 (y_1 > 1) the point 1 always sits
    in block 2, and the word is two full-image maps.
    """
    n = beta.n
    m = Y.members
    part = kernel(beta)
    p0 = part.block_of(i) - 1
    lab = p0 + 1 if p0 + 1 <= i - 1 else p0 + 2
    if lab not in (i - 2, i - 1, i + 1):
        raise AssertionError(f"point {i} sits in block {lab}, expected "
                             f"{i - 2}, {i - 1} or {i + 1}")
    left = full_image_map(part.split_block(p0 + 1), Y)
    if lab == i + 1:
        dom = m[: i - 1] + (i, m[i - 1]) + m[i + 1:]
        img = m[: i - 1] + (m[i - 1], m[i]) + m[i + 1:]
        right = floor_extension(PartialMap(n, dom, img))
        return _checked([left, right], beta)
    if lab == i - 1:
        return [left, (FLOOR, i)]
    dom = m[: i - 2] + (i,) + m[i - 1:]
    img = m[: i - 2] + (m[i - 2],) + m[i - 1:]
    mid = floor_extension(PartialMap(n, dom, img))
    return [left, mid, (FLOOR, i)]


def _imax_word(beta: ChainMap, Y: RangeSet) -> list[ChainMap]:
    """A regular map missing y_r, with y_r < n, as two full-image maps:
    the mirror of :func:`_imed_word` at i = 1."""
    word = _imed_word(reflect(beta), reflect_set(Y), 1)
    return _checked([reflect(w) for w in word], beta)


def _emit_full(gens: GeneratingSet, beta: ChainMap) -> list[ChainMap]:
    if gens.kind_of.get(beta.images) != FULL_IMAGE:
        raise AssertionError(f"{beta!r} is not a full-image generator")
    return [beta]


def _resolve(gens: GeneratingSet, kind: str, idx: int) -> tuple[ChainMap, ...]:
    """The tagged retraction or shift as a word over the set: its own
    one-letter word, or the word for a pruned retraction, built once per
    generating set and kept in its ``tag_words``."""
    word = gens.tag_words.get((kind, idx))
    if word is None:
        word = gens.tag_words[kind, idx] = tuple(_tag_word(gens, kind, idx))
    return word


def _tag_word(gens: GeneratingSet, kind: str, idx: int) -> list[ChainMap]:
    """A word for a retraction pruned from the set."""
    if kind not in (CEILING, FLOOR):
        raise AssertionError(f"no {kind} {idx} in the generating set")
    Y = gens.range_set
    r = len(Y.members)
    i, j = gens.anchors
    if kind == CEILING:
        # only the ends of the low run are pruned, both fold through
        # the prefix shift
        if idx not in (1, i - 1):
            raise AssertionError(f"unexpected missing ceiling {idx}")
        theta = _lemcr_theta(Y, i)
        shift = _resolve(gens, PREFIX_SHIFT, i)
        word = [theta, *shift] if idx == 1 else [*shift, theta]
        return _checked(word, ceiling_retraction(Y, idx))
    target = floor_retraction(Y, idx)
    if 2 <= j <= r - 1 and idx in (j, r):
        # both top retractions fold through the suffix shift
        theta = reflect(_lemcr_theta(reflect_set(Y), r + 2 - j))
        shift = _resolve(gens, SUFFIX_SHIFT, j)
        return _checked([theta, *shift] if idx == r else [*shift, theta], target)
    if idx == r and j == r + 1:
        # y_r below n: the whole class collapses into full-image maps
        return _imax_word(target, Y)
    if Y.members[idx] > Y.members[idx - 1] + 1:
        return _checked([_lema_theta(Y, idx)] * 2, target)
    return _checked(_lemb_word(Y, idx), target)


def _express_regular_corank(gens: GeneratingSet, gamma: ChainMap
                            ) -> list[ChainMap]:
    """The word for a regular corank-one map, built once per generating
    set and kept in its ``corank_words``; each call returns a new list,
    since callers extend it."""
    word = gens.corank_words.get(gamma.images)
    if word is None:
        word = gens.corank_words[gamma.images] = tuple(_corank_word(gens, gamma))
    return list(word)


def _corank_word(gens: GeneratingSet, gamma: ChainMap) -> list[ChainMap]:
    Y = gens.range_set
    i = gens.anchors[0]
    beta, tags = slide_to_missing_index(gamma, min(i, len(Y.members)), Y)
    head = _imed_word(beta, Y, i) if i <= len(Y.members) else _imax_word(beta, Y)
    out: list[ChainMap] = []
    for item in head + tags:
        if isinstance(item, tuple):
            out.extend(_resolve(gens, *item))
        else:
            out.extend(_emit_full(gens, item))
    return out


def _express(gens: GeneratingSet, alpha: ChainMap) -> list[ChainMap]:
    Y = gens.range_set
    r = len(Y.members)
    k = len(values(alpha))
    if k == r:
        return _emit_full(gens, alpha)
    # only regular maps have a kept word, so a kept one needs no test
    if k == r - 1 and (alpha.images in gens.corank_words
                       or is_regular(alpha, Y)):
        return _express_regular_corank(gens, alpha)
    left, right = factor_raising_rank(alpha, Y)
    if k == r - 1:  # right is regular: factor_raising_rank asserts it
        return _emit_full(gens, left) + _express_regular_corank(gens, right)
    return _express(gens, left) + _express(gens, right)


def express_in_generators(alpha: ChainMap, gens: GeneratingSet) -> list[ChainMap]:
    """A word over the generating set whose product is ``alpha``.

    Every entry of the result is one of the generators; the product is
    verified before returning.  On the whole chain only the identity has
    a word: every other element raises DomainError.
    """
    check_maps_into(alpha, gens.range_set)
    word = _express(gens, alpha)
    for w in word:
        if w.images not in gens.kind_of:
            raise AssertionError(f"word member {w!r} is not a generator")
    if product_of(word) != alpha:
        raise AssertionError("word product does not reproduce the input")
    return word
