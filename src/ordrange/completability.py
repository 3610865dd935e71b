"""Completability of partial monotone maps and the order-ideal criterion.

A partial map into Y is completable when some total monotone map with
range in Y agrees with it on its whole domain.  The criterion checked
here scans the order ideals I of the domain: whenever chain points lie
strictly between I and its complement, Y must offer a value squeezed
between the corresponding images.  The criterion, the closed-form count
and the least extension each read the partial map in one pass over its
gaps.  On a finite chain the criterion is always satisfied; the code
keeps criterion and exhaustive search as two independent routes so that
equivalence stays testable.  The canonical order-isomorphism of two
kernel-equal maps is read off their distinct image pairs.
"""

from __future__ import annotations

import math
from bisect import bisect_left

from .chain import (ChainMap, DimensionMismatch, DomainError, PartialMap,
                    RangeSet, check_on_chain, kernel)
from .enumeration import (check_guard, closure_guard, count_maps,
                          enumerate_elements)


def _gaps_into(theta: PartialMap, Y: RangeSet
               ) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Refuse theta unless it maps into Y, naming its first value outside Y
    in domain order; then, per nonempty gap in chain order, its length and
    the members of Y between the images that bound it (a bound past
    either end of the domain is the chain's end)."""
    check_on_chain(theta.n, Y)
    ys = Y.members
    if not Y._member_set.issuperset(theta.images):
        v = next(v for v in theta.images if v not in Y._member_set)
        raise DomainError(f"image value {v} is outside {list(ys)}")
    out, prev, lo = [], 0, 0  # lo: index in ys of the image at prev
    for a, v in zip(theta.domain, theta.images):
        hi = bisect_left(ys, v, lo)
        if a - prev > 1:
            out.append((a - prev - 1, ys[lo:hi + 1]))
        prev, lo = a, hi
    if prev < theta.n:
        out.append((theta.n - prev, ys[lo:]))
    return tuple(out)


def is_completable(theta: PartialMap, Y: RangeSet) -> bool:
    """Order-ideal criterion for the existence of a total extension.

    Gap t of the domain is the open chain interval between its t-point
    prefix ideal and the rest of the domain (everything below the domain
    for the empty ideal, everything above it for the full one); each
    nonempty gap needs a member of Y between the images that bound it.
    """
    return all(between for _, between in _gaps_into(theta, Y))


def complete_extensions(theta: PartialMap, Y: RangeSet) -> list[ChainMap]:
    """Every total monotone map into Y agreeing with theta, by filtering
    all of them in lexicographic order, inside the closure guard."""
    _gaps_into(theta, Y)
    check_guard(count_maps(Y.n, len(Y)), closure_guard())
    at = [a - 1 for a in theta.domain]
    want = list(theta.images)
    return [f for f in enumerate_elements(Y)
            if [f.images[i] for i in at] == want]


def count_extensions(theta: PartialMap, Y: RangeSet) -> int:
    """The number of extensions of theta into Y, in closed form.

    The points of each gap take a weakly increasing run of the m members
    of Y between the images that bound the gap: for a gap of length len
    that is C(len + m - 1, len) runs.
    """
    total = 1
    for length, between in _gaps_into(theta, Y):
        total *= math.comb(length + len(between) - 1, length)
    return total


def build_extension(theta: PartialMap, Y: RangeSet) -> ChainMap | None:
    """One extension built constructively, or None when the criterion fails.

    Each gap takes the least member of Y between its bounding images, so
    the result is monotone, and it is the least extension.
    """
    gaps = _gaps_into(theta, Y)
    if not all(between for _, between in gaps):
        return None
    least = iter([between[0] for _, between in gaps])
    gamma = theta.extend(lambda lo, hi: next(least))
    assert all(gamma.images[a - 1] == v
               for a, v in zip(theta.domain, theta.images))
    return gamma


def canonical_order_isomorphism(alpha: ChainMap, beta: ChainMap) -> PartialMap:
    """The fiber-matching bijection image(alpha) -> image(beta).

    Defined only for kernel-equal maps: the value of alpha on a block is
    sent to the value of beta on the same block.  The kernels agree iff
    the distinct pairs (alpha(x), beta(x)) are as many as the values of
    alpha and as the values of beta; the pairs, sorted, are then the
    bijection.  Composing alpha with (any extension of) the result
    recovers beta pointwise, and the inverse recovers alpha.
    """
    if alpha.n != beta.n:
        raise DimensionMismatch("maps live on different chains")
    pairs = sorted(set(zip(alpha.images, beta.images)))
    if not len(pairs) == len(set(alpha.images)) == len(set(beta.images)):
        raise DomainError(f"kernels differ: {kernel(alpha).boundaries} "
                          f"vs {kernel(beta).boundaries}")
    dom, img = zip(*pairs)
    return PartialMap(alpha.n, dom, img)
