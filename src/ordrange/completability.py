"""Completability of partial monotone maps and the order-ideal criterion.

A partial map into Y is completable when some total monotone map with
range in Y agrees with it on its whole domain.  The criterion checked
here scans the order ideals I of the domain: whenever chain points lie
strictly between I and its complement, Y must offer a value squeezed
between the corresponding images.  On a finite chain the criterion is
always satisfied; the code keeps criterion and exhaustive search as two
independent routes so that equivalence stays testable.
"""

from __future__ import annotations

import math

from .chain import (ChainMap, DomainError, PartialMap, RangeSet, check_on_chain,
                    kernel)
from .enumeration import enumerate_elements


def _partial_into(theta: PartialMap, Y: RangeSet) -> None:
    check_on_chain(theta.n, Y)
    for b in theta.images:
        if b not in Y:
            raise DomainError(
                f"image value {b} is outside {list(Y.members)}")


def _members_between(Y: RangeSet, lo: int | None, hi: int | None) -> list[int]:
    """The members of Y in [lo, hi]; a bound of None is the chain's end."""
    lo, hi = lo or 1, hi or Y.n
    return [y for y in Y.members if lo <= y <= hi]


def is_completable(theta: PartialMap, Y: RangeSet) -> bool:
    """Order-ideal criterion for the existence of a total extension.

    Gap t of the domain is the open chain interval between its t-point
    prefix ideal and the rest of the domain (everything below the domain
    for the empty ideal, everything above it for the full one); each
    nonempty gap needs a member of Y between the images that bound it.
    """
    _partial_into(theta, Y)
    return all(_members_between(Y, lo, hi)
               for a, b, lo, hi in theta.gaps() if b - a > 1)


def complete_extensions(theta: PartialMap, Y: RangeSet) -> list[ChainMap]:
    """Every total monotone map into Y agreeing with theta, by filtering
    all of them in lexicographic order."""
    _partial_into(theta, Y)
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
    _partial_into(theta, Y)
    total = 1
    for a, b, lo, hi in theta.gaps():
        length = b - a - 1
        total *= math.comb(length + len(_members_between(Y, lo, hi)) - 1, length)
    return total


def build_extension(theta: PartialMap, Y: RangeSet) -> ChainMap | None:
    """One extension built constructively, or None when the criterion fails.

    Each gap takes the least member of Y between its bounding images, so
    the result is monotone, and it is the least extension.
    """
    if not is_completable(theta, Y):
        return None
    gamma = theta.extend(lambda lo, hi: _members_between(Y, lo, hi)[0])
    assert all(gamma(a) == theta(a) for a in theta.domain)
    return gamma


def canonical_order_isomorphism(alpha: ChainMap, beta: ChainMap) -> PartialMap:
    """The fiber-matching bijection image(alpha) -> image(beta).

    Defined only for kernel-equal maps: the value of alpha on a block is
    sent to the value of beta on the same block.  Composing alpha with
    (any extension of) the result recovers beta pointwise, and the
    inverse recovers alpha.
    """
    if alpha.n != beta.n:
        raise DomainError("maps live on different chains")
    ka, kb = kernel(alpha), kernel(beta)
    if ka != kb:
        raise DomainError(
            f"kernels differ: {ka.boundaries} vs {kb.boundaries}")
    dom = []
    img = []
    for start, _ in ka.blocks():
        dom.append(alpha(start))
        img.append(beta(start))
    return PartialMap(alpha.n, tuple(dom), tuple(img))
