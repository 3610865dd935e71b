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
from itertools import combinations_with_replacement
from typing import Iterable

from .chain import ChainMap, DomainError, PartialMap, RangeSet, kernel
# unused here; bench/tracer.py reads and wraps this binding
from .enumeration import enumerate_elements  # noqa: F401


def order_ideals(points: Iterable[int]) -> list[frozenset[int]]:
    """All downward-closed subsets of a chain of points: every prefix.

    The empty set counts; a k-point chain has k+1 order ideals.
    """
    pts = tuple(sorted(set(points)))
    return [frozenset(pts[:t]) for t in range(len(pts) + 1)]


def _partial_into(theta: PartialMap, Y: RangeSet) -> None:
    if theta.n != Y.n:
        raise DomainError(f"partial map on {theta.n} vs range set on {Y.n}")
    for b in theta.images:
        if b not in Y:
            raise DomainError(
                f"image value {b} is outside {list(Y.members)}")


def is_completable(theta: PartialMap, Y: RangeSet) -> bool:
    """Order-ideal criterion for the existence of a total extension.

    For the t-point prefix ideal the chain gap is the open interval
    between the ideal and the rest of the domain; the boundary ideals
    use the natural conventions (everything below the domain for the
    empty ideal, everything above it for the full one).
    """
    _partial_into(theta, Y)
    dom, img, n = theta.domain, theta.images, theta.n
    k = len(dom)
    for t in range(k + 1):
        if t == 0:
            gap = dom[0] > 1
        elif t == k:
            gap = dom[k - 1] < n
        else:
            gap = dom[t] - dom[t - 1] >= 2
        if not gap:
            continue
        if t == 0:
            witness = any(y <= img[0] for y in Y)
        elif t == k:
            witness = any(img[k - 1] <= y for y in Y)
        else:
            witness = any(img[t - 1] <= y <= img[t] for y in Y)
        if not witness:
            return False
    return True


def complete_extensions(theta: PartialMap, Y: RangeSet) -> list[ChainMap]:
    """Every total monotone map into Y agreeing with theta, by filtering
    all of them in lexicographic order."""
    _partial_into(theta, Y)
    at = [a - 1 for a in theta.domain]
    want = list(theta.images)
    return [ChainMap(theta.n, seq)
            for seq in combinations_with_replacement(Y.members, theta.n)
            if [seq[i] for i in at] == want]


def count_extensions(theta: PartialMap, Y: RangeSet) -> int:
    """The number of extensions of theta into Y, in closed form.

    The points of each gap (before the first domain point, between two
    consecutive ones, after the last) take a weakly increasing run of
    the m values of Y between the images that bound the gap: for a gap
    of length len that is C(len + m - 1, m - 1) runs.
    """
    _partial_into(theta, Y)
    dom, img, n = theta.domain, theta.images, theta.n
    total = 1
    for a, b, lo, hi in zip((0,) + dom, dom + (n + 1,), (1,) + img, img + (n,)):
        length = b - a - 1
        m = sum(lo <= y <= hi for y in Y)
        total *= math.comb(length + m - 1, length)
    return total


def build_extension(theta: PartialMap, Y: RangeSet) -> ChainMap | None:
    """One extension built constructively, or None when the criterion fails.

    Gap points between an ideal and its complement all receive the same
    witness value (the least one), which keeps the result monotone.
    """
    if not is_completable(theta, Y):
        return None
    dom, img, n = theta.domain, theta.images, theta.n
    k = len(dom)
    witness: dict[int, int] = {}
    for t in range(k + 1):
        if t == 0:
            candidates = [y for y in Y if y <= img[0]]
        elif t == k:
            candidates = [y for y in Y if img[k - 1] <= y]
        else:
            candidates = [y for y in Y if img[t - 1] <= y <= img[t]]
        if candidates:
            witness[t] = min(candidates)
    out = []
    for x in range(1, n + 1):
        i = 0
        while i < k and dom[i] < x:
            i += 1
        if i < k and dom[i] == x:
            out.append(theta(x))
        else:
            out.append(witness[i])
    gamma = ChainMap(n, tuple(out))
    assert all(gamma(a) == theta(a) for a in dom)
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


def is_bicompletable(theta: PartialMap, Y: RangeSet) -> bool:
    """Both the map and its inverse admit total extensions into Y.

    Requires an injective map whose domain also lies in Y, so that the
    inverse is again a partial map into Y.
    """
    if not theta.is_injective():
        raise DomainError("bicompletability needs an injective map")
    for a in theta.domain:
        if a not in Y:
            raise DomainError(
                f"domain point {a} is outside {list(Y.members)}")
    return is_completable(theta, Y) and is_completable(theta.inverse(), Y)
