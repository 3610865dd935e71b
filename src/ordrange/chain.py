"""Value types for order-preserving transformations of a finite chain.

Points of the chain {1 < 2 < ... < n} are 1-indexed everywhere; any
0-indexing is an implementation detail that never crosses the API.
All types are immutable values and every operation here is pure, so
instances are safe to share between threads.  The value classes keep
their fields in ``__slots__`` that only the constructor writes: they
refuse assignment and deletion with AttributeError, compare and hash by
their field tuple, and a copy or pickle is rebuilt through the
constructor, so its checks run again.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Iterable


class DomainError(ValueError):
    """A value violates a structural invariant (bad input, not a bug)."""


class DimensionMismatch(DomainError):
    """Two objects live on chains of different sizes."""


class GuardExceeded(RuntimeError):
    """An element-count guard, of a subset search or of a closure, was
    exceeded.

    Raise the limit through the ORDRANGE_MAX_ELEMENTS environment
    variable if the run is intentional: it replaces the search guard and
    can raise, never lower, the closure guard.
    """


def _check_points(n: int, points: tuple[int, ...], name: str,
                  strict: bool) -> None:
    """Refuse a point sequence unless the chain size n is positive and the
    points are ints in 1..n, strictly increasing when ``strict`` and
    weakly otherwise; ``name`` names one point in the messages."""
    if n < 1:
        raise DomainError(f"chain size must be positive, got {n}")
    prev, step = 1, int(strict)
    for v in points:  # one chained comparison per point on the valid path
        if type(v) is not int or not prev <= v <= n:
            if type(v) is not int or not 1 <= v <= n:
                raise DomainError(f"{name} {v!r} outside 1..{n}")
            raise DomainError(f"{name}s {list(points)} are not "
                              f"{'strictly' if strict else 'weakly'} increasing")
        prev = v + step


class _Frozen:
    """Base of the value types: instances refuse assignment and deletion;
    constructors write their fields through ``_set``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


_set = object.__setattr__


def check_on_chain(n: int, Y: RangeSet) -> None:
    """Refuse a range set that lives on a chain other than {1..n}."""
    if Y.n != n:
        raise DimensionMismatch(f"range set lives on chain {Y.n}, not {n}")


def check_maps_into(f: ChainMap, Y: RangeSet) -> None:
    """Refuse a map with a value outside Y (DimensionMismatch when it
    lives on another chain)."""
    if not maps_into(f, Y):
        raise DomainError(f"{f!r} does not map into {list(Y.members)}")


class ChainMap(_Frozen):
    """A total order-preserving transformation of {1..n}.

    ``images[x-1]`` is the image of point ``x``.  The sequence must be
    weakly increasing with values in 1..n; invalid data is rejected at
    construction, never normalized.
    """

    __slots__ = ("n", "images")

    def __init__(self, n: int, images: tuple[int, ...]) -> None:
        _set(self, "n", n)
        _set(self, "images", tuple(images))
        self.__post_init__()

    def __post_init__(self) -> None:
        """The checks of a new map, a method of its own so that
        ``bench/tracer.py`` can count checked constructions by rebinding it."""
        _check_points(self.n, self.images, "image", False)
        if len(self.images) != self.n:
            raise DomainError(
                f"expected {self.n} images, got {len(self.images)}")

    @classmethod
    def _unchecked(cls, n: int, images: tuple[int, ...]) -> "ChainMap":
        """A map built without the checks of ``__post_init__``, for data
        valid by construction: ``images`` is a weakly increasing tuple of
        n values in 1..n."""
        f = object.__new__(cls)
        # the slots as __init__ writes them, without its tuple() copy
        _set(f, "n", n)
        _set(f, "images", images)
        return f

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.n, self.images) == (other.n, other.images)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.images))

    def __reduce__(self):
        return self.__class__, (self.n, self.images)

    @classmethod
    def from_images(cls, images: Iterable[int]) -> "ChainMap":
        images = tuple(images)
        return cls(len(images), images)

    def __call__(self, x: int) -> int:
        if not 1 <= x <= self.n:
            raise DomainError(f"point {x} outside 1..{self.n}")
        return self.images[x - 1]

    def __repr__(self) -> str:
        return f"ChainMap({list(self.images)})"

    def is_idempotent(self) -> bool:
        return all(self.images[v - 1] == v for v in set(self.images))


class PartialMap(_Frozen):
    """An order-preserving map from a subchain of {1..n} into {1..n}.

    The domain is strictly increasing, the image sequence weakly
    increasing; on a chain that is exactly order-preservation.  A total
    extension is a choice of values on each gap (:meth:`extend`).
    """

    __slots__ = ("n", "domain", "images")

    def __init__(self, n: int, domain: tuple[int, ...],
                 images: tuple[int, ...]) -> None:
        _set(self, "n", n)
        _set(self, "domain", tuple(domain))
        _set(self, "images", tuple(images))
        _check_points(self.n, self.domain, "domain point", True)
        _check_points(self.n, self.images, "image", False)
        if not self.domain:
            raise DomainError("partial map needs a nonempty domain")
        if len(self.domain) != len(self.images):
            raise DomainError(
                f"domain has {len(self.domain)} points but "
                f"{len(self.images)} images")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.n, self.domain, self.images)
                    == (other.n, other.domain, other.images))
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.domain, self.images))

    def __reduce__(self):
        return self.__class__, (self.n, self.domain, self.images)

    def __call__(self, a: int) -> int:
        i = bisect_left(self.domain, a)
        if i == len(self.domain) or self.domain[i] != a:
            raise DomainError(f"point {a} not in domain {list(self.domain)}")
        return self.images[i]

    def __len__(self) -> int:
        return len(self.domain)

    def extend(self, choose: Callable[[int | None, int | None], int]) -> ChainMap:
        """The total map that agrees with this one and sends each point of
        a nonempty gap to ``choose(lo, hi)``, called once per nonempty gap
        in chain order; monotone when every choice lies between the
        bounds that are not None."""
        out: list[int] = []
        prev, lo = 0, None  # the domain point and image below the next gap
        for a, v in zip(self.domain, self.images):
            if a - prev > 1:
                out += [choose(lo, v)] * (a - prev - 1)
            out.append(v)
            prev, lo = a, v
        if prev < self.n:
            out += [choose(lo, None)] * (self.n - prev)
        return ChainMap(self.n, tuple(out))

    def __repr__(self) -> str:
        pairs = ", ".join(f"{a}->{b}" for a, b in zip(self.domain, self.images))
        return f"PartialMap({pairs})"


class RangeSet(_Frozen):
    """A nonempty subset of {1..n}, kept sorted strictly increasing.

    ``_member_set``, the members as a frozenset for membership tests, is
    built once here; it is not a field, so equality, hashing and the
    constructor ignore it.
    """

    __slots__ = ("n", "members", "_member_set")

    def __init__(self, n: int, members: tuple[int, ...]) -> None:
        _set(self, "n", n)
        _set(self, "members", tuple(members))
        _check_points(self.n, self.members, "member", True)
        if not self.members:
            raise DomainError("range set must be nonempty")
        _set(self, "_member_set", frozenset(self.members))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.n, self.members) == (other.n, other.members)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.members))

    def __reduce__(self):
        return self.__class__, (self.n, self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, y: int) -> bool:
        return y in self._member_set

    def without(self, i: int) -> tuple[int, ...]:
        """Members minus the i-th one (1-based)."""
        if not 1 <= i <= len(self.members):
            raise DomainError(f"index {i} outside 1..{len(self.members)}")
        return self.members[: i - 1] + self.members[i:]

    def __repr__(self) -> str:
        return f"RangeSet(n={self.n}, {{{', '.join(map(str, self.members))}}})"


class ConvexPartition(_Frozen):
    """A partition of {1..n} into consecutive intervals.

    Stored as the strictly increasing right endpoints of the blocks,
    ending at n.  Two kernels are equal iff their boundary tuples are.
    """

    __slots__ = ("n", "boundaries")

    def __init__(self, n: int, boundaries: tuple[int, ...]) -> None:
        _set(self, "n", n)
        _set(self, "boundaries", tuple(boundaries))
        _check_points(self.n, self.boundaries, "boundary point", True)
        if not self.boundaries or self.boundaries[-1] != self.n:
            raise DomainError(
                f"boundaries {list(self.boundaries)} must end at {self.n}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.n, self.boundaries) == (other.n, other.boundaries)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.boundaries))

    def __reduce__(self):
        return self.__class__, (self.n, self.boundaries)

    @property
    def weight(self) -> int:
        return len(self.boundaries)

    def blocks(self) -> tuple[tuple[int, int], ...]:
        """Blocks as (first, last) point pairs, in chain order."""
        out = []
        start = 1
        for b in self.boundaries:
            out.append((start, b))
            start = b + 1
        return tuple(out)

    def block_of(self, x: int) -> int:
        """1-based index of the block containing ``x``."""
        if not 1 <= x <= self.n:
            raise DomainError(f"point {x} outside 1..{self.n}")
        return bisect_left(self.boundaries, x) + 1

    def split_block(self, t: int) -> "ConvexPartition":
        """Split off the first point of block ``t`` (1-based) as its own block."""
        if not 1 <= t <= self.weight:
            raise DomainError(f"block {t} outside 1..{self.weight}")
        first, last = self.blocks()[t - 1]
        if first == last:
            raise DomainError(f"block {t} is a singleton, cannot split")
        extra = first
        bs = sorted(self.boundaries + (extra,))
        return ConvexPartition(self.n, tuple(bs))

    def __repr__(self) -> str:
        parts = "|".join(
            ",".join(map(str, range(s, e + 1))) for s, e in self.blocks())
        return f"ConvexPartition({parts})"


# ---------------------------------------------------------------------------
# elementary operations


def identity(n: int) -> ChainMap:
    return ChainMap(n, tuple(range(1, n + 1)))


def constant(n: int, y: int) -> ChainMap:
    """The constant transformation with image {y}."""
    return ChainMap(n, (y,) * n)


def compose(f: ChainMap, g: ChainMap) -> ChainMap:
    """Apply ``f`` first, then ``g``: result(x) = g(f(x))."""
    if f.n != g.n:
        raise DimensionMismatch(f"cannot compose maps on chains {f.n} and {g.n}")
    gi = g.images
    return ChainMap._unchecked(f.n, tuple(gi[v - 1] for v in f.images))


def values(f: ChainMap) -> tuple[int, ...]:
    """The distinct values of ``f``, ascending: the members of its image,
    without building a checked RangeSet."""
    return tuple(dict.fromkeys(f.images))


def image(f: ChainMap) -> RangeSet:
    """The set of values taken by ``f``, as a RangeSet."""
    return RangeSet(f.n, values(f))


def kernel(f: ChainMap) -> ConvexPartition:
    """The fiber partition of ``f``; blocks are consecutive intervals."""
    bounds = [x for x in range(1, f.n) if f.images[x - 1] != f.images[x]]
    bounds.append(f.n)
    return ConvexPartition(f.n, tuple(bounds))


def floor_extension(theta: PartialMap) -> ChainMap:
    """Total extension sending each gap point to its nearest lower neighbour.

    Every x takes the image of the greatest domain point <= x; points
    below the whole domain take the first image.
    """
    return theta.extend(lambda lo, hi: hi if lo is None else lo)


def ceiling_extension(theta: PartialMap) -> ChainMap:
    """Total extension sending each gap point to its nearest upper neighbour.

    Mirror of :func:`floor_extension`: every x takes the image of the
    least domain point >= x, and the last image above the whole domain.
    """
    return theta.extend(lambda lo, hi: lo if hi is None else hi)


def reflect(f: ChainMap) -> ChainMap:
    """Conjugate ``f`` by the reflection x -> n+1-x of the chain.

    The reflection is an involutive automorphism of the whole semigroup
    of order-preserving maps: reflect(fg) = reflect(f) reflect(g).
    """
    n = f.n
    return ChainMap(n, tuple(n + 1 - f.images[n - x] for x in range(1, n + 1)))


def reflect_set(Y: RangeSet) -> RangeSet:
    """The mirror image {n+1-y : y in Y} of a range set."""
    n = Y.n
    return RangeSet(n, tuple(n + 1 - y for y in reversed(Y.members)))


def maps_into(f: ChainMap, Y: RangeSet) -> bool:
    """True iff every value of ``f`` lies in ``Y``."""
    if f.n != Y.n:
        raise DimensionMismatch(f"map on {f.n} vs range set on {Y.n}")
    return Y._member_set.issuperset(f.images)
