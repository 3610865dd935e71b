"""Green's relations on the semigroup of monotone maps into a range set.

Two code paths are kept deliberately separate: characterized predicates
that decide each relation from images, kernels and regularity, and a
definition-based oracle that partitions an enumerated table through
principal ideals.  The egg-box report is the common output format.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chain import ChainMap, DomainError, RangeSet, image, kernel
from .enumeration import SemigroupTable
from .regularity import is_regular

RELATIONS = ("L", "R", "H", "D", "J")


def green_key(relation: str, alpha: ChainMap, Y: RangeSet) -> tuple:
    """The characterized class key: two maps are related iff keys agree.

    L: the image for a regular map, the map itself otherwise; R: the
    kernel; H: the map itself (H-trivial); D and J: the image size for a
    regular map, the kernel otherwise.
    """
    if relation == "H":
        return ("el", alpha.images)
    if relation == "R":
        return ("ker", kernel(alpha).boundaries)
    if relation == "L":
        if is_regular(alpha, Y):
            return ("im", image(alpha).members)
        return ("el", alpha.images)
    if relation in ("D", "J"):
        if is_regular(alpha, Y):
            return ("rank", len(image(alpha)))
        return ("ker", kernel(alpha).boundaries)
    raise DomainError(f"unknown relation {relation!r}")


def _related(relation: str, alpha: ChainMap, beta: ChainMap, Y: RangeSet) -> bool:
    return green_key(relation, alpha, Y) == green_key(relation, beta, Y)


def l_related(alpha: ChainMap, beta: ChainMap, Y: RangeSet) -> bool:
    """Same principal left ideal: equal, or both regular with equal images."""
    return _related("L", alpha, beta, Y)


def r_related(alpha: ChainMap, beta: ChainMap, Y: RangeSet) -> bool:
    """Same principal right ideal: equal kernels."""
    if Y.n != alpha.n or Y.n != beta.n:
        raise DomainError("mismatched chain sizes")
    return _related("R", alpha, beta, Y)


def h_related(alpha: ChainMap, beta: ChainMap, Y: RangeSet) -> bool:
    """The semigroup is H-trivial: related iff equal."""
    return _related("H", alpha, beta, Y)


def d_related(alpha: ChainMap, beta: ChainMap, Y: RangeSet) -> bool:
    """Both regular with equally many values, or both irregular kernel-equal."""
    return _related("D", alpha, beta, Y)


def j_related(alpha: ChainMap, beta: ChainMap, Y: RangeSet) -> bool:
    """Coincides with the D relation on a finite semigroup."""
    return _related("J", alpha, beta, Y)


@dataclass(frozen=True)
class EggBox:
    """Partition of a semigroup under one Green's relation.

    Classes are tuples of element ids, sorted by (image size descending,
    least id); ``meta`` carries one record per class: size, image size,
    regularity flag, plus the shared image (or kernel boundaries) when
    the class has one.
    """

    relation: str
    classes: tuple[tuple[int, ...], ...]
    meta: tuple[dict, ...]

    def class_of(self, i: int) -> tuple[int, ...]:
        for cls in self.classes:
            if i in cls:
                return cls
        raise DomainError(f"element id {i} not in any class")

    def as_sets(self) -> set[frozenset[int]]:
        return {frozenset(c) for c in self.classes}


def _finish(relation: str, table: SemigroupTable, Y: RangeSet | None,
            groups: list[list[int]]) -> EggBox:
    if Y is not None:
        regular_flags = [is_regular(el, Y) for el in table.elements]
    else:
        # definition-based, for oracle egg-boxes
        regular_flags = [table.is_regular_id(a) for a in range(len(table))]
    packed = []
    for ids in groups:
        ids = tuple(sorted(ids))
        ims = {image(table.elements[i]).members for i in ids}
        kers = {kernel(table.elements[i]).boundaries for i in ids}
        size_im = max(len(t) for t in ims)
        meta = {
            "size": len(ids),
            "image_size": size_im,
            "image": list(next(iter(ims))) if len(ims) == 1 else None,
            "kernel": list(next(iter(kers))) if len(kers) == 1 else None,
            "regular": all(regular_flags[i] for i in ids),
        }
        packed.append((ids, meta))
    packed.sort(key=lambda pair: (-pair[1]["image_size"], pair[0][0]))
    return EggBox(
        relation,
        tuple(ids for ids, _ in packed),
        tuple(meta for _, meta in packed),
    )


def green_classes(relation: str, table: SemigroupTable, Y: RangeSet) -> EggBox:
    """Partition by the characterized form of one relation (L/R/H/D/J)."""
    keys: dict[tuple, list[int]] = {}
    for i, el in enumerate(table.elements):
        keys.setdefault(green_key(relation, el, Y), []).append(i)
    return _finish(relation, table, Y, list(keys.values()))


def _left_ideal(table: SemigroupTable, a: int) -> frozenset[int]:
    out = {a}
    for s in range(len(table)):
        out.add(table.product(s, a))
    return frozenset(out)


def _right_ideal(table: SemigroupTable, a: int) -> frozenset[int]:
    out = {a}
    for s in range(len(table)):
        out.add(table.product(a, s))
    return frozenset(out)


def _two_sided_ideal(table: SemigroupTable, a: int) -> frozenset[int]:
    right = _right_ideal(table, a)
    out = set(right)
    for s in range(len(table)):
        for x in right:
            out.add(table.product(s, x))
    return frozenset(out)


def _group_by(items: list[frozenset[int]]) -> list[list[int]]:
    buckets: dict[frozenset[int], list[int]] = {}
    for i, key in enumerate(items):
        buckets.setdefault(key, []).append(i)
    return list(buckets.values())


def green_classes_by_ideals(relation: str, table: SemigroupTable) -> EggBox:
    """Definition-based oracle partition, computed from principal ideals.

    L compares left ideals, R right ideals, J two-sided ideals (each with
    an identity adjoined when the table lacks one, which the {a}-union
    handles implicitly), H intersects L and R, and D is the transitive
    closure of L union R with no commutation assumption.
    """
    if relation not in RELATIONS:
        raise DomainError(f"unknown relation {relation!r}")
    size = len(table)
    if relation == "L":
        groups = _group_by([_left_ideal(table, a) for a in range(size)])
    elif relation == "R":
        groups = _group_by([_right_ideal(table, a) for a in range(size)])
    elif relation == "J":
        groups = _group_by([_two_sided_ideal(table, a) for a in range(size)])
    elif relation == "H":
        lefts = [_left_ideal(table, a) for a in range(size)]
        rights = [_right_ideal(table, a) for a in range(size)]
        buckets: dict[tuple, list[int]] = {}
        for i in range(size):
            buckets.setdefault((lefts[i], rights[i]), []).append(i)
        groups = list(buckets.values())
    else:  # D: transitive closure of L | R via union-find
        parent = list(range(size))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x: int, y: int) -> None:
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[ry] = rx

        for part in (
            _group_by([_left_ideal(table, a) for a in range(size)]),
            _group_by([_right_ideal(table, a) for a in range(size)]),
        ):
            for ids in part:
                for other in ids[1:]:
                    union(ids[0], other)
        buckets2: dict[int, list[int]] = {}
        for i in range(size):
            buckets2.setdefault(find(i), []).append(i)
        groups = list(buckets2.values())
    return _finish(relation, table, None, groups)
