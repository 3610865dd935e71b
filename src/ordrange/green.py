"""Green's relations on the semigroup of monotone maps into a range set.

Two code paths are kept deliberately separate: a characterized class
key per relation (``green_key``: two maps are related iff their keys
agree), read from images, kernels and regularity, and a
definition-based oracle that partitions an enumerated table into the
strongly connected components of its Cayley graphs, whose reachability
is principal-ideal containment, labelled by ``enumeration.scc_labels``
(shared with the regularity oracle).  Both return a partition as a plain
value, one list of element ids per class: classes in order of least id,
ids ascending inside each, so two partitions are equal iff the lists
are.  ``egg_box`` turns a partition into the printed report.
"""

from __future__ import annotations

from typing import Sequence

from .chain import ChainMap, DomainError, RangeSet, check_maps_into, image, kernel
from .enumeration import SemigroupTable, scc_labels
from .regularity import is_regular

RELATIONS = ("L", "R", "H", "D", "J")


def green_key(relation: str, alpha: ChainMap, Y: RangeSet) -> tuple:
    """The characterized class key: two maps are related iff keys agree.

    L: the image for a regular map, the map itself otherwise; R: the
    kernel; H: the map itself (H-trivial); D and J: the image size for a
    regular map, the kernel otherwise.  For every relation a map that
    does not map into Y raises DomainError (DimensionMismatch when it
    lives on another chain).
    """
    if relation == "L":  # is_regular makes the membership check
        if is_regular(alpha, Y):
            return ("im", image(alpha).members)
        return ("el", alpha.images)
    if relation in ("D", "J"):
        if is_regular(alpha, Y):
            return ("rank", len(image(alpha)))
        return ("ker", kernel(alpha).boundaries)
    check_maps_into(alpha, Y)
    if relation == "H":
        return ("el", alpha.images)
    if relation == "R":
        return ("ker", kernel(alpha).boundaries)
    raise DomainError(f"unknown relation {relation!r}")


def egg_box(relation: str, table: SemigroupTable, classes: list[list[int]],
            regular: Sequence[bool]) -> dict:
    """The egg-box report of a partition of ``table``.

    ``regular`` holds one regularity flag per element.  Classes are
    sorted by (image size descending, least id); ``meta`` carries one
    record per class: size, image size, regularity flag, plus the shared
    image (or kernel boundaries) when the class has one.
    """
    rows = []
    for ids in classes:
        ims = {image(table.elements[i]).members for i in ids}
        kers = {kernel(table.elements[i]).boundaries for i in ids}
        rows.append((ids, {
            "size": len(ids),
            "image_size": max(map(len, ims)),
            "image": list(next(iter(ims))) if len(ims) == 1 else None,
            "kernel": list(next(iter(kers))) if len(kers) == 1 else None,
            "regular": all(regular[i] for i in ids),
        }))
    rows.sort(key=lambda row: (-row[1]["image_size"], row[0][0]))
    return {
        "relation": relation,
        "classes": [ids for ids, _ in rows],
        "meta": [meta for _, meta in rows],
    }


def green_classes(relation: str, table: SemigroupTable) -> list[list[int]]:
    """Partition by the characterized form of one relation (L/R/H/D/J)."""
    Y = table.range_set
    keys: dict[tuple, list[int]] = {}
    for i, el in enumerate(table.elements):
        keys.setdefault(green_key(relation, el, Y), []).append(i)
    return list(keys.values())


def green_classes_by_ideals(relation: str,
                            table: SemigroupTable) -> list[list[int]]:
    """Definition-based oracle partition, from the Cayley graphs of the table.

    b lies in the principal right ideal aS^1 iff b is reachable from a
    along right edges a -> a*s, so R-classes are the strongly connected
    components of the right Cayley graph; L-classes those of the left
    graph (a -> s*a), J-classes those of both edge sets together.  The
    empty path stands for the adjoined identity, so no identity is
    needed in the table.  H intersects L and R, and D is the transitive
    closure of L union R with no commutation assumption: the components
    of the graph joining each element, both ways, to a hub node for its
    L-class and one for its R-class.

    a*s depends on s only through its product column, so one s per
    column gives every right edge.  The left edges of a are the entries
    of its column; they run through one extra node per column.
    """
    if relation not in RELATIONS:
        raise DomainError(f"unknown relation {relation!r}")
    size = len(table)
    columns, slot = table.columns_of(range(size))
    right = list(zip(*columns))
    left = [(size + c,) for c in slot] + [tuple(set(col)) for col in columns]

    def components(adj: list[Sequence[int]]) -> list[int]:
        return scc_labels(adj)[:size]

    if relation == "R":
        keys: list = components(right)
    elif relation == "L":
        keys = components(left)
    elif relation == "J":
        keys = components([r + e for r, e in zip(right, left)] + left[size:])
    elif relation == "H":
        keys = list(zip(components(left), components(right)))
    else:  # D: L- and R-classes joined through one hub node per class
        hubs: dict[tuple, list[int]] = {}
        for side, labels in enumerate((components(left), components(right))):
            for i, lab in enumerate(labels):
                hubs.setdefault((side, lab), []).append(i)
        adj: list[list[int]] = [[] for _ in range(size)]
        for hub, members in enumerate(hubs.values(), start=size):
            for i in members:
                adj[i].append(hub)
        keys = components(adj + list(hubs.values()))
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return list(groups.values())
