"""Green's relations on the semigroup of monotone maps into a range set.

Two code paths are kept deliberately separate: a characterized class
key per relation (``green_key``: two maps are related iff their keys
agree), read from images, kernels and regularity, and a
definition-based oracle that partitions an enumerated table by
principal-ideal containment, reading R, L and J off its Cayley graphs
over every element (``enumeration.cayley_labels``, shared with the
regularity oracle); ``green_partitions_by_ideals`` gives any of the five
relations in one call.
Both return a partition as a plain value, one list of element ids per
class: classes in order of least id, ids ascending inside each, so two
partitions are equal iff the lists are.  ``egg_box`` turns a partition
into the printed report.
"""

from __future__ import annotations

from typing import Sequence

from .chain import ChainMap, DomainError, RangeSet, check_maps_into, kernel, values
from .enumeration import SemigroupTable, cayley_labels, scc_labels
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
            return ("im", values(alpha))
        return ("el", alpha.images)
    if relation in ("D", "J"):
        if is_regular(alpha, Y):
            return ("rank", len(values(alpha)))
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
        ims = {values(table.elements[i]) for i in ids}
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
    """Definition-based oracle partition for one relation: see
    :func:`green_partitions_by_ideals`."""
    return green_partitions_by_ideals(table, (relation,))[relation]


def green_partitions_by_ideals(table: SemigroupTable, relations: Sequence[str]
                               ) -> dict[str, list[list[int]]]:
    """Definition-based oracle partitions, from the Cayley graphs of the table.

    R-, L- and J-classes are the labels of :func:`enumeration.cayley_labels`
    over every element, which needs no closure search.  H intersects L
    and R, and D is the transitive closure of L union R with no
    commutation assumption: the components of the graph joining each
    element, both ways, to a hub node for its L-class and one for its
    R-class.  Each labelling (R, L, J and the D hub graph) runs at most
    once, however many of ``relations`` read it; one partition each.
    """
    for relation in relations:
        if relation not in RELATIONS:
            raise DomainError(f"unknown relation {relation!r}")
    wanted = set(relations)
    if wanted & {"H", "D"}:
        wanted |= {"L", "R"}
    size = len(table)
    keys = cayley_labels(table, range(size), wanted & set("RLJ"))
    if "H" in wanted:
        keys["H"] = list(zip(keys["L"], keys["R"]))
    if "D" in wanted:  # L- and R-classes joined through one hub per class
        hubs: dict[tuple, list[int]] = {}
        for side in "LR":
            for i, lab in enumerate(keys[side]):
                hubs.setdefault((side, lab), []).append(i)
        adj: list[list[int]] = [[] for _ in range(size)]
        for hub, members in enumerate(hubs.values(), start=size):
            for i in members:
                adj[i].append(hub)
        keys["D"] = scc_labels(adj + list(hubs.values()))[:size]
    out = {}
    for relation in relations:
        groups: dict = {}
        for i, key in enumerate(keys[relation]):
            groups.setdefault(key, []).append(i)
        out[relation] = list(groups.values())
    return out
