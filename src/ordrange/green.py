"""Green's relations on the semigroup of monotone maps into a range set.

Two code paths are kept deliberately separate: a characterized class
key per relation (``green_key``: two maps are related iff their keys
agree), read from images, kernels and regularity, and a
definition-based oracle that partitions an enumerated table by
principal-ideal containment, reading R, L and J off its Cayley graphs
over every element (``enumeration.cayley_labels``, shared with the
regularity oracle).  Each path gives any of the five relations in one
call: ``green_partitions`` reads each element's regularity, values and
kernel at most once, through the same per-element routine as
``green_key`` and ``green_classes``, and ``green_partitions_by_ideals``
runs each labelling at most once.
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
_READ_REGULARITY = frozenset("LDJ")  # the keys that split on regularity


def green_key(relation: str, alpha: ChainMap, Y: RangeSet) -> tuple:
    """The characterized class key: two maps are related iff keys agree.

    L: the image for a regular map, the map itself otherwise; R: the
    kernel; H: the map itself (H-trivial); D and J: the image size for a
    regular map, the kernel otherwise.  For every relation a map that
    does not map into Y raises DomainError (DimensionMismatch when it
    lives on another chain).
    """
    return _keys((relation,), alpha, Y)[0]


def _keys(relations: Sequence[str], alpha: ChainMap, Y: RangeSet
          ) -> list[tuple]:
    """The key of ``alpha`` under each of ``relations``, in order (see
    :func:`green_key`): its regularity, values and kernel are each read
    at most once, and only when a relation asked for needs them."""
    if _READ_REGULARITY.isdisjoint(relations):
        check_maps_into(alpha, Y)
        regular = None
    else:
        regular = is_regular(alpha, Y)  # makes the membership check
    vals = ker = None
    keys = []
    for relation in relations:
        if relation == "H" or (relation == "L" and not regular):
            keys.append(("el", alpha.images))
        elif relation == "R" or (relation in ("D", "J") and not regular):
            ker = ker or kernel(alpha).boundaries
            keys.append(("ker", ker))
        elif relation in ("L", "D", "J"):
            vals = vals or values(alpha)
            keys.append(("im", vals) if relation == "L"
                        else ("rank", len(vals)))
        else:
            raise DomainError(f"unknown relation {relation!r}")
    return keys


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
    """Partition by the characterized form of one relation (L/R/H/D/J):
    see :func:`green_partitions`."""
    return green_partitions(table, (relation,))[relation]


def green_partitions(table: SemigroupTable, relations: Sequence[str]
                     ) -> dict[str, list[list[int]]]:
    """Characterized partitions of the table, one per relation asked for.

    The twin of :func:`green_partitions_by_ideals`: one pass keys each
    element under every relation at once, so its regularity, values and
    kernel are each read at most once, and only when an asked relation
    needs them (H and R read no regularity).  An unknown relation raises
    DomainError.
    """
    Y = table.range_set
    rows = [_keys(relations, f, Y) for f in table.elements]
    return {relation: _partition(keys)
            for relation, keys in zip(relations, zip(*rows))}


def _partition(keys: Sequence) -> list[list[int]]:
    """The ids grouped by equal key: classes by least id, ids ascending."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return list(groups.values())


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
    return {relation: _partition(keys[relation]) for relation in relations}
