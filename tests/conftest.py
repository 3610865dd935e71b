"""Shared fixtures, independent brute-force oracles and test helpers.

The oracles here deliberately avoid the library's own enumeration and
closure code paths: maps are generated as raw tuples and filtered by
definition, so expected values in the tests come from a second route.
The helpers build inputs and read results for the tests; the library
itself has no use for them.  Two references read a library table:
``least_generating_sets`` tries every subset, so it assumes nothing
about which elements a generating set needs, and its closure is checked
against ``brute_force_closure`` elsewhere; ``regular_by_scan`` is the
literal definition of regularity, read off the public product columns.
"""

from itertools import combinations, product

import pytest

from ordrange import (
    PartialMap,
    RangeSet,
    SemigroupTable,
    constant,
    enumerate_elements,
    enumeration,
    green,
    image,
    minimum_generating_set,
)


def brute_force_maps(n, members):
    """All monotone maps into the member set, by filtering every function."""
    out = []
    for seq in product(range(1, n + 1), repeat=n):
        if all(a <= b for a, b in zip(seq, seq[1:])) and set(seq) <= set(members):
            out.append(seq)
    return sorted(out)


def brute_force_closure(seqs):
    """Closure of a set of image tuples under composition, by saturation."""
    done = set(seqs)
    while True:
        fresh = set()
        for f in done:
            for g in done:
                h = tuple(g[v - 1] for v in f)
                if h not in done:
                    fresh.add(h)
        if not fresh:
            return done
        done |= fresh


def least_generating_sets(table):
    """(rank, every least generating set) of a table's semigroup, by
    sweeping all subsets of its ids in ascending size."""
    size = len(table)
    for s in range(1, size + 1):
        found = [frozenset(ids) for ids in combinations(range(size), s)
                 if len(table.closure(ids)) == size]
        if found:
            return s, found
    raise AssertionError("the whole semigroup failed to generate itself")


def regular_by_scan(table):
    """One flag per id: a*b*a == a for some element b.  a*b depends on b
    only through its product column, so one b per column covers them all."""
    columns, slot = table.columns_of(range(len(table)))
    return [any(columns[slot[a]][col[a]] == a for col in columns)
            for a in range(len(table))]


def constructed_ids(table):
    """Ids of the constructed minimum generating set of the table's range
    set in the table."""
    Y = table.range_set
    gens = minimum_generating_set(Y.n, Y, check=False)
    return [table.id_of(g) for g in gens.elements()]


def range_sets(n, smallest=1, largest=None):
    """Every nonempty subset of {1..n} with size in the given band."""
    largest = n if largest is None else largest
    for size in range(smallest, largest + 1):
        for members in combinations(range(1, n + 1), size):
            yield RangeSet(n, members)


def restrict(f, points):
    """The restriction of a total map to a nonempty set of points."""
    dom = tuple(sorted(set(points)))
    return PartialMap(f.n, dom, tuple(f.images[a - 1] for a in dom))


def gaps(theta):
    """``(a, b, lo, hi)`` per gap of a partial map, in chain order: the
    points a+1 .. b-1, with a = 0 before the domain and b = n + 1 after
    it.  ``lo`` and ``hi`` are the images at a and b, or None past either
    end.  Gap t follows the t-point prefix ideal of the domain; it may be
    empty."""
    dom, img = theta.domain, theta.images
    return zip((0,) + dom, dom + (theta.n + 1,), (None,) + img, img + (None,))


def fixed_points(f):
    """The points a total map sends to themselves."""
    return frozenset(x for x in range(1, f.n + 1) if f.images[x - 1] == x)


def extend_by_gaps(theta, choose):
    """Reference for ``PartialMap.extend``, read off ``gaps(theta)``: the
    image of each domain point, then ``choose(lo, hi)`` on every point of
    each nonempty gap; returns the image tuple and the (lo, hi) pairs
    ``choose`` was called with, in chain order."""
    out, calls = [], []
    for a, b, lo, hi in gaps(theta):
        if a:
            out.append(lo)
        if b - a > 1:
            calls.append((lo, hi))
            out += [choose(lo, hi)] * (b - a - 1)
    return tuple(out), calls


def reflect_partial(theta):
    """Conjugate of a partial map by the reflection x -> n+1-x."""
    n = theta.n
    dom = tuple(n + 1 - a for a in reversed(theta.domain))
    img = tuple(n + 1 - b for b in reversed(theta.images))
    return PartialMap(n, dom, img)


def refines(fine, coarse):
    """Every block of one convex partition sits inside a block of another."""
    return set(coarse.boundaries) <= set(fine.boundaries)


def maps_with_image_size(Y, k):
    """The maps into Y whose image has exactly k values."""
    return [f for f in enumerate_elements(Y) if len(image(f)) == k]


def corank_one_class(table, Y, j):
    """Ids of the table's elements whose image is Y minus its j-th member."""
    want = Y.without(j)
    return frozenset(i for i, el in enumerate(table.elements)
                     if image(el).members == want)


def mixed_constants(table):
    """The identity of a table on (3, {1, 2, 3}), but for its constants,
    sent in the order 2, 1, 3: onto the range set, and neither monotone
    nor antitone."""
    c1, c2 = (table.id_of(constant(3, y)) for y in (1, 2))
    phi = {a: a for a in range(len(table))}
    phi[c1], phi[c2] = c2, c1
    return phi


@pytest.fixture
def y13():
    return RangeSet(3, (1, 3))


@pytest.fixture
def scc_runs(monkeypatch):
    """The node count of every component labelling run while the test
    runs: the Cayley-graph labellings and the Green oracle's D hub graph."""
    runs = []
    real = enumeration.scc_labels

    def counted(adj):
        runs.append(len(adj))
        return real(adj)

    monkeypatch.setattr(enumeration, "scc_labels", counted)
    monkeypatch.setattr(green, "scc_labels", counted)
    return runs


@pytest.fixture
def table_builds(monkeypatch):
    """The range set of every SemigroupTable built while the test runs,
    counted at the class, so no import binding is missed."""
    built = []
    init = SemigroupTable.__init__

    def counted(self, Y):
        built.append(Y)
        init(self, Y)

    monkeypatch.setattr(SemigroupTable, "__init__", counted)
    return built
