import math
import re

import pytest

from conftest import (
    brute_force_closure,
    brute_force_maps,
    constructed_ids,
    maps_with_image_size,
    range_sets,
)
from ordrange import (
    ChainMap,
    DomainError,
    GuardExceeded,
    RangeSet,
    SemigroupTable,
    compose,
    count_maps,
    enumerate_elements,
    enumerate_semigroup,
    full_image_maps,
    green_classes,
    minimum_generating_set,
)
from ordrange.enumeration import cayley_labels, check_guard


class TestCount:
    def test_small_values(self):
        assert count_maps(3, 2) == 4
        assert count_maps(3, 3) == 10
        assert all(count_maps(n, 1) == 1 for n in range(1, 9))

    def test_rejects_bad_r(self):
        with pytest.raises(DomainError):
            count_maps(3, 0)
        with pytest.raises(DomainError):
            count_maps(3, 4)

    @pytest.mark.parametrize("n, r, message", [
        (3.0, 2, "chain size 3.0 is not an int"),
        (True, 1, "chain size True is not an int"),
        (3, 2.0, "range size 2.0 is not an int"),
        (3, True, "range size True is not an int"),
    ])
    def test_rejects_sizes_that_are_not_ints(self, n, r, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            count_maps(n, r)

    def test_big_values_exact(self):
        # exact integer arithmetic well beyond enumeration sizes
        assert count_maps(200, 100) == math.comb(299, 99)


class TestEnumerate:
    def test_golden_y13(self, y13):
        got = [f.images for f in enumerate_elements(y13)]
        assert got == [(1, 1, 1), (1, 1, 3), (1, 3, 3), (3, 3, 3)]

    def test_full_range_n3(self):
        assert len(enumerate_elements(RangeSet(3, (1, 2, 3)))) == 10

    def test_singleton_range(self):
        got = enumerate_elements(RangeSet(2, (2,)))
        assert got == [ChainMap(2, (2, 2))]

    def test_matches_brute_force(self):
        for n in range(1, 6):
            for Y in range_sets(n):
                ours = [f.images for f in enumerate_elements(Y)]
                assert ours == brute_force_maps(n, Y.members)

    def test_lexicographic_order(self):
        for Y in range_sets(5):
            seqs = [f.images for f in enumerate_elements(Y)]
            assert seqs == sorted(seqs)

    def test_counts_match_formula(self):
        for n in range(1, 7):
            for Y in range_sets(n):
                assert len(enumerate_elements(Y)) == count_maps(n, len(Y))

    def test_closed_under_compose(self):
        for Y in range_sets(4):
            elements = enumerate_elements(Y)
            have = {f.images for f in elements}
            for f in elements:
                for g in elements:
                    assert compose(f, g).images in have


class TestImageSizeStrata:
    def test_golden(self, y13):
        got = {f.images for f in maps_with_image_size(y13, 2)}
        assert got == {(1, 1, 3), (1, 3, 3)}
        ones = {f.images for f in maps_with_image_size(y13, 1)}
        assert ones == {(1, 1, 1), (3, 3, 3)}

    def test_count_formula(self):
        for n in range(1, 6):
            for Y in range_sets(n):
                r = len(Y)
                for k in range(1, r + 1):
                    got = maps_with_image_size(Y, k)
                    assert len(got) == math.comb(n - 1, k - 1) * math.comb(r, k)

    def test_strata_partition_everything(self):
        for Y in range_sets(5):
            total = sum(len(maps_with_image_size(Y, k))
                        for k in range(1, len(Y) + 1))
            assert total == count_maps(5, len(Y))

    def test_example_n4(self):
        got = maps_with_image_size(RangeSet(4, (1, 2, 3)), 3)
        assert len(got) == 3


class TestTable:
    def test_products_match_compose(self, y13):
        table = enumerate_semigroup(y13)
        for i, f in enumerate(table.elements):
            for j, g in enumerate(table.elements):
                assert table.elements[table.product(i, j)] == compose(f, g)

    def test_lazy_columns_match_compose(self):
        # columns filled on first use
        table = enumerate_semigroup(RangeSet(5, (1, 2, 4)))
        for i, f in enumerate(table.elements):
            for j, g in enumerate(table.elements):
                assert table.elements[table.product(i, j)] == compose(f, g)

    def test_columns_of_lists_each_distinct_column_once(self):
        # one column per monotone self-map of Y: C(2r-1, r-1) of them
        for n in range(1, 6):
            for Y in range_sets(n):
                table = enumerate_semigroup(Y)
                ids = range(len(table))
                columns, slot = table.columns_of(ids)
                r = len(Y)
                assert len({tuple(col) for col in columns}) == len(columns) \
                    == math.comb(2 * r - 1, r - 1), (n, Y)
                for j in ids:
                    assert columns[slot[j]] == [table.product(i, j) for i in ids]
        table = enumerate_semigroup(RangeSet(4, (1, 3, 4)))
        columns, slot = table.columns_of(range(len(table)))
        assert table.columns_of([7, 7]) == ([columns[slot[7]]], [0, 0])

    def test_constructor_is_the_enumeration(self):
        Y = RangeSet(4, (1, 3))
        table = SemigroupTable(Y)
        assert table.elements == tuple(enumerate_elements(Y))
        assert [table.id_of(f) for f in table.elements] == list(range(len(table)))

    def test_closure_method(self, y13):
        table = enumerate_semigroup(y13)
        everything = table.closure(range(len(table)))
        assert everything == frozenset(range(len(table)))

    def test_closure_of_generators_sharing_a_column(self):
        # full-image maps with one restriction to Y share a column; the
        # full-image class alone misses the captive corank-one classes
        shared = 0
        for Y in range_sets(5, smallest=2, largest=4):
            table = enumerate_semigroup(Y)
            for seed in (full_image_maps(Y),
                         minimum_generating_set(5, Y, check=False).elements()):
                ids = [table.id_of(f) for f in seed]
                columns, _ = table.columns_of(ids)
                shared += len(columns) < len(ids)
                got = {table.elements[i].images for i in table.closure(ids)}
                assert got == brute_force_closure([f.images for f in seed]), Y
        assert shared == 44  # of 50 seeds

    def test_closure_rejects_out_of_range_ids(self, y13):
        table = enumerate_semigroup(y13)
        for bad in (-1, len(table)):
            with pytest.raises(DomainError):
                table.closure([0, bad])

    def test_closure_of_a_cover_reads_no_column(self, y13, monkeypatch):
        """Ids that cover the table are their own closure, with no BFS;
        a list of the table's length holding an id out of range is no
        cover, and is refused."""
        table = enumerate_semigroup(y13)
        read = table.columns_of
        calls = []
        monkeypatch.setattr(table, "columns_of",
                            lambda ids: calls.append(1) or read(ids))
        size = len(table)
        assert table.closure(range(size)) == frozenset(range(size))
        assert calls == []
        with pytest.raises(DomainError):
            table.closure([*range(size - 1), size])

    def test_rejects_out_of_range_ids(self, y13):
        table = enumerate_semigroup(y13)
        for bad in (-1, len(table)):
            for call in (lambda: table.product(bad, 0),
                         lambda: table.product(0, bad),
                         lambda: table.columns_of([0, bad])):
                with pytest.raises(DomainError):
                    call()

    def test_id_of_is_the_position(self):
        for n in range(1, 7):
            for Y in range_sets(n):
                table = enumerate_semigroup(Y)
                assert [table.id_of(f) for f in table.elements] \
                    == list(range(len(table))), Y
        table = enumerate_semigroup(RangeSet(12, (2, 5, 6, 7, 12)))
        assert [table.id_of(f) for f in table.elements[::7]] \
            == list(range(0, len(table), 7))

    def test_id_of_rejects_other_maps(self):
        table = enumerate_semigroup(RangeSet(4, (1, 3, 4)))
        for f in (ChainMap(4, (1, 2, 3, 4)),  # 2 is not in Y
                  ChainMap(3, (1, 3, 3)), ChainMap(5, (1, 3, 4, 4, 4))):
            with pytest.raises(DomainError):
                table.id_of(f)

    def test_every_column_matches_compose(self):
        for n, members, step in ((6, (1, 2, 3, 4, 5, 6), 1),
                                 (12, (2, 5, 6, 7, 12), 181)):
            table = enumerate_semigroup(RangeSet(n, members))
            els = table.elements
            for j in range(0, len(table), step):
                g = els[j]
                columns, _ = table.columns_of([j])
                assert [els[p] for p in columns[0]] \
                    == [compose(f, g) for f in els], (n, j)

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            enumerate_semigroup(RangeSet(9, tuple(range(1, 10))))

    def test_check_guard_takes_the_limit(self):
        check_guard(10, 10)
        with pytest.raises(GuardExceeded, match=(
                r"^semigroup has 10 elements, above the guard 9$")):
            check_guard(10, 9)


class TestCayleyLabels:
    @pytest.mark.parametrize("sides", ["R", "L", "J", "RL", "RLJ"])
    def test_every_id_reads_the_columns_once(self, monkeypatch, scc_runs,
                                             sides):
        """Every id generates with no closure BFS: one ``columns_of``
        pass serves both edge sets, and only the asked sides are
        labelled."""
        table = enumerate_semigroup(RangeSet(5, (1, 2, 4, 5)))
        read, calls = table.columns_of, []
        monkeypatch.setattr(table, "columns_of",
                            lambda ids: calls.append(1) or read(ids))
        labels = cayley_labels(table, range(len(table)), sides)
        assert sorted(labels) == sorted(sides)
        assert len(calls) == 1 and len(scc_runs) == len(sides)
        assert all(len(v) == len(table) for v in labels.values())

    def test_any_generating_set_gives_the_characterized_classes(self):
        """The constructed ids and every id give the same R, L and J
        partitions, and those are the characterized classes.  Every range
        set with n <= 5, and the n = 6 whole chain."""
        tables = [enumerate_semigroup(Y) for n in range(1, 6)
                  for Y in range_sets(n)]
        tables.append(enumerate_semigroup(RangeSet(6, (1, 2, 3, 4, 5, 6))))
        for table in tables:
            every = cayley_labels(table, range(len(table)), "RLJ")
            constructed = cayley_labels(table, constructed_ids(table), "RLJ")
            for side in "RLJ":
                assert classes_of(every[side]) == \
                    classes_of(constructed[side]) == \
                    green_classes(side, table), (table.range_set, side)

    @pytest.mark.parametrize("sides", ["R", "L", "RLJ"])
    def test_ids_that_do_not_generate_refused(self, sides):
        table = enumerate_semigroup(RangeSet(5, (1, 3, 4)))
        ids = constructed_ids(table)[1:]
        assert len(table.closure(ids)) < len(table)
        with pytest.raises(AssertionError,
                           match="^the ids do not generate the table$"):
            cayley_labels(table, ids, sides)


def classes_of(labels):
    """A labelling as a partition: classes by least id, ids ascending."""
    classes = {}
    for i, label in enumerate(labels):
        classes.setdefault(label, []).append(i)
    return list(classes.values())
