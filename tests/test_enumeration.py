import math

import pytest

from conftest import brute_force_maps, maps_with_image_size, range_sets
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
    identity,
    image,
    regular_elements,
)


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

    def test_big_values_exact(self):
        # exact integer arithmetic well beyond enumeration sizes
        assert count_maps(200, 100) == math.comb(299, 99)


class TestEnumerate:
    def test_golden_y13(self, y13):
        got = [f.images for f in enumerate_elements(3, y13)]
        assert got == [(1, 1, 1), (1, 1, 3), (1, 3, 3), (3, 3, 3)]

    def test_full_range_n3(self):
        assert len(enumerate_elements(3, RangeSet(3, (1, 2, 3)))) == 10

    def test_singleton_range(self):
        got = enumerate_elements(2, RangeSet(2, (2,)))
        assert got == [ChainMap(2, (2, 2))]

    def test_matches_brute_force(self):
        for n in range(1, 6):
            for Y in range_sets(n):
                ours = [f.images for f in enumerate_elements(n, Y)]
                assert ours == brute_force_maps(n, Y.members)

    def test_lexicographic_order(self):
        for Y in range_sets(5):
            seqs = [f.images for f in enumerate_elements(5, Y)]
            assert seqs == sorted(seqs)

    def test_counts_match_formula(self):
        for n in range(1, 7):
            for Y in range_sets(n):
                assert len(enumerate_elements(n, Y)) == count_maps(n, len(Y))

    def test_closed_under_compose(self):
        for Y in range_sets(4):
            elements = enumerate_elements(4, Y)
            have = {f.images for f in elements}
            for f in elements:
                for g in elements:
                    assert compose(f, g).images in have


class TestImageSizeStrata:
    def test_golden(self, y13):
        got = {f.images for f in maps_with_image_size(3, y13, 2)}
        assert got == {(1, 1, 3), (1, 3, 3)}
        ones = {f.images for f in maps_with_image_size(3, y13, 1)}
        assert ones == {(1, 1, 1), (3, 3, 3)}

    def test_count_formula(self):
        for n in range(1, 6):
            for Y in range_sets(n):
                r = len(Y)
                for k in range(1, r + 1):
                    got = maps_with_image_size(n, Y, k)
                    assert len(got) == math.comb(n - 1, k - 1) * math.comb(r, k)

    def test_strata_partition_everything(self):
        for Y in range_sets(5):
            total = sum(len(maps_with_image_size(5, Y, k))
                        for k in range(1, len(Y) + 1))
            assert total == count_maps(5, len(Y))

    def test_example_n4(self):
        got = maps_with_image_size(4, RangeSet(4, (1, 2, 3)), 3)
        assert len(got) == 3


class TestTable:
    def test_products_match_compose(self, y13):
        table = enumerate_semigroup(3, y13)
        for i, f in enumerate(table.elements):
            for j, g in enumerate(table.elements):
                assert table.elements[table.product(i, j)] == compose(f, g)

    def test_lazy_columns_match_compose(self):
        # all maps into Y: closed by count, columns filled on first use
        table = enumerate_semigroup(5, RangeSet(5, (1, 2, 4)))
        for i, f in enumerate(table.elements):
            for j, g in enumerate(table.elements):
                assert table.elements[table.product(i, j)] == compose(f, g)

    def test_closed_subset_fills_every_column(self):
        # a proper closed subset is checked by filling every column
        table = SemigroupTable(regular_elements(4, RangeSet(4, (2, 3))))
        assert len(table) == 3
        for i, f in enumerate(table.elements):
            for j, g in enumerate(table.elements):
                assert table.elements[table.product(i, j)] == compose(f, g)

    def test_columns_of_lists_each_distinct_column_once(self):
        # restriction to Y = {1, 3, 4} is onto O_3, so 10 distinct columns
        table = enumerate_semigroup(4, RangeSet(4, (1, 3, 4)))
        ids = range(len(table))
        columns, slot = table.columns_of(ids)
        assert len({tuple(col) for col in columns}) == len(columns) == 10
        for j in ids:
            assert columns[slot[j]] == [table.product(i, j) for i in ids]
        assert table.columns_of([7, 7]) == ([columns[slot[7]]], [0, 0])

    def test_identity_flag(self):
        full = enumerate_semigroup(3, RangeSet(3, (1, 2, 3)))
        assert full.has_identity
        assert full.elements[full.identity_id()] == identity(3)
        small = enumerate_semigroup(3, RangeSet(3, (1, 3)))
        assert not small.has_identity
        assert small.identity_id() is None

    def test_rejects_non_closed(self):
        f = ChainMap(3, (2, 2, 3))  # f*f = (2,2,3)? no: f(f(x)) hits 2,3 only
        g = ChainMap(3, (1, 2, 2))
        with pytest.raises(DomainError):
            SemigroupTable([f, g])

    def test_rejects_duplicates(self):
        f = ChainMap(3, (1, 1, 1))
        with pytest.raises(DomainError):
            SemigroupTable([f, f])

    def test_closure_method(self, y13):
        table = enumerate_semigroup(3, y13)
        everything = table.closure(range(len(table)))
        assert everything == frozenset(range(len(table)))

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            enumerate_semigroup(9, RangeSet(9, tuple(range(1, 10))))
