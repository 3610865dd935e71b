import pytest

from conftest import constructed_ids, range_sets, regular_by_scan
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
    is_regular,
    is_regular_by_search,
    is_semigroup_regular,
    minimum_generating_set,
    regular_elements,
)

cm = ChainMap.from_images
_WHOLE_9 = RangeSet(9, tuple(range(1, 10)))  # C(17, 8) = 24310 elements
_ABOVE = "semigroup has 24310 elements, above the guard 5000"
_HALF_16 = RangeSet(16, tuple(range(1, 9)))  # rank C(15, 7) + 2 = 6442


class TestCharacterized:
    def test_examples(self, y13):
        assert is_regular(cm([1, 1, 3]), y13)
        assert is_regular(cm([3, 3, 3]), y13)
        Y = RangeSet(4, (2, 3))
        assert not is_regular(cm([2, 2, 2, 3]), Y)

    def test_rejects_map_outside_range(self, y13):
        with pytest.raises(DomainError):
            is_regular(cm([1, 2, 3]), y13)


class TestOracleAgreement:
    def test_examples(self, y13):
        table = enumerate_semigroup(y13)
        flags = is_regular_by_search(table, constructed_ids(table))
        assert flags[table.id_of(cm([1, 1, 3]))]
        Y = RangeSet(4, (2, 3))
        table4 = enumerate_semigroup(Y)
        flags4 = is_regular_by_search(table4, constructed_ids(table4))
        assert not flags4[table4.id_of(cm([2, 2, 2, 3]))]

    def test_one_labelling(self, scc_runs):
        """The R labels of the right Cayley graph, and nothing else."""
        table = enumerate_semigroup(RangeSet(5, (1, 3, 4, 5)))
        is_regular_by_search(table, constructed_ids(table))
        assert scc_runs == [len(table)]

    def test_idempotents_are_regular(self):
        for Y in range_sets(4):
            table = enumerate_semigroup(Y)
            flags = is_regular_by_search(table, constructed_ids(table))
            for f, flag in zip(table.elements, flags):
                if f.is_idempotent():
                    assert is_regular(f, Y)
                    assert flag

    def test_sweep(self):
        """Equal to the range criterion and to the literal a*b*a == a
        scan on every range set with n <= 6, the whole chain included."""
        for n in range(1, 7):
            for Y in range_sets(n):
                table = enumerate_semigroup(Y)
                flags = is_regular_by_search(table, constructed_ids(table))
                assert flags == [is_regular(f, Y) for f in table.elements], Y
                assert flags == regular_by_scan(table), Y


class TestOracleNeedsAGeneratingSet:
    """Ids that do not generate raise AssertionError, never a partial
    answer."""

    def test_constructed_set_short_of_a_full_image_map(self):
        Y = RangeSet(5, (1, 3, 4))
        table = enumerate_semigroup(Y)
        gens = minimum_generating_set(5, Y, check=False).members
        ids = [table.id_of(g.element) for g in gens]
        dropped = next(i for i, g in enumerate(gens) if g.kind == "full_image")
        assert len(table.closure(ids)) == len(table)
        with pytest.raises(AssertionError, match="do not generate"):
            is_regular_by_search(table, ids[:dropped] + ids[dropped + 1:])

    @pytest.mark.parametrize("n", [2, 4])
    def test_whole_chain_short_of_a_corank_one_map(self, n):
        Y = RangeSet(n, tuple(range(1, n + 1)))
        table = enumerate_semigroup(Y)
        gens = minimum_generating_set(n, Y, check=False).members
        for drop, g in enumerate(gens):
            if g.kind != "corank_one":
                continue
            ids = [table.id_of(h.element) for k, h in enumerate(gens)
                   if k != drop]
            with pytest.raises(AssertionError, match="do not generate"):
                is_regular_by_search(table, ids)


class TestRegularPart:
    def test_everything_regular_for_y13(self, y13):
        assert len(regular_elements(y13)) == 4

    def test_two_irregular_for_n4(self):
        Y = RangeSet(4, (2, 3))
        reg = {f.images for f in regular_elements(Y)}
        assert (2, 2, 2, 3) not in reg
        assert (2, 3, 3, 3) not in reg
        assert len(reg) == count_maps(4, 2) - 2

    def test_full_range_all_regular(self):
        for n in range(1, 6):
            Y = RangeSet(n, tuple(range(1, n + 1)))
            assert len(regular_elements(Y)) == count_maps(n, n)

    def test_closed_under_compose(self):
        for Y in range_sets(4):
            reg = regular_elements(Y)
            have = {f.images for f in reg}
            for f in reg:
                for g in reg:
                    assert compose(f, g).images in have

    @pytest.mark.parametrize("call, message, size", [
        (lambda: enumerate_elements(_WHOLE_9), _ABOVE, 24310),
        (lambda: SemigroupTable(_WHOLE_9), _ABOVE, 24310),
        (lambda: enumerate_semigroup(_WHOLE_9), _ABOVE, 24310),
        (lambda: regular_elements(_WHOLE_9), _ABOVE, 24310),  # all regular
        (lambda: minimum_generating_set(16, _HALF_16, check=False),
         "generating set has 6442 members, above the closure guard 5000", 6442),
    ], ids=["enumerate_elements", "SemigroupTable", "enumerate_semigroup",
            "regular_elements", "minimum_generating_set"])
    def test_refused_above_the_closure_guard(self, monkeypatch, call, message,
                                             size):
        """Each door to an exponential list refuses before any work, and
        answers once ORDRANGE_MAX_ELEMENTS lets it."""
        with pytest.raises(GuardExceeded, match=f"^{message}$"):
            call()
        monkeypatch.setenv("ORDRANGE_MAX_ELEMENTS", str(size))
        assert len(call()) == size

    def test_right_ideal(self):
        for Y in range_sets(4):
            table = enumerate_semigroup(Y)
            for f in regular_elements(Y):
                for g in table.elements:
                    assert is_regular(compose(f, g), Y)


class TestTrichotomy:
    def test_examples(self):
        assert is_semigroup_regular(RangeSet(5, (1, 5)))
        assert not is_semigroup_regular(RangeSet(5, (1, 2)))
        assert is_semigroup_regular(RangeSet(5, (3,)))
        assert is_semigroup_regular(RangeSet(5, (1, 2, 3, 4, 5)))

    def test_matches_census(self):
        for n in range(1, 6):
            for Y in range_sets(n):
                expected = len(regular_elements(Y)) == count_maps(n, len(Y))
                assert is_semigroup_regular(Y) == expected
