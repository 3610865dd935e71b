import math

import pytest

from conftest import range_sets
from ordrange import (
    ChainMap,
    DomainError,
    RangeSet,
    chain,
    constant,
    egg_box,
    enumerate_semigroup,
    green,
    green_classes,
    green_classes_by_ideals,
    green_key,
    green_partitions,
    green_partitions_by_ideals,
    image,
    is_regular,
)

cm = ChainMap.from_images
RELATIONS = ("L", "R", "H", "D", "J")


def related(relation, alpha, beta, Y):
    return green_key(relation, alpha, Y) == green_key(relation, beta, Y)


def ideal_oracle(relation, table):
    """Reference partition from principal ideals, by definition.

    L compares S^1 a, R compares a S^1, J compares S^1 a S^1, H
    intersects L and R, and D joins L and R by saturation.  Quadratic
    to cubic in the table size, so for small tables only.
    """
    ids = range(len(table))
    left = [frozenset({a, *(table.product(s, a) for s in ids)}) for a in ids]
    right = [frozenset({a, *(table.product(a, s) for s in ids)}) for a in ids]
    if relation == "L":
        keys = left
    elif relation == "R":
        keys = right
    elif relation == "H":
        keys = list(zip(left, right))
    elif relation == "J":
        keys = [frozenset({*r, *(table.product(s, x) for s in ids for x in r)})
                for r in right]
    else:
        keys = [None] * len(table)
        for a in ids:
            if keys[a] is not None:
                continue
            keys[a], todo = a, [a]
            while todo:
                x = todo.pop()
                for y in ids:
                    if keys[y] is None and (left[y] == left[x]
                                            or right[y] == right[x]):
                        keys[y] = a
                        todo.append(y)
    groups = {}
    for a, key in enumerate(keys):
        groups.setdefault(key, []).append(a)
    return list(groups.values())


class TestPredicates:
    def test_l_examples(self, y13):
        assert related("L", cm([1, 1, 3]), cm([1, 3, 3]), y13)
        assert related("L", cm([1, 1, 3]), cm([1, 1, 3]), y13)
        Y = RangeSet(4, (2, 3))
        assert not related("L", cm([2, 2, 2, 3]), cm([2, 2, 3, 3]), Y)

    def test_r_examples(self, y13):
        assert related("R", cm([1, 1, 3]), cm([1, 1, 3]), y13)
        full = RangeSet(3, (1, 2, 3))
        assert related("R", cm([1, 1, 2]), cm([2, 2, 3]), full)
        assert not related("R", cm([1, 1, 3]), cm([1, 3, 3]), y13)

    def test_h_trivial(self, y13):
        assert related("H", cm([1, 1, 3]), cm([1, 1, 3]), y13)
        assert not related("H", cm([1, 1, 3]), cm([1, 3, 3]), y13)
        table = enumerate_semigroup(y13)
        for f in table.elements:
            for g in table.elements:
                assert related("H", f, g, y13) == (f == g)

    def test_d_examples(self, y13):
        assert related("D", cm([1, 1, 3]), cm([1, 3, 3]), y13)
        Y = RangeSet(4, (2, 3))
        assert not related("D", cm([2, 2, 2, 3]), cm([2, 3, 3, 3]), Y)
        assert related("D", constant(3, 1), constant(3, 3), y13)

    def test_j_delegates_to_d(self, y13):
        Y = RangeSet(4, (2, 3))
        cases = [
            (cm([1, 1, 3]), cm([1, 3, 3]), y13),
            (constant(3, 1), constant(3, 3), y13),
        ]
        for a, b, ys in cases:
            assert related("J", a, b, ys) == related("D", a, b, ys)
        assert not related("J", cm([2, 2, 2, 3]), cm([2, 3, 3, 3]), Y)

    @pytest.mark.parametrize("relation", RELATIONS,
                             ids=[f"{r.lower()}_related" for r in RELATIONS])
    @pytest.mark.parametrize("beta", [cm([2, 2, 2]), cm([1, 1])])
    def test_maps_outside_y_rejected(self, relation, beta):
        # a map with a value outside Y, or one on another chain size
        with pytest.raises(DomainError):
            related(relation, cm([1, 1, 1]), beta, RangeSet(3, (1,)))

    def test_one_membership_check_per_key(self, monkeypatch):
        """L, D and J leave the check to is_regular, H and R make it once,
        and an unknown relation meets the membership refusal first."""
        calls = []
        real = chain.maps_into

        def counted(f, Y):
            calls.append(f)
            return real(f, Y)

        monkeypatch.setattr(chain, "maps_into", counted)
        Y = RangeSet(6, (1, 2, 4, 5, 6))
        table = enumerate_semigroup(Y)
        calls.clear()
        green_classes("L", table)
        assert len(table) == len(calls) == 210
        with pytest.raises(DomainError, match="does not map into"):
            green_key("X", cm([2, 2, 2]), RangeSet(3, (1,)))


class TestOracleEggBox:
    def test_l_classes_y13(self, y13):
        table = enumerate_semigroup(y13)
        # elements: 0=[1,1,1] 1=[1,1,3] 2=[1,3,3] 3=[3,3,3]
        assert green_classes_by_ideals("L", table) == [[0], [1, 2], [3]]

    def test_h_singletons_y13(self, y13):
        table = enumerate_semigroup(y13)
        assert green_classes_by_ideals("H", table) == [[0], [1], [2], [3]]

    def test_d_equals_j_y13(self, y13):
        table = enumerate_semigroup(y13)
        assert green_classes_by_ideals("D", table) == \
            green_classes_by_ideals("J", table)


class TestCanonicalForm:
    def test_both_routes_give_sorted_disjoint_covers(self):
        """Classes ordered by least id, ascending inside, covering range(N)
        once: two partitions are equal iff the lists are equal."""
        for n in range(1, 6):
            for Y in range_sets(n):
                table = enumerate_semigroup(Y)
                for rel in RELATIONS:
                    for classes in (green_classes(rel, table),
                                    green_classes_by_ideals(rel, table)):
                        assert all(c == sorted(c) for c in classes)
                        assert [c[0] for c in classes] == \
                            sorted(c[0] for c in classes)
                        assert sorted(i for c in classes for i in c) == \
                            list(range(len(table))), (n, Y, rel)


class TestCayleyOracle:
    def test_matches_ideal_oracle_on_every_range_set(self):
        for n in range(1, 5):
            for Y in range_sets(n):
                table = enumerate_semigroup(Y)
                for rel in RELATIONS:
                    assert green_classes_by_ideals(rel, table) == \
                        ideal_oracle(rel, table), (n, Y, rel)

    def test_matches_characterization_on_whole_chain_6(self):
        Y = RangeSet(6, (1, 2, 3, 4, 5, 6))
        table = enumerate_semigroup(Y)
        assert len(table) == 462
        for rel in RELATIONS:
            assert green_classes_by_ideals(rel, table) == \
                green_classes(rel, table), rel


class TestAllRelationsAtOnce:
    def test_five_relations_run_four_labellings(self, scc_runs):
        """R, L, J and the D hub graph, once each: H and D reuse L and R."""
        table = enumerate_semigroup(RangeSet(5, (1, 3, 4, 5)))
        green_partitions_by_ideals(table, RELATIONS)
        assert len(scc_runs) == 4

    @pytest.mark.parametrize("relation", ["R", "L"])
    def test_one_relation_call_runs_one_labelling(self, scc_runs, relation):
        green_classes_by_ideals(relation, enumerate_semigroup(RangeSet(4, (1, 3))))
        assert len(scc_runs) == 1

    def test_d_alone_labels_no_j(self, scc_runs):
        """D reads L and R and its hub graph: three labellings, no J."""
        table = enumerate_semigroup(RangeSet(5, (1, 3, 4, 5)))
        green_classes_by_ideals("D", table)
        assert len(scc_runs) == 3

    def test_equals_one_relation_calls_and_characterization(self):
        """Both routes' five-relation calls equal their one-relation calls
        and each other."""
        for n in range(1, 6):
            for Y in range_sets(n):
                table = enumerate_semigroup(Y)
                partitions = green_partitions_by_ideals(table, RELATIONS)
                characterized = green_partitions(table, RELATIONS)
                assert list(partitions) == list(characterized) == \
                    list(RELATIONS)
                for rel in RELATIONS:
                    assert partitions[rel] == green_classes_by_ideals(
                        rel, table) == characterized[rel] == green_classes(
                        rel, table), (n, Y, rel)

    @pytest.mark.parametrize("relations, regular, kernels", [
        (("H",), 0, 0),
        (("R",), 0, 1),
        (("L",), 1, 0),
        (RELATIONS, 1, 1),
    ])
    def test_characterized_reads_each_fact_once(self, monkeypatch, relations,
                                                regular, kernels):
        """Regularity and kernel are read at most once per element, and
        only for a relation that needs them: a single H or R partition,
        as `green --check` asks for, makes no regularity test."""
        calls = []

        def counted(name):
            real = getattr(green, name)

            def call(*args):
                calls.append(name)
                return real(*args)
            return call

        for name in ("is_regular", "kernel"):
            monkeypatch.setattr(green, name, counted(name))
        table = enumerate_semigroup(RangeSet(5, (1, 3, 4, 5)))
        green_partitions(table, relations)
        assert calls.count("is_regular") == regular * len(table)
        assert calls.count("kernel") == kernels * len(table)


class TestEquivalenceSweep:
    def test_characterized_equals_oracle(self):
        for n in range(1, 5):
            for Y in range_sets(n):
                table = enumerate_semigroup(Y)
                for rel in ("L", "R", "H", "D", "J"):
                    chars = green_classes(rel, table)
                    oracle = green_classes_by_ideals(rel, table)
                    assert chars == oracle, (n, Y, rel)

    def test_characterized_classes_read_the_tables_range_set(self):
        """No range set is passed beside the table, so none can disagree
        with it: {1, 2, 3} beside the table of (5, {1, 2}) once gave an L
        partition other than the oracle's, with no error."""
        table = enumerate_semigroup(RangeSet(5, (1, 2)))
        assert green_classes("L", table) == green_classes_by_ideals("L", table)
        with pytest.raises(TypeError):
            green_classes("L", table, RangeSet(5, (1, 2, 3)))

    def test_r_class_count(self):
        for n in range(1, 5):
            for Y in range_sets(n):
                table = enumerate_semigroup(Y)
                expected = sum(math.comb(n - 1, k - 1)
                               for k in range(1, len(Y) + 1))
                assert len(green_classes("R", table)) == expected

    def test_regular_pairs_general_form(self):
        # among regular elements: L iff equal images, D iff equal image sizes
        for Y in range_sets(4):
            table = enumerate_semigroup(Y)
            reg = [f for f in table.elements if is_regular(f, Y)]
            for f in reg:
                for g in reg:
                    assert related("L", f, g, Y) == (image(f) == image(g))
                    assert related("D", f, g, Y) == (len(image(f)) == len(image(g)))


def report(relation, table, Y):
    regular = [is_regular(f, Y) for f in table.elements]
    return egg_box(relation, table, green_classes(relation, table), regular)


class TestEggBoxShape:
    def test_sorted_by_rank_then_id(self, y13):
        table = enumerate_semigroup(y13)
        box = report("D", table, y13)
        assert box["relation"] == "D"
        assert sorted(box["classes"]) == green_classes("D", table)
        ranks = [m["image_size"] for m in box["meta"]]
        assert ranks == sorted(ranks, reverse=True)
        heads = [c[0] for c in box["classes"]]
        for (ra, a), (rb, b) in zip(zip(ranks, heads), zip(ranks[1:], heads[1:])):
            if ra == rb:
                assert a < b

    def test_meta_fields(self, y13):
        table = enumerate_semigroup(y13)
        box = report("L", table, y13)
        for cls, meta in zip(box["classes"], box["meta"]):
            assert meta["size"] == len(cls)
            assert set(meta) == {"size", "image_size", "image", "kernel", "regular"}

    def test_refinement_tower(self):
        # H refines both L and R, which refine D, which equals J
        def refines(fine, coarse):
            return all(
                any(set(c) <= set(d) for d in coarse)
                for c in fine)

        for Y in range_sets(4):
            table = enumerate_semigroup(Y)
            h = green_classes("H", table)
            l = green_classes("L", table)
            r = green_classes("R", table)
            d = green_classes("D", table)
            assert refines(h, l) and refines(h, r)
            assert refines(l, d) and refines(r, d)


@pytest.mark.parametrize("call", [
    lambda Y: green_key("X", ChainMap(5, (1, 1, 3, 3, 5)), Y),
    lambda Y: green_classes_by_ideals("X", enumerate_semigroup(Y)),
    lambda Y: green_partitions_by_ideals(enumerate_semigroup(Y), ("R", "X")),
    lambda Y: green_classes("X", enumerate_semigroup(Y)),
    lambda Y: green_partitions(enumerate_semigroup(Y), ("R", "X")),
])
def test_unknown_relation_refused(call):
    with pytest.raises(DomainError, match=r"^unknown relation 'X'$"):
        call(RangeSet(5, (1, 3, 5)))
