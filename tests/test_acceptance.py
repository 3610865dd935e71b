"""End-to-end acceptance battery.

One test per criterion, each printing a single PASS line when it holds.
All comparisons are exact (integers, sets, partitions); there are no
floating-point tolerances anywhere in the library.

Expected wall-clock on one core: a few minutes, dominated by the
regularity sweep up to n=6 and the rank searches at n=5.
"""

import math
from itertools import combinations, combinations_with_replacement

from conftest import (
    constructed_ids,
    corank_one_class,
    fixed_points,
    range_sets,
    regular_by_scan,
)
from ordrange import (
    ChainMap,
    PartialMap,
    RangeSet,
    build_extension,
    captive_set,
    ceiling_extension,
    complete_extensions,
    compose,
    count_maps,
    enumerate_elements,
    enumerate_semigroup,
    express_in_generators,
    factor_raising_rank,
    find_isomorphism,
    floor_extension,
    full_image_maps,
    generates,
    green_classes,
    green_classes_by_ideals,
    image,
    induced_range_bijection,
    is_completable,
    is_regular,
    is_regular_by_search,
    is_semigroup_regular,
    isomorphism_condition,
    minimal_generating_sets,
    minimum_generating_set,
    missing_index,
    product_of,
    rank_by_formula,
    regular_elements,
    slide_to_missing_index,
)


def report(criterion, text):
    print(f"[criterion {criterion:2}] PASS  {text}")


def test_criterion_01_cardinality(monkeypatch):
    # the n = 8 whole chain has 6435 elements, above the default guard
    monkeypatch.setenv("ORDRANGE_MAX_ELEMENTS", "6435")
    checked = 0
    for n in range(1, 9):
        for Y in range_sets(n):
            got = len(enumerate_elements(Y))
            assert got == math.comb(n + len(Y) - 1, len(Y) - 1)
            checked += 1
    report(1, f"cardinality exact for {checked} (n, Y) pairs, n <= 8")


def test_criterion_02_regularity_equivalence():
    pairs = 0
    for n in range(1, 7):
        for Y in range_sets(n):
            table = enumerate_semigroup(Y)
            reg = regular_elements(Y)
            reg_ids = {table.id_of(f) for f in reg}
            flags = is_regular_by_search(table, constructed_ids(table))
            assert flags == [is_regular(f, Y) for f in table.elements]
            assert flags == regular_by_scan(table)
            for a in reg_ids:
                for b in reg_ids:
                    assert table.product(a, b) in reg_ids
            assert is_semigroup_regular(Y) == (len(reg) == len(table))
            pairs += 1
    report(2, "characterized == idempotent-in-R-class oracle == "
              f"alpha*beta*alpha scan on {pairs} semigroups, n <= 6")


def test_criterion_03_green_equivalence():
    pairs = 0
    for n in range(1, 6):
        for Y in range_sets(n):
            table = enumerate_semigroup(Y)
            for rel in ("L", "R", "H", "D", "J"):
                chars = green_classes(rel, table)
                oracle = green_classes_by_ideals(rel, table)
                assert chars == oracle, (n, Y.members, rel)
            assert all(len(c) == 1
                       for c in green_classes_by_ideals("H", table))
            assert green_classes_by_ideals("D", table) == \
                green_classes_by_ideals("J", table)
            pairs += 1
    report(3, f"all five relations, characterized == ideal oracle, "
              f"{pairs} semigroups, n <= 5")


def test_criterion_04_completability():
    checked = 0
    for n in range(1, 6):
        for Y in range_sets(n):
            for k in range(1, n + 1):
                for dom in combinations(range(1, n + 1), k):
                    for img in combinations_with_replacement(Y.members, k):
                        theta = PartialMap(n, dom, img)
                        verdict = is_completable(theta, Y)
                        exts = complete_extensions(theta, Y)
                        witness = build_extension(theta, Y)
                        assert verdict and exts and witness is not None
                        assert witness.images in {f.images for f in exts}
                        checked += 1
    report(4, f"criterion == exhaustive extension search on {checked} "
              f"partial maps, n <= 5, all verdicts positive")


def test_criterion_05_rank_formula_worked_examples():
    Y = RangeSet(7, (1, 3, 4, 5))
    assert captive_set(Y) == (1, 4)
    assert rank_by_formula(Y) == math.comb(6, 3) + 2 == 22
    captive_examples = {
        (1, 3, 4, 5): (1, 4),
        (2, 3, 4, 5): (3, 4),
        (2, 4, 5, 7): (7,),
        (1, 7): (1, 7),
        (2, 4, 6): (),
        (2, 3, 5, 6): (),
    }
    for members, expected in captive_examples.items():
        assert captive_set(RangeSet(7, members)) == expected
    gens = minimum_generating_set(7, Y, check=False)
    assert len(gens) == 22
    table = enumerate_semigroup(Y)
    assert len(table) == 120
    assert generates(gens.elements(), table)
    report(5, "rank(7, {1,3,4,5}) = 22, captive census matches on all six "
              "sets, 22 generators close the 120-element semigroup")


def test_criterion_06_rank_exactness():
    swept = 0
    for n in (3, 4, 5):
        for Y in range_sets(n, smallest=2, largest=n - 1):
            table = enumerate_semigroup(Y)
            rank, witnesses = minimal_generating_sets(table)
            assert rank == rank_by_formula(Y), (n, Y.members)
            assert witnesses
            a_ids = frozenset(table.id_of(f) for f in full_image_maps(Y))
            captives = captive_set(Y)
            for w in witnesses:
                assert a_ids <= w
                for pos, y in enumerate(Y.members, start=1):
                    if y in captives:
                        assert w & corank_one_class(table, Y, pos)
            swept += 1
    report(6, f"search rank == formula on {swept} semigroups (n <= 5); every "
              f"minimal set found contains the full-image class and meets "
              f"every captive class")


def test_criterion_07_factorization_chains():
    words = 0
    for n in (3, 4, 5):
        for Y in range_sets(n, smallest=2, largest=n - 1):
            r = len(Y)
            gens = minimum_generating_set(n, Y, check=False)
            allowed = {g.element.images for g in gens.members}
            for alpha in enumerate_elements(Y):
                k = len(image(alpha))
                if k > r - 1:
                    continue
                beta, gamma = factor_raising_rank(alpha, Y)
                assert compose(beta, gamma) == alpha
                assert len(image(beta)) == k + 1
                if k < r - 1:
                    assert len(image(gamma)) == k + 1
                else:
                    assert len(image(gamma)) == k and is_regular(gamma, Y)
                    if is_regular(alpha, Y):
                        for target in range(1, r + 1):
                            slid, _ = slide_to_missing_index(alpha, target, Y)
                            assert missing_index(slid, Y) == target
                word = express_in_generators(alpha, gens)
                assert product_of(word) == alpha
                assert all(w.images in allowed for w in word)
                words += 1
    report(7, f"{words} elements of image size <= r-1 reconstructed exactly "
              f"as words over the constructed generators, n <= 5")


def test_criterion_08_isomorphism():
    found = 0
    pairs = 0
    for n in range(1, 5):
        sets = list(range_sets(n))
        tables = {Y.members: enumerate_semigroup(Y) for Y in sets}
        for Y in sets:
            S = tables[Y.members]
            for Z in sets:
                T = tables[Z.members]
                expected = isomorphism_condition(Y, Z) is not None
                phi = find_isomorphism(S, T)
                assert (phi is not None) == expected, (n, Y.members, Z.members)
                pairs += 1
                if phi is None:
                    continue
                found += 1
                # induced bijection via constants, and its conjugation law
                theta = induced_range_bijection(phi, S, T)
                values = [theta[y] for y in Y.members]
                assert values == sorted(values) or \
                    values == sorted(values, reverse=True)
                for i, f in enumerate(S.elements):
                    g = T.elements[phi[i]]
                    for y in Y:
                        assert g(theta[y]) == theta[f(y)]
                    assert fixed_points(g) == {theta[y] for y in fixed_points(f)}
                    if f.is_idempotent() or len(image(f)) == 2:
                        assert set(image(g).members) == \
                            {theta[y] for y in image(f).members}
    # singleton ranges are isomorphic across different chain sizes
    S = enumerate_semigroup(RangeSet(3, (2,)))
    T = enumerate_semigroup(RangeSet(5, (4,)))
    assert isomorphism_condition(RangeSet(3, (2,)), RangeSet(5, (4,))) == 1
    assert find_isomorphism(S, T) is not None
    report(8, f"classification == brute-force search on {pairs} same-chain "
              f"pairs (n <= 4); all {found} found isomorphisms satisfy the "
              f"induced-bijection laws")


def test_criterion_09_worked_example_bit_exact():
    theta = PartialMap(9, (2, 5, 6, 8), (1, 3, 5, 7))
    assert floor_extension(theta) == ChainMap(9, (1, 1, 1, 1, 3, 5, 5, 7, 7))
    assert ceiling_extension(theta) == ChainMap(9, (1, 1, 3, 3, 3, 5, 7, 7, 7))
    report(9, "both canonical extensions of the 9-point worked example "
              "reproduce the displayed transformations bit-exactly")


def test_criterion_10_no_captives_means_full_image_class_suffices():
    for members in ((2, 4, 6), (2, 3, 5, 6)):
        Y = RangeSet(7, members)
        assert captive_set(Y) == ()
        table = enumerate_semigroup(Y)
        assert generates(full_image_maps(Y), table)
        assert rank_by_formula(Y) == math.comb(6, len(members) - 1)
    report(10, "captive-free sets over n=7: the full-image class generates "
               "and rank = C(6, r-1)")
