import dataclasses
import hashlib
import math
import re

import pytest

from conftest import (
    brute_force_closure,
    brute_force_maps,
    corank_one_class,
    least_generating_sets,
    range_sets,
)
from ordrange import (
    ChainMap,
    ConvexPartition,
    DimensionMismatch,
    DomainError,
    GuardExceeded,
    RangeSet,
    captive_set,
    ceiling_retraction,
    corank_one_generator,
    compose,
    count_maps,
    enumerate_elements,
    enumerate_semigroup,
    express_in_generators,
    factor_raising_rank,
    floor_retraction,
    full_image_map,
    full_image_maps,
    generates,
    generators,
    image,
    is_regular,
    kernel,
    minimal_generating_sets,
    minimum_generating_set,
    missing_index,
    prefix_shift_generator,
    rank_by_formula,
    rank_by_search,
    slide_to_missing_index,
    suffix_shift_generator,
)
from ordrange.generators import (
    FULL_IMAGE,
    GeneratingSet,
    TaggedGenerator,
    first_missing_point,
    tail_anchor,
)

cm = ChainMap.from_images


class TestCaptive:
    def test_worked_examples_n7(self):
        cases = {
            (1, 3, 4, 5): (1, 4),
            (2, 3, 4, 5): (3, 4),
            (2, 4, 5, 7): (7,),
            (1, 7): (1, 7),
            (2, 4, 6): (),
            (2, 3, 5, 6): (),
        }
        for members, expected in cases.items():
            assert captive_set(RangeSet(7, members)) == expected

    def test_endpoints_always_captive(self):
        for Y in range_sets(5):
            cap = set(captive_set(Y))
            for y in (1, 5):
                if y in Y:
                    assert y in cap


class TestRankFormula:
    def test_examples(self):
        assert rank_by_formula(RangeSet(7, (1, 3, 4, 5))) == 22
        assert rank_by_formula(RangeSet(3, (1, 3))) == 4
        assert rank_by_formula(RangeSet(4, (1, 2))) == 4
        assert rank_by_formula(RangeSet(4, (2, 3))) == 3

    def test_degenerate_ends(self):
        assert rank_by_formula(RangeSet(5, (3,))) == 1
        for n in range(2, 10):  # a captive endpoint singleton still has 1
            whole = RangeSet(n, tuple(range(1, n + 1)))
            assert rank_by_formula(whole) == n + 1
            assert rank_by_formula(RangeSet(n, (1,))) == 1
            assert rank_by_formula(RangeSet(n, (n,))) == 1


class TestFullImageMaps:
    def test_golden_small(self, y13):
        got = {f.images for f in full_image_maps(y13)}
        assert got == {(1, 1, 3), (1, 3, 3)}
        full = full_image_maps(RangeSet(3, (1, 2, 3)))
        assert [f.images for f in full] == [(1, 2, 3)]
        assert len(full_image_maps(RangeSet(4, (1, 3)))) == 3

    def test_count_and_shape(self):
        for n in range(2, 6):
            for Y in range_sets(n):
                maps = full_image_maps(Y)
                assert len(maps) == math.comb(n - 1, len(Y) - 1)
                kernels = {kernel(f).boundaries for f in maps}
                assert len(kernels) == len(maps)
                for f in maps:
                    assert image(f) == Y

    def test_partition_on_another_chain_rejected(self):
        with pytest.raises(DimensionMismatch,
                           match=r"^range set lives on chain 5, not 3$"):
            full_image_map(ConvexPartition(3, (1, 3)), RangeSet(5, (1, 2)))


class TestRetractions:
    def test_golden_n4(self):
        Y = RangeSet(4, (1, 2, 3))
        assert floor_retraction(Y, 2).images == (1, 1, 3, 3)
        assert ceiling_retraction(Y, 2).images == (1, 3, 3, 3)

    def test_image_misses_exactly_the_index(self):
        for n in range(3, 6):
            for Y in range_sets(n, smallest=2):
                for i in range(1, len(Y) + 1):
                    for builder in (floor_retraction, ceiling_retraction):
                        e = builder(Y, i)
                        assert image(e).members == Y.without(i)
                        assert is_regular(e, Y)
                        assert compose(e, e) == e

    def test_shift_generators_land_in_the_right_classes(self):
        for n in range(4, 7):
            for Y in range_sets(n, smallest=3):
                r = len(Y)
                for i in range(3, r + 1):
                    e = prefix_shift_generator(Y, i)
                    assert missing_index(e, Y) == 1
                    assert is_regular(e, Y)
                for j in range(2, r):
                    e = suffix_shift_generator(Y, j)
                    assert missing_index(e, Y) == r
                    assert is_regular(e, Y)

    def test_index_bounds(self):
        Y = RangeSet(4, (1, 2, 3))
        with pytest.raises(DomainError):
            prefix_shift_generator(Y, 2)
        with pytest.raises(DomainError):
            suffix_shift_generator(Y, 3)


class TestFactorCorankOne:
    def test_constant_in_y13(self, y13):
        beta, gamma = factor_raising_rank(cm([1, 1, 1]), y13)
        assert compose(beta, gamma) == cm([1, 1, 1])
        assert len(image(beta)) == 2 and len(image(gamma)) == 1
        assert is_regular(gamma, y13)

    def test_example_n4(self):
        Y = RangeSet(4, (1, 2, 3))
        alpha = cm([1, 1, 3, 3])
        beta, gamma = factor_raising_rank(alpha, Y)
        assert compose(beta, gamma) == alpha
        assert len(image(beta)) == 3

    def test_sweep(self):
        for n in range(2, 5):
            for Y in range_sets(n, smallest=2):
                r = len(Y)
                for alpha in enumerate_elements(Y):
                    if len(image(alpha)) != r - 1:
                        continue
                    beta, gamma = factor_raising_rank(alpha, Y)
                    assert compose(beta, gamma) == alpha
                    assert len(image(beta)) == r
                    assert len(image(gamma)) == r - 1
                    assert is_regular(gamma, Y)

    def test_wrong_rank_rejected(self, y13):
        with pytest.raises(DomainError):
            factor_raising_rank(cm([1, 1, 3]), y13)


class TestFactorRaisingRank:
    def test_constant_n4(self):
        Y = RangeSet(4, (1, 2, 3))
        alpha = cm([1, 1, 1, 1])
        beta, gamma = factor_raising_rank(alpha, Y)
        assert compose(beta, gamma) == alpha
        assert len(image(beta)) == len(image(gamma)) == 2

    def test_constant_high_value(self):
        Y = RangeSet(5, (1, 2, 4))
        alpha = cm([4, 4, 4, 4, 4])
        beta, gamma = factor_raising_rank(alpha, Y)
        assert compose(beta, gamma) == alpha
        assert len(image(beta)) == len(image(gamma)) == 2

    def test_sweep(self):
        for n in range(3, 6):
            for Y in range_sets(n, smallest=3):
                r = len(Y)
                for alpha in enumerate_elements(Y):
                    k = len(image(alpha))
                    if k >= r - 1:
                        continue
                    beta, gamma = factor_raising_rank(alpha, Y)
                    assert compose(beta, gamma) == alpha
                    assert len(image(beta)) == k + 1
                    assert len(image(gamma)) == k + 1

    def test_needs_low_rank(self, y13):
        with pytest.raises(DomainError):
            factor_raising_rank(cm([1, 1, 3]), y13)


class TestSlide:
    def test_already_in_place(self, y13):
        alpha = cm([1, 1, 1])  # misses y_2 = 3
        beta, word = slide_to_missing_index(alpha, 2, y13)
        assert beta == alpha and word == []

    def test_slide_down(self):
        Y = RangeSet(4, (1, 2, 3))
        alpha = floor_retraction(Y, 3)
        beta, word = slide_to_missing_index(alpha, 1, Y)
        assert missing_index(beta, Y) == 1
        assert [w for w in word] == [("floor_retraction", 2),
                                     ("floor_retraction", 3)]

    def test_sweep_all_targets(self):
        for n in range(2, 5):
            for Y in range_sets(n, smallest=2):
                r = len(Y)
                for alpha in enumerate_elements(Y):
                    if len(image(alpha)) != r - 1 or not is_regular(alpha, Y):
                        continue
                    for target in range(1, r + 1):
                        beta, word = slide_to_missing_index(alpha, target, Y)
                        assert missing_index(beta, Y) == target

    @staticmethod
    def _slides(n_max):
        """(Y, alpha, target) for every target the slide accepts."""
        for n in range(2, n_max + 1):
            for Y in range_sets(n, smallest=2):
                r = len(Y)
                for alpha in enumerate_elements(Y):
                    if len(image(alpha)) == r - 1 and is_regular(alpha, Y):
                        for target in range(1, r + 1):
                            yield Y, alpha, target

    def test_sweep_matches_fresh_retractions_and_pin(self):
        """Every slide with n <= 5 multiplies back out over retractions
        built afresh, and its results are pinned."""
        builders = {"floor_retraction": floor_retraction,
                    "ceiling_retraction": ceiling_retraction}
        digest, slides = hashlib.sha256(), 0
        for Y, alpha, target in self._slides(5):
            beta, word = slide_to_missing_index(alpha, target, Y)
            check = beta
            for kind, idx in word:
                fresh = builders[kind](Y, idx)
                assert generators._retraction(Y, kind, idx) == fresh
                check = compose(check, fresh)
            assert check == alpha
            digest.update(repr((Y.members, alpha.images, target,
                                beta.images, word)).encode())
            slides += 1
        assert slides == 942
        assert digest.hexdigest() == (
            "61260679081405d289796eadb33771c717e83d957e4d4929700e092541e287bc")

    def test_retractions_built_once_per_key(self, monkeypatch):
        built = []
        for name in ("floor_retraction", "ceiling_retraction"):
            real = getattr(generators, name)

            def counted(Y, i, real=real, name=name):
                built.append((Y, name, i))
                return real(Y, i)

            monkeypatch.setattr(generators, name, counted)
        generators._retraction.cache_clear()
        for _ in range(2):
            for Y, alpha, target in self._slides(4):
                slide_to_missing_index(alpha, target, Y)
        assert built and len(built) == len(set(built))

    def test_irregular_rejected(self):
        Y = RangeSet(4, (2, 3))
        with pytest.raises(DomainError):
            slide_to_missing_index(cm([2, 2, 2, 3]), 1, Y)

    def test_missing_index_rejects_a_map_on_another_chain(self):
        # [1, 3, 3] misses only 2 of {1, 2, 3}, but lives on chain 3
        with pytest.raises(DimensionMismatch,
                           match=r"^range set lives on chain 5, not 3$"):
            missing_index(cm([1, 3, 3]), RangeSet(5, (1, 2, 3)))


class TestMinimumGeneratingSet:
    def test_y13_is_whole_semigroup(self, y13):
        gens = minimum_generating_set(3, y13)
        assert len(gens) == 4
        assert {g.element.images for g in gens.members} == {
            (1, 1, 1), (1, 1, 3), (1, 3, 3), (3, 3, 3)}

    def test_low_run_case_uses_ceiling_retractions(self):
        gens = minimum_generating_set(4, RangeSet(4, (1, 2, 3)))
        tags = sorted((g.kind, g.index) for g in gens.members
                      if g.kind != "full_image")
        assert tags == [("ceiling_retraction", 1), ("ceiling_retraction", 2)]

    def test_n7_example_size_and_closure(self):
        Y = RangeSet(7, (1, 3, 4, 5))
        gens = minimum_generating_set(7, Y)  # closure checked inside
        assert len(gens) == 22
        assert count_maps(7, 4) == 120

    def test_size_matches_formula_everywhere(self):
        for n in range(3, 7):
            for Y in range_sets(n, smallest=2, largest=n - 1):
                gens = minimum_generating_set(n, Y)
                assert len(gens) == rank_by_formula(Y)

    def test_tags_match_their_builders(self):
        builders = {
            "floor_retraction": floor_retraction,
            "ceiling_retraction": ceiling_retraction,
            "prefix_shift": prefix_shift_generator,
            "suffix_shift": suffix_shift_generator,
            "corank_one": corank_one_generator,
        }
        for n in range(3, 7):
            for Y in range_sets(n, smallest=2):
                for g in minimum_generating_set(n, Y, check=False).members:
                    if g.kind == "full_image":
                        assert image(g.element) == Y
                    else:
                        assert g.element == builders[g.kind](Y, g.index)

    def test_degenerate_sizes_answered(self):
        gens = minimum_generating_set(4, RangeSet(4, (2,)))
        assert [g.element.images for g in gens.members] == [(2, 2, 2, 2)]
        for n in range(1, 6):
            Y = RangeSet(n, tuple(range(1, n + 1)))
            gens = minimum_generating_set(n, Y)  # closure checked inside
            assert len(gens) == rank_by_formula(Y)
            assert brute_force_closure([g.element.images for g in gens.members]) \
                == set(brute_force_maps(n, Y.members))

    def test_sets_and_words_pinned(self):
        """Every generating set with n <= 9 and every word with n <= 6."""
        digest, words = hashlib.sha256(), 0
        for n in range(1, 10):
            for Y in range_sets(n):
                gens = minimum_generating_set(n, Y, check=False)
                digest.update(repr([g.as_dict() for g in gens.members]).encode())
                if n > 6 or not 1 < len(Y) < n:
                    continue
                for f in enumerate_elements(Y):
                    if len(image(f)) < len(Y):
                        word = express_in_generators(f, gens)
                        digest.update(repr([w.images for w in word]).encode())
                        words += 1
        assert words == 3226
        assert digest.hexdigest() == (
            "f760cc4d5fe7820c9183b029a24f13cea1ee94be1b754586357a3f6f14638d89")

    def test_factor_pairs_pinned(self):
        """Both factors of every map of image size below r, n <= 7."""
        digest, pairs = hashlib.sha256(), 0
        for n in range(1, 8):
            for Y in range_sets(n, smallest=2, largest=n - 1):
                for f in enumerate_elements(Y):
                    if len(image(f)) < len(Y):
                        beta, gamma = factor_raising_rank(f, Y)
                        digest.update(repr((beta.images, gamma.images)).encode())
                        pairs += 1
        assert pairs == 19620
        assert digest.hexdigest() == (
            "b0932425ec90ce751df892c38976c6e960b16afff0ae8c5ef32a1f959971841f")


class TestLookups:
    def test_lookups_match_their_definitions(self):
        for n in range(1, 7):
            for Y in range_sets(n):
                gens = minimum_generating_set(n, Y, check=False)
                others = [g for g in gens.members if g.kind != FULL_IMAGE]
                assert gens.kind_of == {g.element.images: g.kind
                                        for g in gens.members}
                assert len(gens.tag_words) == len(others)
                for g in others:
                    assert gens.tag_words[g.kind, g.index] == (g.element,)
                assert gens.corank_words == {}
                if len(Y) < n:
                    assert gens.anchors == (first_missing_point(Y),
                                            tail_anchor(Y))
                else:
                    with pytest.raises(DomainError,
                                       match="covers the whole chain"):
                        gens.anchors

    def test_lookups_read_once_per_set(self):
        gens = minimum_generating_set(5, RangeSet(5, (1, 3, 4)), check=False)
        assert gens.kind_of is gens.kind_of
        assert gens.anchors is gens.anchors
        assert gens.tag_words is gens.tag_words
        assert gens.corank_words is gens.corank_words

    def test_equality_and_hash_ignore_lookups(self):
        Y = RangeSet(6, (1, 2, 4, 6))
        a = minimum_generating_set(6, Y, check=False)
        b = GeneratingSet(RangeSet(6, (1, 2, 4, 6)), tuple(a.members))
        assert a is not b
        assert a == b and hash(a) == hash(b)
        a.anchors
        express_in_generators(floor_retraction(Y, 3), a)
        assert ("floor_retraction", 3) in a.tag_words
        assert ("floor_retraction", 3) not in b.tag_words
        assert a.tag_words != b.tag_words
        assert floor_retraction(Y, 3).images in a.corank_words
        assert b.corank_words == {}
        assert a == b and hash(a) == hash(b)
        b.anchors
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_the_chain_is_the_range_sets(self):
        """A generating set has no chain size of its own to disagree with
        its range set."""
        assert [f.name for f in dataclasses.fields(GeneratingSet)] == [
            "range_set", "members"]
        gens = minimum_generating_set(5, RangeSet(5, (1, 3, 4)), check=False)
        with pytest.raises(TypeError):
            GeneratingSet(7, gens.range_set, gens.members)


class TestGenerates:
    def test_full_image_alone_fails_for_y13(self, y13):
        table = enumerate_semigroup(y13)
        assert not generates(full_image_maps(y13), table)

    def test_full_image_alone_works_without_captives(self):
        Y = RangeSet(4, (2, 3))
        table = enumerate_semigroup(Y)
        assert generates(full_image_maps(Y), table)

    def test_closure_matches_brute_force(self, y13):
        table = enumerate_semigroup(y13)
        seed = [f.images for f in full_image_maps(y13)]
        ours = {table.elements[i].images
                for i in table.closure([table.id_of(cm(s)) for s in seed])}
        assert ours == brute_force_closure(seed)

    def test_outsider_rejected(self, y13):
        table = enumerate_semigroup(y13)
        with pytest.raises(DomainError):
            generates([cm([1, 2, 3])], table)


class TestRankSearch:
    def test_examples(self):
        for n, members, rank in ((3, (1, 3), 4), (4, (1, 2), 4), (4, (2, 3), 3)):
            table = enumerate_semigroup(RangeSet(n, members))
            assert rank_by_search(table) == rank

    def test_search_equals_all_subsets_reference(self):
        # every table of at most 15 elements on n <= 5; the (5, 3)
        # tables of 21 take the reference half a minute
        swept = 0
        for n in range(1, 6):
            for Y in range_sets(n):
                if count_maps(n, len(Y)) > 15:
                    continue
                table = enumerate_semigroup(Y)
                rank, witnesses = least_generating_sets(table)
                found, swept_witnesses = minimal_generating_sets(table)
                assert found == rank == rank_by_formula(Y), (n, Y.members)
                assert set(swept_witnesses) == set(witnesses), (n, Y.members)
                swept += 1
        assert swept == 40

    def test_every_minimal_set_contains_full_image_class(self):
        for n in (3, 4):
            for Y in range_sets(n, smallest=2, largest=n - 1):
                table = enumerate_semigroup(Y)
                a_ids = frozenset(table.id_of(f) for f in full_image_maps(Y))
                _, witnesses = least_generating_sets(table)
                assert witnesses
                for w in witnesses:
                    assert a_ids <= w

    def test_minimal_sets_hit_every_captive_class(self):
        for n in (3, 4):
            for Y in range_sets(n, smallest=2, largest=n - 1):
                table = enumerate_semigroup(Y)
                _, witnesses = least_generating_sets(table)
                for w in witnesses:
                    for pos, y in enumerate(Y.members, start=1):
                        if y in captive_set(Y):
                            assert w & corank_one_class(table, Y, pos)

    def test_search_assumes_nothing_about_images(self, monkeypatch):
        # with every image reported full, a search that takes the
        # full-image class as given would start from the whole semigroup
        Y = RangeSet(5, (1, 3, 5))
        table = enumerate_semigroup(Y)
        monkeypatch.setattr(generators, "values", lambda f: Y.members)
        assert rank_by_search(table) == rank_by_formula(Y) == 8

    def test_guard(self, monkeypatch):
        table = enumerate_semigroup(RangeSet(6, (1, 2, 3, 4)))
        monkeypatch.setenv("ORDRANGE_MAX_ELEMENTS", "50")
        with pytest.raises(GuardExceeded,
                           match=r"^semigroup has 84 elements, above the guard 50$"):
            rank_by_search(table)

    def test_env_override(self, monkeypatch):
        table = enumerate_semigroup(RangeSet(3, (1, 3)))
        monkeypatch.setenv("ORDRANGE_MAX_ELEMENTS", "3")
        with pytest.raises(GuardExceeded):
            rank_by_search(table)
        monkeypatch.setenv("ORDRANGE_MAX_ELEMENTS", "10")
        assert rank_by_search(table) == 4


class TestCaseAnalysisHelpers:
    def test_first_missing_point(self):
        assert first_missing_point(RangeSet(5, (2, 4))) == 1
        assert first_missing_point(RangeSet(5, (1, 4))) == 2
        assert first_missing_point(RangeSet(5, (1, 2, 3))) == 4

    def test_tail_anchor(self):
        assert tail_anchor(RangeSet(5, (2, 4))) == 3      # no 5 in Y
        assert tail_anchor(RangeSet(5, (2, 5))) == 2      # run {5}
        assert tail_anchor(RangeSet(5, (4, 5))) == 1      # run {4,5}
        assert tail_anchor(RangeSet(7, (2, 4, 6, 7))) == 3


_Y135 = RangeSet(5, (1, 3, 5))


@pytest.mark.parametrize("call, message", [
    (lambda: full_image_map(ConvexPartition(5, (2, 5)), _Y135),
     "partition has 2 blocks for 3 values"),
    (lambda: corank_one_generator(RangeSet(3, (1, 2, 3)), 4),
     "need Y the whole chain of n >= 2 and 1 <= t <= n, got |Y|=3, n=3, t=4"),
    (lambda: missing_index(ChainMap(5, (1,) * 5), _Y135),
     "image size 1 is not 2; not corank one"),
    (lambda: slide_to_missing_index(ChainMap(5, (1, 1, 3, 3, 3)), 4, _Y135),
     "target 4 outside 1..3"),
    (lambda: GeneratingSet(_Y135, (TaggedGenerator(
        ChainMap(5, (1, 1, 3, 3, 5)), FULL_IMAGE),) * 2),
     "duplicate generator ChainMap([1, 1, 3, 3, 5])"),
])
def test_refusals(call, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()
