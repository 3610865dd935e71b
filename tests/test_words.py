from collections import Counter

import pytest

from conftest import range_sets
from ordrange import (
    ChainMap,
    DomainError,
    GeneratingSet,
    RangeSet,
    enumerate_elements,
    generators,
    express_in_generators,
    identity,
    image,
    is_regular,
    minimum_generating_set,
    product_of,
    words,
)

cm = ChainMap.from_images


def test_full_image_member_is_its_own_word(y13):
    gens = minimum_generating_set(3, y13, check=False)
    word = express_in_generators(cm([1, 1, 3]), gens)
    assert word == [cm([1, 1, 3])]


def test_constant_reconstructs(y13):
    gens = minimum_generating_set(3, y13, check=False)
    word = express_in_generators(cm([1, 1, 1]), gens)
    assert product_of(word) == cm([1, 1, 1])


def test_rejects_map_outside_range(y13):
    gens = minimum_generating_set(3, y13, check=False)
    with pytest.raises(DomainError):
        express_in_generators(cm([1, 2, 3]), gens)


def test_whole_chain_refused():
    Y = RangeSet(3, (1, 2, 3))
    gens = minimum_generating_set(3, Y, check=False)
    with pytest.raises(DomainError,
                       match=r"^the range set covers the whole chain$"):
        express_in_generators(cm([1, 1, 2]), gens)


@pytest.mark.parametrize("n", range(2, 7))
def test_whole_chain_identity_is_its_own_word(n):
    """The identity is one of the whole chain's generators; every other
    element needs the anchors, which the whole chain lacks."""
    Y = RangeSet(n, tuple(range(1, n + 1)))
    gens = minimum_generating_set(n, Y, check=False)
    assert express_in_generators(identity(n), gens) == [identity(n)]
    for alpha in enumerate_elements(Y):
        if alpha != identity(n):
            with pytest.raises(DomainError, match=r"^the range set covers "
                               r"the whole chain$"):
                express_in_generators(alpha, gens)


def test_anchors_computed_once_per_set(monkeypatch):
    calls = []
    real = generators.first_missing_point

    def counted(Y):
        calls.append(Y)
        return real(Y)

    monkeypatch.setattr(generators, "first_missing_point", counted)
    Y = RangeSet(5, (1, 3, 4))
    gens = minimum_generating_set(5, Y, check=False)
    calls.clear()
    for f in enumerate_elements(Y)[:6]:
        express_in_generators(f, gens)
    assert len(calls) == 2  # the least missing point of Y and of its mirror


def test_every_element_reconstructs_for_n_up_to_4():
    for n in (3, 4):
        for Y in range_sets(n, smallest=2, largest=n - 1):
            gens = minimum_generating_set(n, Y, check=False)
            allowed = {g.element.images for g in gens.members}
            for alpha in enumerate_elements(Y):
                word = express_in_generators(alpha, gens)
                assert word
                assert product_of(word) == alpha
                assert all(w.images in allowed for w in word)


def test_words_stay_short_for_small_chains():
    for Y in range_sets(4, smallest=2, largest=3):
        gens = minimum_generating_set(4, Y, check=False)
        for alpha in enumerate_elements(Y):
            word = express_in_generators(alpha, gens)
            assert len(word) <= 32


def test_low_rank_elements_use_multiple_factors(y13):
    gens = minimum_generating_set(3, y13, check=False)
    for alpha in enumerate_elements(y13):
        word = express_in_generators(alpha, gens)
        if len(image(alpha)) == 2:
            continue
        assert product_of(word) == alpha


def test_rejects_word_member_outside_the_set(monkeypatch):
    """The word's product is right, but its letter is not a generator."""
    gens = minimum_generating_set(4, RangeSet(4, (2, 3)), check=False)
    const = cm([2, 2, 2, 2])
    assert const.images not in gens.kind_of
    monkeypatch.setattr(words, "_express", lambda gens, alpha: [const])
    with pytest.raises(AssertionError, match="is not a generator"):
        express_in_generators(const, gens)



@pytest.mark.parametrize("n, members, pruned", [
    # ceiling words through the prefix shift, a floor word of two
    # full-image maps and the top floor word of _imax_word
    (6, (1, 2, 4, 5), [("ceiling_retraction", 1), ("ceiling_retraction", 2),
                       ("floor_retraction", 3), ("floor_retraction", 4)]),
    # floor words through the suffix shift and one theta squared
    (6, (1, 3, 5, 6), [("floor_retraction", 2), ("floor_retraction", 3),
                       ("floor_retraction", 4)]),
])
def test_pruned_tag_words_checked_once_per_set(monkeypatch, n, members, pruned):
    """Each word for a pruned retraction is checked once on the first
    pass; the second pass reuses the kept words and checks no word."""
    real = words._checked
    checked = []

    def counted(word, target):
        checked.append(target.images)
        return real(word, target)

    monkeypatch.setattr(words, "_checked", counted)
    Y = RangeSet(n, members)
    gens = minimum_generating_set(n, Y, check=False)
    assert not any(tag in gens.tag_words for tag in pruned)
    passes = []
    for _ in range(2):
        checked.clear()
        for f in enumerate_elements(Y):
            if len(image(f)) < len(Y):
                express_in_generators(f, gens)
        passes.append(Counter(checked))
    builders = {"floor_retraction": generators.floor_retraction,
                "ceiling_retraction": generators.ceiling_retraction}
    for kind, t in pruned:
        assert passes[0][builders[kind](Y, t).images] == 1
    assert not passes[1]
    assert set(pruned) <= set(gens.tag_words)


def test_sets_on_different_y_keep_their_own_tag_words():
    """(FLOOR, 2) is pruned from both sets; each gets its own word."""
    sets = [minimum_generating_set(5, RangeSet(5, m), check=False)
            for m in ((1, 3, 5), (2, 3, 5))]
    elements = [[f for f in enumerate_elements(g.range_set)
                 if len(image(f)) < len(g.range_set)] for g in sets]
    for pair in zip(*elements):  # interleaved: both sets fill their words
        for f, gens in zip(pair, sets):
            assert product_of(express_in_generators(f, gens)) == f
    for gens in sets:
        assert ("floor_retraction", 2) not in {
            (g.kind, g.index) for g in gens.members}
        word = gens.tag_words["floor_retraction", 2]
        assert product_of(list(word)) == generators.floor_retraction(
            gens.range_set, 2)
        assert all(w.images in gens.kind_of for w in word)
    assert sets[0].tag_words["floor_retraction", 2] != \
        sets[1].tag_words["floor_retraction", 2]


def test_each_regular_corank_one_map_slides_once_per_set(monkeypatch):
    """Every regular corank-one element is reached, as an element or as the
    right factor of one below it, and slid on the first pass only."""
    real = words.slide_to_missing_index
    slid = []

    def counted(alpha, target, Y):
        slid.append(alpha.images)
        return real(alpha, target, Y)

    monkeypatch.setattr(words, "slide_to_missing_index", counted)
    Y = RangeSet(6, (1, 3, 4, 6))
    gens = minimum_generating_set(6, Y, check=False)
    regular = {f.images for f in enumerate_elements(Y)
               if len(image(f)) == len(Y) - 1 and is_regular(f, Y)}
    passes = []
    for _ in range(2):
        slid.clear()
        for f in enumerate_elements(Y):
            if len(image(f)) < len(Y):
                express_in_generators(f, gens)
        passes.append(list(slid))
    assert sorted(passes[0]) == sorted(regular)
    assert set(gens.corank_words) == regular
    assert passes[1] == []


@pytest.mark.parametrize("n", range(3, 7))
def test_warm_set_gives_the_words_of_a_fresh_set(n):
    """Each element's word over a set that has kept every corank word is
    the word over a new set of the same members, whose memos are empty."""
    for Y in range_sets(n, smallest=2, largest=n - 1):
        warm = minimum_generating_set(n, Y, check=False)
        below = [f for f in enumerate_elements(Y) if len(image(f)) < len(Y)]
        for f in below:
            express_in_generators(f, warm)
        for f in below:
            fresh = GeneratingSet(Y, warm.members)
            assert not fresh.corank_words
            assert express_in_generators(f, warm) == \
                express_in_generators(f, fresh)


def test_sets_on_different_y_keep_their_own_corank_words():
    """A map of image {1, 3} is regular of corank one over both sets; each
    set keeps its own word for it, over its own generators."""
    sets = [minimum_generating_set(5, RangeSet(5, m), check=False)
            for m in ((1, 3, 5), (1, 3, 4))]
    elements = [[f for f in enumerate_elements(g.range_set)
                 if len(image(f)) < len(g.range_set)] for g in sets]
    for pair in zip(*elements):  # interleaved: both sets fill their memos
        for f, gens in zip(pair, sets):
            express_in_generators(f, gens)
    shared = set(sets[0].corank_words) & set(sets[1].corank_words)
    assert cm([1, 1, 3, 3, 3]).images in shared
    for gens in sets:
        for images, word in gens.corank_words.items():
            assert product_of(list(word)).images == images
            assert all(w.images in gens.kind_of for w in word)
    for images in shared:
        assert sets[0].corank_words[images] != sets[1].corank_words[images]


def test_mutating_a_returned_word_leaves_the_next_one_alone():
    Y = RangeSet(6, (1, 2, 4, 5))
    gens = minimum_generating_set(6, Y, check=False)
    alpha = generators.floor_retraction(Y, 4)
    first = express_in_generators(alpha, gens)
    kept = list(first)
    kept_tail = gens.tag_words["floor_retraction", 4]  # the pruned tag
    assert tuple(kept[-len(kept_tail):]) == kept_tail
    assert gens.corank_words[alpha.images] == tuple(kept)  # regular, corank one
    first.reverse()
    first.append(first[0])
    first[0] = identity(6)
    assert express_in_generators(alpha, gens) == kept
    assert gens.tag_words["floor_retraction", 4] == kept_tail
    assert gens.corank_words[alpha.images] == tuple(kept)


def test_empty_word_refused():
    with pytest.raises(DomainError, match=r"^empty word has no product$"):
        product_of([])
