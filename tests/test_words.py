import pytest

from conftest import range_sets
from ordrange import (
    ChainMap,
    DomainError,
    RangeSet,
    enumerate_elements,
    generators,
    express_in_generators,
    identity,
    image,
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
    assert const.images not in gens.images
    monkeypatch.setattr(words, "_express", lambda gens, alpha: [const])
    with pytest.raises(AssertionError, match="is not a generator"):
        express_in_generators(const, gens)
