from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, strategies as st

from conftest import gaps, range_sets, restrict
from ordrange import (
    ChainMap,
    ConvexPartition,
    DimensionMismatch,
    DomainError,
    GuardExceeded,
    PartialMap,
    RangeSet,
    build_extension,
    canonical_order_isomorphism,
    ceiling_extension,
    completability,
    complete_extensions,
    count_extensions,
    enumerate_elements,
    floor_extension,
    identity,
    is_completable,
    kernel,
)

cm = ChainMap.from_images


def all_partial_maps(n, Y):
    for k in range(1, n + 1):
        for dom in combinations(range(1, n + 1), k):
            for img in combinations_with_replacement(Y.members, k):
                yield PartialMap(n, dom, img)


class TestOrderIdeals:
    """The gaps the criterion scans follow the order ideals of the domain:
    gap t runs from the top of the t-point prefix ideal (0 for the empty
    ideal) to the least domain point above it (n + 1 past the domain)."""

    def test_two_points(self):
        theta = PartialMap(4, (1, 3), (1, 3))
        assert list(gaps(theta)) == [
            (0, 1, None, 1), (1, 3, 1, 3), (3, 5, 3, None)]

    def test_one_point(self):
        theta = PartialMap(3, (2,), (3,))
        assert list(gaps(theta)) == [(0, 2, None, 3), (2, 4, 3, None)]

    def test_empty(self):
        theta = PartialMap(5, (3, 4), (2, 2))
        assert next(gaps(theta)) == (0, 3, None, 2)

    def test_count(self):
        theta = PartialMap(8, (2, 3, 5, 7), (1, 1, 4, 8))
        assert len(list(gaps(theta))) == 5


class TestCriterion:
    def test_partial_identity_y13(self, y13):
        theta = PartialMap(3, (1, 3), (1, 3))
        assert is_completable(theta, y13)

    def test_small(self):
        Y = RangeSet(2, (1, 2))
        assert is_completable(PartialMap(2, (1,), (2,)), Y)

    def test_rejects_image_outside_range(self, y13):
        with pytest.raises(DomainError):
            is_completable(PartialMap(3, (1,), (2,)), y13)

    def test_always_true_on_finite_chains(self):
        for n in range(1, 5):
            for Y in range_sets(n):
                for theta in all_partial_maps(n, Y):
                    assert is_completable(theta, Y)

    def test_matches_exhaustive_search(self):
        for n in range(1, 5):
            for Y in range_sets(n):
                for theta in all_partial_maps(n, Y):
                    verdict = is_completable(theta, Y)
                    exts = complete_extensions(theta, Y)
                    assert verdict == bool(exts)
                    witness = build_extension(theta, Y)
                    assert verdict == (witness is not None)
                    if witness is not None:
                        assert witness in exts


class TestExtensions:
    def test_partial_identity_extensions(self, y13):
        theta = PartialMap(3, (1, 3), (1, 3))
        got = {f.images for f in complete_extensions(theta, y13)}
        assert got == {(1, 1, 3), (1, 3, 3)}

    def test_total_map_extends_to_itself_only(self, y13):
        theta = PartialMap(3, (1, 2, 3), (1, 1, 3))
        got = complete_extensions(theta, y13)
        assert got == [cm([1, 1, 3])]

    def test_worked_example_contains_both_canonical_extensions(
            self, monkeypatch):
        theta = PartialMap(9, (2, 5, 6, 8), (1, 3, 5, 7))
        Y = RangeSet(9, tuple(range(1, 10)))
        with pytest.raises(GuardExceeded, match=(
                "^semigroup has 24310 elements, above the guard 5000$")):
            complete_extensions(theta, Y)
        monkeypatch.setenv("ORDRANGE_MAX_ELEMENTS", "24310")
        exts = {f.images for f in complete_extensions(theta, Y)}
        assert floor_extension(theta).images in exts
        assert ceiling_extension(theta).images in exts

    def test_a_map_not_into_y_is_refused_before_the_guard(self):
        Y = RangeSet(9, tuple(range(1, 9)))  # 11440 elements
        with pytest.raises(DomainError, match=(
                r"^image value 9 is outside \[1, 2, 3, 4, 5, 6, 7, 8\]$")):
            complete_extensions(PartialMap(9, (1,), (9,)), Y)


    def test_filter_keeps_the_enumeration_order(self):
        for n in range(1, 5):
            for Y in range_sets(n):
                for theta in all_partial_maps(n, Y):
                    expected = [f for f in enumerate_elements(Y)
                                if all(f(a) == theta(a) for a in theta.domain)]
                    assert complete_extensions(theta, Y) == expected

    def test_count_matches_enumeration(self):
        for n in range(1, 6):
            for Y in range_sets(n):
                for theta in all_partial_maps(n, Y):
                    assert count_extensions(theta, Y) == \
                        len(complete_extensions(theta, Y)), (theta, Y)

    def test_builder_gives_the_least_extension(self):
        for n in range(1, 6):
            for Y in range_sets(n):
                for theta in all_partial_maps(n, Y):
                    assert build_extension(theta, Y) == \
                        complete_extensions(theta, Y)[0], (theta, Y)

    def test_count_rejects_image_outside_range(self, y13):
        with pytest.raises(DomainError):
            count_extensions(PartialMap(3, (1,), (2,)), y13)


ROUTINES = [is_completable, count_extensions, build_extension]


class TestOnePass:
    @pytest.mark.parametrize("routine", ROUTINES)
    @pytest.mark.parametrize("theta, message", [
        (PartialMap(3, (1, 2), (1, 2)), r"^image value 2 is outside \[1, 3\]$"),
        (PartialMap(4, (1,), (1,)), r"^range set lives on chain 3, not 4$"),
    ])
    def test_refuses_a_map_not_into_y(self, y13, routine, theta, message):
        with pytest.raises(DomainError, match=message):
            routine(theta, y13)

    @pytest.mark.parametrize("routine", ROUTINES)
    @pytest.mark.parametrize("theta, first", [
        (PartialMap(5, (1, 2, 4), (2, 3, 4)), 2),
        (PartialMap(5, (1, 3, 4, 5), (1, 2, 4, 5)), 2),
        (PartialMap(5, (2, 4, 5), (3, 4, 4)), 4),
    ])
    def test_names_the_first_value_outside_y(self, routine, theta, first):
        """Two values outside Y: the refusal names the one at the least
        domain point."""
        with pytest.raises(DomainError,
                           match=rf"^image value {first} is outside \[1, 3, 5\]$"):
            routine(theta, RangeSet(5, (1, 3, 5)))

    def test_least_extension_asserts_agreement_on_the_domain(self, monkeypatch):
        """build_extension checks what extend returns at every domain
        point: a map that disagrees at one of them fails its assert."""
        theta, Y = PartialMap(5, (2, 4), (1, 3)), RangeSet(5, (1, 3, 5))
        assert build_extension(theta, Y) == cm([1, 1, 1, 3, 3])
        # monotone and into Y, but 1 at the domain point 4, not 3
        monkeypatch.setattr(PartialMap, "extend",
                            lambda theta, choose: cm([1, 1, 1, 1, 3]))
        with pytest.raises(AssertionError):
            build_extension(theta, Y)

    @pytest.mark.parametrize("routine", ROUTINES)
    def test_reads_the_partial_map_once(self, monkeypatch, routine):
        real, calls = completability._gaps_into, []

        def counted(theta, Y):
            calls.append(theta)
            return real(theta, Y)

        monkeypatch.setattr(completability, "_gaps_into", counted)
        monkeypatch.setattr(completability, "is_completable", None)
        routine(PartialMap(5, (2, 4), (1, 3)), RangeSet(5, (1, 3, 5)))
        assert len(calls) == 1


class TestCanonicalOrderIsomorphism:
    def test_fiber_matching(self):
        theta = canonical_order_isomorphism(cm([1, 1, 2]), cm([2, 2, 3]))
        assert theta == PartialMap(3, (1, 2), (2, 3))

    def test_same_map_gives_partial_identity(self):
        f = cm([1, 1, 3])
        theta = canonical_order_isomorphism(f, f)
        assert theta.domain == theta.images == (1, 3)

    def test_another_pair(self):
        theta = canonical_order_isomorphism(cm([1, 2, 2]), cm([1, 3, 3]))
        assert theta == PartialMap(3, (1, 2), (1, 3))

    def test_kernel_mismatch_rejected(self):
        with pytest.raises(DomainError,
                           match=r"^kernels differ: \(2, 3\) vs \(1, 3\)$"):
            canonical_order_isomorphism(cm([1, 1, 3]), cm([1, 3, 3]))

    def test_maps_on_two_chains_are_a_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch,
                           match=r"^maps live on different chains$"):
            canonical_order_isomorphism(cm([1, 1, 3]), cm([1, 1]))

    def test_kernel_equal_pairs_need_no_kernel(self, monkeypatch):
        """The bijection is read off the image pairs: kernels are built
        only to word the refusal of a kernel-unequal pair."""
        def unused(*args):
            raise AssertionError("kernel built for a kernel-equal pair")

        monkeypatch.setattr(completability, "kernel", unused)
        monkeypatch.setattr(ConvexPartition, "blocks", unused)
        theta = canonical_order_isomorphism(cm([1, 1, 2, 4]), cm([2, 2, 3, 4]))
        assert theta == PartialMap(4, (1, 2, 4), (2, 3, 4))

    def test_roundtrip_recovers_both_maps(self):
        for Y in range_sets(4):
            by_kernel = {}
            for f in enumerate_elements(Y):
                by_kernel.setdefault(kernel(f).boundaries, []).append(f)
            for group in by_kernel.values():
                for f in group:
                    for g in group:
                        theta = canonical_order_isomorphism(f, g)
                        inv = PartialMap(4, theta.images, theta.domain)
                        for x in range(1, 5):
                            assert theta(f(x)) == g(x)
                            assert inv(g(x)) == f(x)


def is_bicompletable(theta, Y):
    """An injective map between subsets of Y and its inverse both extend."""
    inverse = PartialMap(theta.n, theta.images, theta.domain)
    return is_completable(theta, Y) and is_completable(inverse, Y)


class TestBicompletable:
    def test_partial_identity_in_full_range(self):
        Y = RangeSet(4, (1, 2, 3, 4))
        for dom in ((1,), (2, 3), (1, 4), (1, 2, 3, 4)):
            theta = PartialMap(4, dom, dom)
            assert is_bicompletable(theta, Y)

    def test_shift(self):
        Y = RangeSet(3, (1, 2, 3))
        assert is_bicompletable(PartialMap(3, (1, 2), (2, 3)), Y)

    def test_domain_must_sit_in_range_set(self, y13):
        with pytest.raises(DomainError):
            is_bicompletable(PartialMap(3, (2,), (3,)), y13)

    def test_every_injective_map_between_subsets_of_y(self):
        for n in range(1, 5):
            for Y in range_sets(n):
                for k in range(1, len(Y) + 1):
                    for dom in combinations(Y.members, k):
                        for img in combinations(Y.members, k):
                            theta = PartialMap(n, dom, img)
                            assert is_bicompletable(theta, Y)


@given(st.data())
def test_random_partial_maps_complete_on_larger_chains(data):
    # beyond the exhaustive sweeps: finite chains never refuse an extension
    n = data.draw(st.integers(1, 9))
    members = tuple(sorted(data.draw(
        st.sets(st.integers(1, n), min_size=1, max_size=n))))
    Y = RangeSet(n, members)
    k = data.draw(st.integers(1, n))
    dom = tuple(sorted(data.draw(
        st.sets(st.integers(1, n), min_size=k, max_size=k))))
    img = tuple(sorted(data.draw(
        st.lists(st.sampled_from(members), min_size=len(dom),
                 max_size=len(dom)))))
    theta = PartialMap(n, dom, img)
    assert is_completable(theta, Y)
    ext = build_extension(theta, Y)
    assert ext is not None
    assert all(ext(a) == theta(a) for a in dom)
    assert set(ext.images) <= set(members)


def test_restrict_then_extend_is_identity_on_domain():
    f = identity(5)
    theta = restrict(f, {2, 4})
    ext = build_extension(theta, RangeSet(5, (1, 2, 3, 4, 5)))
    assert ext is not None and ext(2) == 2 and ext(4) == 4
