import copy
import inspect
import pickle
import re
from itertools import combinations, combinations_with_replacement, product

import pytest
from hypothesis import given, strategies as st

from conftest import (extend_by_gaps, fixed_points, reflect_partial, refines,
                      restrict)
from ordrange import (
    ChainMap,
    ConvexPartition,
    DimensionMismatch,
    DomainError,
    PartialMap,
    RangeSet,
    ceiling_extension,
    compose,
    constant,
    enumerate_elements,
    floor_extension,
    identity,
    image,
    kernel,
    maps_into,
    reflect,
    reflect_set,
    values,
)
from ordrange.chain import _Frozen, check_on_chain

cm = ChainMap.from_images


def chain_maps(max_n=6):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(st.integers(1, n), min_size=n, max_size=n)
        .map(sorted).map(lambda xs: ChainMap(n, tuple(xs))))


def chain_map_pairs(max_n=6):
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(1, n), min_size=n, max_size=n).map(sorted),
            st.lists(st.integers(1, n), min_size=n, max_size=n).map(sorted),
        ).map(lambda fg: (ChainMap(n, tuple(fg[0])), ChainMap(n, tuple(fg[1])))))


class TestConstruction:
    def test_rejects_wrong_length(self):
        with pytest.raises(DomainError):
            ChainMap(3, (1, 2))

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            ChainMap(3, (0, 1, 2))
        with pytest.raises(DomainError):
            ChainMap(3, (1, 2, 4))

    def test_rejects_decreasing(self):
        with pytest.raises(DomainError):
            ChainMap(3, (2, 1, 3))

    def test_partial_map_needs_strict_domain(self):
        with pytest.raises(DomainError):
            PartialMap(4, (2, 2), (1, 1))
        with pytest.raises(DomainError):
            PartialMap(4, (3, 2), (1, 1))

    def test_partial_map_rejects_empty(self):
        with pytest.raises(DomainError):
            PartialMap(4, (), ())

    def test_range_set_rejects_unsorted(self):
        with pytest.raises(DomainError):
            RangeSet(4, (3, 1))
        with pytest.raises(DomainError):
            RangeSet(4, (1, 1))
        with pytest.raises(DomainError):
            RangeSet(4, ())

    def test_rejects_non_integer_points(self):
        with pytest.raises(DomainError,
                           match=r"^domain point 1\.5 is not an int$"):
            PartialMap(3, (1.5,), (1,))
        with pytest.raises(DomainError, match=r"^image 1\.0 is not an int$"):
            PartialMap(3, (1,), (1.0,))
        with pytest.raises(DomainError, match=r"^member 2\.0 is not an int$"):
            RangeSet(3, (1, 2.0))
        for call, message in [
                (lambda: ChainMap(3, (1, 2, 3))(1.5), "point 1.5"),
                (lambda: PartialMap(3, (1,), (2,))(1.0), "point 1.0"),
                (lambda: ConvexPartition(3, (1, 3)).block_of(1.5), "point 1.5"),
                (lambda: ConvexPartition(3, (2, 3)).split_block(1.5),
                 "block 1.5"),
                (lambda: RangeSet(3, (1, 3)).without(1.5), "index 1.5")]:
            with pytest.raises(DomainError,
                               match=f"^{re.escape(message)} is not an int$"):
                call()

    def test_rejects_bool_points(self):
        with pytest.raises(DomainError, match=r"^image True is not an int$"):
            ChainMap(2, (True, 2))
        with pytest.raises(DomainError,
                           match=r"^domain point True is not an int$"):
            PartialMap(3, (True,), (1,))
        with pytest.raises(DomainError, match=r"^image True is not an int$"):
            PartialMap(3, (1,), (True,))
        with pytest.raises(DomainError, match=r"^member True is not an int$"):
            RangeSet(3, (True, 3))
        for call, name in [
                (lambda: ChainMap(3, (1, 2, 3))(True), "point"),
                (lambda: PartialMap(3, (1,), (2,))(True), "point"),
                (lambda: ConvexPartition(3, (1, 3)).block_of(True), "point"),
                (lambda: ConvexPartition(3, (2, 3)).split_block(True), "block"),
                (lambda: RangeSet(3, (1, 3)).without(True), "index")]:
            with pytest.raises(DomainError, match=f"^{name} True is not an int$"):
                call()

    @pytest.mark.parametrize("build", [
        lambda n: ChainMap(n, (1, 2)),
        lambda n: PartialMap(n, (1,), (1,)),
        lambda n: RangeSet(n, (1,)),
        lambda n: ConvexPartition(n, (1, 2)),
        identity,
        lambda n: constant(n, 1),
    ], ids=["ChainMap", "PartialMap", "RangeSet", "ConvexPartition",
            "identity", "constant"])
    @pytest.mark.parametrize("n", [2.0, 3.5, True])
    def test_rejects_a_chain_size_that_is_not_an_int(self, build, n):
        with pytest.raises(DomainError,
                           match=f"^chain size {re.escape(repr(n))} is not an int$"):
            build(n)

    def test_partition_must_end_at_n(self):
        with pytest.raises(DomainError):
            ConvexPartition(4, (2, 3))

    @pytest.mark.parametrize("boundaries", [(1.5, 3), (True, 3), (1, 3.0)])
    def test_partition_rejects_non_integer_boundaries(self, boundaries):
        bad = next(v for v in boundaries if type(v) is not int)
        with pytest.raises(DomainError, match=(
                f"^boundary point {re.escape(repr(bad))} is not an int$")):
            ConvexPartition(3, boundaries)


class TestCompose:
    def test_pointwise(self):
        assert compose(cm([1, 1, 3]), cm([1, 3, 3])) == cm([1, 1, 3])
        assert compose(identity(3), cm([1, 3, 3])) == cm([1, 3, 3])
        assert compose(cm([1, 3, 3]), cm([1, 1, 3])) == cm([1, 3, 3])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            compose(cm([1, 2]), cm([1, 2, 3]))

    def test_constant_absorbs(self):
        # a constant followed by f is the constant at f's value
        assert compose(constant(3, 1), cm([1, 3, 3])) == constant(3, 1)
        # anything followed by a constant is that constant
        assert compose(cm([1, 3, 3]), constant(3, 2)) == constant(3, 2)

    def test_associative_exhaustive_n3(self):
        maps = [ChainMap(3, seq) for seq in
                [(a, b, c) for a in range(1, 4) for b in range(a, 4)
                 for c in range(b, 4)]]
        for f in maps:
            for g in maps:
                fg = compose(f, g)
                for h in maps:
                    assert compose(fg, h) == compose(f, compose(g, h))

    def test_results_equal_checked_maps(self):
        # compose and the enumeration build maps without re-checking them
        for n in range(1, 5):
            maps = [ChainMap(n, seq) for seq in
                    combinations_with_replacement(range(1, n + 1), n)]
            built = [compose(f, g) for f in maps for g in maps]
            built += [f for size in range(1, n + 1)
                      for members in combinations(range(1, n + 1), size)
                      for f in enumerate_elements(RangeSet(n, members))]
            for f in built:
                checked = ChainMap(n, f.images)
                assert type(f.images) is tuple
                assert f == checked and hash(f) == hash(checked)
                assert repr(f) == repr(checked)

    @given(chain_map_pairs())
    def test_composition_stays_monotone(self, fg):
        f, g = fg
        out = compose(f, g)
        assert all(a <= b for a, b in zip(out.images, out.images[1:]))

    @given(chain_map_pairs())
    def test_image_shrinks(self, fg):
        f, g = fg
        prod = compose(f, g)
        assert set(image(prod).members) <= set(image(g).members)
        assert len(image(prod)) <= min(len(image(f)), len(image(g)))

    @given(chain_map_pairs())
    def test_kernel_refines(self, fg):
        f, g = fg
        assert refines(kernel(f), kernel(compose(f, g)))


class TestImageKernelFix:
    def test_image(self):
        assert image(cm([1, 1, 3])).members == (1, 3)
        assert image(cm([2, 2, 2])).members == (2,)

    def test_kernel(self):
        assert kernel(cm([1, 1, 3])).boundaries == (2, 3)
        assert kernel(identity(3)).boundaries == (1, 2, 3)
        assert kernel(cm([1, 3, 3])).blocks() == ((1, 1), (2, 3))

    def test_fixed_points(self):
        assert fixed_points(cm([1, 1, 3])) == {1, 3}
        assert fixed_points(cm([2, 2, 2])) == {2}
        assert fixed_points(cm([1, 3, 3])) == {1, 3}

    def test_block_count_matches_image(self):
        for seq in product(range(1, 5), repeat=4):
            if list(seq) != sorted(seq):
                continue
            f = ChainMap(4, seq)
            assert kernel(f).weight == len(image(f))


class TestRestrict:
    def test_recovers_seed_of_extension(self):
        theta = PartialMap(9, (2, 5, 6, 8), (1, 3, 5, 7))
        for extension in (floor_extension, ceiling_extension):
            assert restrict(extension(theta), theta.domain) == theta


class TestCanonicalExtensions:
    THETA = PartialMap(9, (2, 5, 6, 8), (1, 3, 5, 7))

    def test_floor_worked_example(self):
        assert floor_extension(self.THETA).images == (1, 1, 1, 1, 3, 5, 5, 7, 7)

    def test_ceiling_worked_example(self):
        assert ceiling_extension(self.THETA).images == (1, 1, 3, 3, 3, 5, 7, 7, 7)

    def test_total_map_extends_to_itself(self):
        f = cm([1, 2, 2, 4])
        theta = restrict(f, {1, 2, 3, 4})
        assert floor_extension(theta) == f
        assert ceiling_extension(theta) == f

    def test_single_point_gives_constant(self):
        theta = PartialMap(5, (3,), (4,))
        assert floor_extension(theta) == constant(5, 4)
        assert ceiling_extension(theta) == constant(5, 4)

    def test_match_their_definitions_exhaustively(self):
        """floor(x) is the image of the greatest domain point <= x, else
        the first image; ceiling(x) the image of the least domain point
        >= x, else the last image."""
        for n in range(1, 7):
            points = range(1, n + 1)
            for k in points:
                for dom in combinations(points, k):
                    for img in combinations_with_replacement(points, k):
                        pairs = list(zip(dom, img))
                        floor = tuple(
                            max((p for p in pairs if p[0] <= x),
                                default=pairs[0])[1] for x in points)
                        ceiling = tuple(
                            min((p for p in pairs if p[0] >= x),
                                default=pairs[-1])[1] for x in points)
                        theta = PartialMap(n, dom, img)
                        assert floor_extension(theta).images == floor, theta
                        assert ceiling_extension(theta).images == ceiling, theta

    def test_match_the_gap_reference_exhaustively(self):
        """extend, floor_extension and ceiling_extension give the maps the
        gap-by-gap reference builds, and extend asks ``choose`` about the
        same gaps in the same order, on every partial map with n <= 5."""
        choosers = [lambda lo, hi: hi if lo is None else lo,
                    lambda lo, hi: lo if hi is None else hi,
                    lambda lo, hi: ((lo or hi) + (hi or lo)) // 2]
        for n in range(1, 6):
            points = range(1, n + 1)
            for k in points:
                for dom in combinations(points, k):
                    for img in combinations_with_replacement(points, k):
                        theta = PartialMap(n, dom, img)
                        for choose in choosers:
                            want, asked = extend_by_gaps(theta, choose)
                            seen = []
                            got = theta.extend(
                                lambda lo, hi: seen.append((lo, hi)) or
                                choose(lo, hi))
                            assert (got.images, seen) == (want, asked), theta
                        assert floor_extension(theta).images == \
                            extend_by_gaps(theta, choosers[0])[0], theta
                        assert ceiling_extension(theta).images == \
                            extend_by_gaps(theta, choosers[1])[0], theta

    @given(st.data())
    def test_agree_on_domain_and_image(self, data):
        n = data.draw(st.integers(1, 7))
        k = data.draw(st.integers(1, n))
        dom = tuple(sorted(data.draw(
            st.sets(st.integers(1, n), min_size=k, max_size=k))))
        img = tuple(sorted(data.draw(
            st.lists(st.integers(1, n), min_size=len(dom), max_size=len(dom)))))
        theta = PartialMap(n, dom, img)
        for ext in (floor_extension(theta), ceiling_extension(theta)):
            assert all(ext(a) == theta(a) for a in dom)
            assert set(image(ext).members) == set(img)


class TestReflect:
    def test_reflect_set(self):
        assert reflect_set(RangeSet(4, (1, 2))).members == (3, 4)

    def test_identity_fixed(self):
        assert reflect(identity(4)) == identity(4)

    def test_example(self):
        # conjugation by the flip 1<->3 of the chain
        assert reflect(cm([1, 1, 3])) == cm([1, 3, 3])

    @given(chain_maps())
    def test_involution(self, f):
        assert reflect(reflect(f)) == f

    @given(chain_map_pairs())
    def test_automorphism(self, fg):
        f, g = fg
        assert reflect(compose(f, g)) == compose(reflect(f), reflect(g))

    def test_partial_reflection_swaps_extensions(self):
        theta = PartialMap(9, (2, 5, 6, 8), (1, 3, 5, 7))
        assert reflect(floor_extension(theta)) == \
            ceiling_extension(reflect_partial(theta))


def test_values_are_the_members_of_the_image():
    for n in range(1, 6):
        for f in enumerate_elements(RangeSet(n, tuple(range(1, n + 1)))):
            assert values(f) == image(f).members, f


def test_maps_into():
    assert maps_into(cm([1, 1, 3]), RangeSet(3, (1, 3)))
    assert not maps_into(cm([1, 2, 3]), RangeSet(3, (1, 3)))


def test_range_set_on_another_chain_is_a_dimension_mismatch():
    with pytest.raises(DimensionMismatch,
                       match=r"^range set lives on chain 5, not 4$"):
        check_on_chain(4, RangeSet(5, (1, 3)))


_Y135 = RangeSet(5, (1, 3, 5))


@pytest.mark.parametrize("call, message", [
    (lambda: RangeSet(0, (1,)), "chain size must be positive, got 0"),
    (lambda: ChainMap(3, (1, 2, 3))(4), "point 4 outside 1..3"),
    (lambda: PartialMap(3, (), ()), "partial map needs a nonempty domain"),
    (lambda: PartialMap(3, (1,), (2,))(2), "point 2 not in domain [1]"),
    (lambda: _Y135.without(4), "index 4 outside 1..3"),
    (lambda: ConvexPartition(3, (1, 3)).block_of(4), "point 4 outside 1..3"),
    (lambda: ConvexPartition(3, (1, 3)).split_block(1),
     "block 1 is a singleton, cannot split"),
    (lambda: ConvexPartition(5, (2, 5)).split_block(0), "block 0 outside 1..2"),
    (lambda: ConvexPartition(5, (2, 5)).split_block(-1),
     "block -1 outside 1..2"),
    (lambda: ConvexPartition(5, (2, 5)).split_block(3), "block 3 outside 1..2"),
])
def test_refusals(call, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()


# (build, a field, a value of that field the constructor refuses)
VALUE_TYPES = [
    (lambda: ChainMap(4, (1, 1, 3, 4)), "images", (4, 3, 1, 1)),
    (lambda: PartialMap(5, (1, 4), (2, 5)), "domain", (4, 1)),
    (lambda: RangeSet(5, (1, 3, 5)), "members", (5, 3, 1)),
    (lambda: ConvexPartition(5, (2, 5)), "boundaries", (2, 4)),
]
ROUND_TRIPS = [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))]
TRIP_IDS = ["copy", "deepcopy", "pickle"]


@pytest.mark.parametrize("build, field, bad", VALUE_TYPES,
                         ids=["ChainMap", "PartialMap", "RangeSet",
                              "ConvexPartition"])
class TestValueTypes:
    def test_equal_fields_give_equal_values_and_hashes(self, build, field, bad):
        a, b = build(), build()
        assert a is not b
        assert a == b and not a != b and hash(a) == hash(b)

    def test_fields_refuse_assignment_and_deletion(self, build, field, bad):
        a = build()
        for name in (field, "n", "extra"):
            with pytest.raises(AttributeError):
                setattr(a, name, bad)
        for name in (field, "n"):
            with pytest.raises(AttributeError):
                delattr(a, name)
        assert a == build()

    @pytest.mark.parametrize("trip", ROUND_TRIPS, ids=TRIP_IDS)
    def test_copies_are_rebuilt_through_the_constructor(
            self, build, field, bad, trip, monkeypatch):
        a = build()
        cls = type(a)
        init, calls = cls.__init__, []

        def counted(self, *args):
            calls.append(args)
            init(self, *args)
        monkeypatch.setattr(cls, "__init__", counted)
        b = trip(a)
        assert type(b) is cls and b == a and hash(b) == hash(a)
        assert len(calls) == 1
        object.__setattr__(a, field, bad)
        with pytest.raises(DomainError):
            trip(a)


def test_fields_are_the_constructor_parameters_of_every_value_type():
    """Equality, hashing and copies read ``_fields``; a copy calls the
    constructor on them positionally, so they must be its parameters."""
    subclasses = _Frozen.__subclasses__()
    assert {cls.__name__ for cls in subclasses} >= {
        "ChainMap", "PartialMap", "RangeSet", "ConvexPartition",
        "TaggedGenerator", "GeneratingSet"}
    for cls in subclasses:
        params = tuple(inspect.signature(cls.__init__).parameters)[1:]
        assert len(cls._fields) >= 2 and cls._fields == params, cls


def test_values_of_other_types_with_equal_fields_differ():
    whole = (1, 2, 3)
    values = [ChainMap(3, whole), RangeSet(3, whole), ConvexPartition(3, whole),
              PartialMap(3, whole, whole), (3, whole), (3, whole, whole)]
    for a, b in combinations(values, 2):
        assert a != b and b != a
