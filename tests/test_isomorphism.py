import hashlib
import json
from itertools import permutations

import pytest

import ordrange.isomorphism as search_module
from conftest import fixed_points, mixed_constants, range_sets
from ordrange import (
    GuardExceeded,
    RangeSet,
    are_isomorphic,
    enumerate_semigroup,
    find_isomorphism,
    image,
    induced_range_bijection,
    is_isomorphism,
    isomorphism_condition,
    reflect,
    reflect_set,
)
from ordrange.enumeration import DEFAULT_SEARCH_GUARD, count_maps, search_guard


class TestClassification:
    def test_mirror_sets(self):
        Y, Z = RangeSet(4, (1, 2)), RangeSet(4, (3, 4))
        assert are_isomorphic(Y, Z)
        assert isomorphism_condition(Y, Z) == 3

    def test_equal_sets(self):
        Y = RangeSet(4, (1, 2))
        assert isomorphism_condition(Y, Y) == 2

    def test_unrelated_sets(self):
        Y, Z = RangeSet(4, (1, 2)), RangeSet(4, (1, 3))
        assert not are_isomorphic(Y, Z)

    def test_singletons_across_chain_sizes(self):
        Y, Z = RangeSet(3, (2,)), RangeSet(5, (4,))
        assert isomorphism_condition(Y, Z) == 1

    def test_symmetric_and_reflexive(self):
        for Y in range_sets(4):
            assert are_isomorphic(Y, Y)
            for Z in range_sets(4):
                assert are_isomorphic(Y, Z) == are_isomorphic(Z, Y)


class TestSearch:
    def test_mirror_pair_found(self):
        S = enumerate_semigroup(RangeSet(4, (1, 2)))
        T = enumerate_semigroup(RangeSet(4, (3, 4)))
        phi = find_isomorphism(S, T)
        assert phi is not None
        assert is_isomorphism(phi, S, T)

    def test_conjugation_by_reflection_is_an_isomorphism(self):
        S = enumerate_semigroup(RangeSet(4, (1, 2)))
        T = enumerate_semigroup(RangeSet(4, (3, 4)))
        phi = {i: T.id_of(reflect(f)) for i, f in enumerate(S.elements)}
        assert is_isomorphism(phi, S, T)

    def test_unrelated_pair_not_found(self):
        S = enumerate_semigroup(RangeSet(4, (1, 2)))
        T = enumerate_semigroup(RangeSet(4, (1, 3)))
        assert find_isomorphism(S, T) is None

    def test_self_isomorphism_found(self, y13):
        S = enumerate_semigroup(y13)
        phi = find_isomorphism(S, S)
        assert phi is not None and is_isomorphism(phi, S, S)

    def test_non_bijection_is_not_an_isomorphism(self, y13):
        S = enumerate_semigroup(y13)
        identity = {a: a for a in range(len(S))}
        assert is_isomorphism(identity, S, S)
        assert not is_isomorphism({**identity, 1: 2}, S, S)  # not injective
        assert not is_isomorphism({0: 0}, S, S)               # not total

    @pytest.mark.parametrize("last_to", [
        (3, 4),    # a value past the last id
        (3, -1),   # a negative value
        (4, 3),    # a key past the last id, in place of 3
    ])
    def test_certificate_refuses_a_map_off_the_ids(self, y13, last_to):
        """A map that is not a bijection of 0..N-1 is refused before any
        column is read, not raised on."""
        S = enumerate_semigroup(y13)
        phi = {a: a for a in range(len(S) - 1)}
        key, value = last_to
        phi[key] = value
        assert len(phi) == len(S)
        assert not is_isomorphism(phi, S, S)

    @pytest.mark.parametrize("n, Y, Z", [(3, (1, 3), (1, 3)),
                                         (4, (1, 2), (3, 4)),
                                         (5, (2, 4), (2, 4))])
    def test_certificate_is_the_definition_on_every_bijection(self, n, Y, Z):
        """On small tables the certificate accepts exactly the bijections
        that respect every product, read through the public accessor."""
        S = enumerate_semigroup(RangeSet(n, Y))
        T = enumerate_semigroup(RangeSet(n, Z))
        ids = range(len(S))
        accepted = 0
        for images in permutations(ids):
            phi = dict(zip(ids, images))
            expected = all(T.product(phi[a], phi[b]) == phi[S.product(a, b)]
                           for a in ids for b in ids)
            assert is_isomorphism(phi, S, T) == expected
            accepted += expected
        assert accepted >= 1

    def test_size_mismatch_short_circuits(self):
        S = enumerate_semigroup(RangeSet(3, (1, 3)))
        T = enumerate_semigroup(RangeSet(3, (1, 2, 3)))
        assert find_isomorphism(S, T) is None

    def test_deterministic(self):
        S = enumerate_semigroup(RangeSet(4, (1, 2)))
        T = enumerate_semigroup(RangeSet(4, (3, 4)))
        assert find_isomorphism(S, T) == find_isomorphism(S, T)

    def test_guard(self, monkeypatch):
        S = enumerate_semigroup(RangeSet(4, (1, 2, 3, 4)))
        monkeypatch.setenv("ORDRANGE_MAX_ELEMENTS", "10")
        with pytest.raises(GuardExceeded):
            find_isomorphism(S, S)

    def test_matches_classification_n3(self):
        for n in (2, 3):
            sets = list(range_sets(n))
            tables = {Y.members: enumerate_semigroup(Y) for Y in sets}
            for Y in sets:
                for Z in sets:
                    expected = are_isomorphic(Y, Z)
                    got = find_isomorphism(tables[Y.members], tables[Z.members])
                    assert (got is not None) == expected

    @pytest.mark.parametrize("n", range(1, 8))
    def test_self_and_mirror_pairs_certified(self, n):
        """Every self and mirror pair inside the search guard ends with a
        certified map."""
        for Y in range_sets(n):
            if count_maps(n, len(Y)) > search_guard():
                continue
            S = enumerate_semigroup(Y)
            for Z in (Y, reflect_set(Y)):
                T = enumerate_semigroup(Z)
                phi = find_isomorphism(S, T)
                assert phi is not None and is_isomorphism(phi, S, T)

    def test_same_maps_as_the_generator_search_n4(self):
        """The 225 answers at n = 4, pinned from the earlier search over
        generator images: the least isomorphism is unchanged."""
        sets = list(range_sets(4))
        tables = {Y.members: enumerate_semigroup(Y) for Y in sets}
        lines = []
        for Y in sets:
            for Z in sets:
                phi = find_isomorphism(tables[Y.members], tables[Z.members])
                lines.append(json.dumps([
                    list(Y.members), list(Z.members),
                    None if phi is None else [phi[a] for a in range(len(phi))]]))
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == ("0d7377264e018a70c92c5973d252821066c5fd2ff8bc7534"
                          "bac735e5c4df625f")

    def test_pinned_answers_within_the_guard_up_to_n6(self):
        """The search's answer on every ordered pair of equal-size range
        sets with n <= 5 whose table is within the default search guard,
        and on the self and mirror pairs at n = 6, pinned; every found
        map induces a monotone or antitone range bijection."""
        pairs = [(Y, Z) for n in range(1, 6) for Y in range_sets(n)
                 for Z in range_sets(n, len(Y), len(Y))]
        pairs += [(Y, Z) for Y in range_sets(6) for Z in (Y, reflect_set(Y))]
        lines = []
        tables = {}
        for Y, Z in pairs:
            if count_maps(Y.n, len(Y)) > DEFAULT_SEARCH_GUARD:
                continue
            for X in (Y, Z):
                if X not in tables:
                    tables[X] = enumerate_semigroup(X)
            S, T = tables[Y], tables[Z]
            phi = find_isomorphism(S, T)
            if phi is not None:
                induced_range_bijection(phi, S, T)
            lines.append(json.dumps([
                Y.n, list(Y.members), list(Z.members),
                None if phi is None else [phi[a] for a in range(len(phi))]]))
        assert len(lines) == 426
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == ("78f1a53c027d01d4cf9b6594815e8cbe043f05b7bd68393d"
                          "5f82f6e73db05e61")

    def test_least_map_with_many_automorphisms(self):
        S = enumerate_semigroup(RangeSet(9, (1, 5)))
        T = enumerate_semigroup(RangeSet(9, (5, 9)))
        phi = find_isomorphism(S, T)
        assert [phi[a] for a in range(len(S))] == [9, 5, 6, 7, 8, 1, 2, 3, 4, 0]

    def test_every_answer_is_certified(self, monkeypatch):
        """Only maps the full-table check accepts are returned, and the
        check is looked up on the module, where the bench tracer wraps it."""
        monkeypatch.setattr(search_module, "is_isomorphism",
                            lambda phi, S, T: False)
        S = enumerate_semigroup(RangeSet(4, (1, 2)))
        T = enumerate_semigroup(RangeSet(4, (3, 4)))
        assert find_isomorphism(S, T) is None

    def test_self_map_is_the_identity(self):
        S = enumerate_semigroup(RangeSet(6, (1, 6)))
        assert find_isomorphism(S, S) == {a: a for a in range(len(S))}

    @pytest.mark.parametrize("n, members", [(4, (1, 3)), (5, (2, 3, 5)),
                                            (6, (2, 4, 6))])
    def test_self_pair_answers_as_two_equal_tables(self, n, members):
        """A self pair shares its product table between both sides; the
        answer is the one two separately built equal tables give."""
        Y = RangeSet(n, members)
        S, T = enumerate_semigroup(Y), enumerate_semigroup(Y)
        assert T is not S
        assert find_isomorphism(S, S) == find_isomorphism(S, T)


class TestInducedBijection:
    def test_mirror_pair(self):
        Y, Z = RangeSet(4, (1, 2)), RangeSet(4, (3, 4))
        S, T = enumerate_semigroup(Y), enumerate_semigroup(Z)
        phi = {i: T.id_of(reflect(f)) for i, f in enumerate(S.elements)}
        theta = induced_range_bijection(phi, S, T)
        assert theta == {1: 4, 2: 3}

    def test_identity_automorphism(self, y13):
        S = enumerate_semigroup(y13)
        phi = {i: i for i in range(len(S))}
        theta = induced_range_bijection(phi, S, S)
        assert theta == {1: 1, 3: 3}

    def test_monotone_or_antitone_and_conjugation_identity(self):
        # every found isomorphism induces a bijection that transports
        # the action: theta(y alpha) == theta(y) applied to the image map
        for Y in range_sets(3):
            for Z in range_sets(3):
                S = enumerate_semigroup(Y)
                T = enumerate_semigroup(Z)
                phi = find_isomorphism(S, T)
                if phi is None:
                    continue
                theta = induced_range_bijection(phi, S, T)
                pairs = sorted(theta.items())
                values = [v for _, v in pairs]
                assert values == sorted(values) or values == sorted(values, reverse=True)
                for i, f in enumerate(S.elements):
                    g = T.elements[phi[i]]
                    for y in Y:
                        assert g(theta[y]) == theta[f(y)]
                    assert fixed_points(g) == {theta[y] for y in fixed_points(f)}
                    if f.is_idempotent() or len(image(f)) == 2:
                        assert set(image(g).members) == \
                            {theta[y] for y in image(f).members}

    def test_constant_swap_is_a_real_automorphism(self, y13):
        # swapping the two constants while fixing the middle elements is
        # exactly what an antitone induced bijection looks like
        S = enumerate_semigroup(y13)
        swap = {0: 3, 3: 0, 1: 1, 2: 2}
        assert is_isomorphism(swap, S, S)
        assert induced_range_bijection(swap, S, S) == {1: 3, 3: 1}

    def test_mixed_order_on_the_constants_reported_as_broken(self):
        # onto the range set, but neither monotone nor antitone
        S = enumerate_semigroup(RangeSet(3, (1, 2, 3)))
        phi = mixed_constants(S)
        with pytest.raises(AssertionError, match="neither monotone nor antitone"):
            induced_range_bijection(phi, S, S)

    def test_constant_to_nonconstant_reported_as_broken(self, y13):
        S = enumerate_semigroup(y13)
        bogus = {0: 1, 1: 0, 2: 2, 3: 3}
        assert not is_isomorphism(bogus, S, S)
        with pytest.raises(AssertionError):
            induced_range_bijection(bogus, S, S)
