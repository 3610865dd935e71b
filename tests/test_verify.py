"""The battery's report, pinned line by line."""

import json
import math

import pytest

from ordrange import (
    ChainMap,
    ConvexPartition,
    DomainError,
    GuardExceeded,
    RangeSet,
    cli,
    completability,
    complete_extensions,
    constant,
    generators,
    reflect,
    verify,
)
from ordrange.enumeration import DEFAULT_SEARCH_GUARD, count_maps, search_guard
from ordrange.generators import GeneratingSet, TaggedGenerator
from ordrange.verify import run_all


def test_run_all_n4_report():
    assert run_all(4)["lines"] == [
        "ok   cardinality  (15 sets)",
        "ok   regularity-oracle-equivalence",
        "ok   green-oracle-equivalence",
        "ok   completability-criterion",
        "ok   rank-constructed",
        "ok   rank-search  (skipped 1 of 15 sets: table above 21)",
        "ok   word-reconstruction  (skipped 1 of 15 sets: the whole chain, "
        "or n > 5)",
        "ok   canonical-order-isomorphism",
        "ok   isomorphism-classification",
    ]


def test_run_all_one_set_report():
    assert run_all(5, [RangeSet(5, (2, 4))])["lines"] == [
        "ok   cardinality  (1 sets)",
        "ok   regularity-oracle-equivalence",
        "ok   green-oracle-equivalence",
        "ok   completability-criterion",
        "ok   rank-constructed",
        "ok   rank-search",
        "ok   word-reconstruction",
        "ok   canonical-order-isomorphism",
    ]


def test_run_all_oversize_and_capped_notes():
    assert run_all(6, [RangeSet(6, (1, 2, 3, 4, 5))])["lines"] == [
        "ok   cardinality  (1 sets)",
        "ok   regularity-oracle-equivalence",
        "ok   green-oracle-equivalence  (skipped 1 of 1 sets: table above 130)",
        "ok   completability-criterion  (skipped 1 of 1 sets: n > 5)",
        "ok   rank-constructed",
        "ok   rank-search  (skipped 1 of 1 sets: table above 21)",
        "ok   word-reconstruction  (skipped 1 of 1 sets: the whole chain, "
        "or n > 5)",
        "ok   canonical-order-isomorphism",
    ]


def test_run_all_n6_report():
    """Lines captured before the canonical sweep built one bijection per
    distinct image pair and the green sweep keyed all five relations in
    one pass."""
    assert run_all(6)["lines"] == [
        "ok   cardinality  (63 sets)",
        "ok   regularity-oracle-equivalence",
        "ok   green-oracle-equivalence  (skipped 7 of 63 sets: table above "
        "130)",
        "ok   completability-criterion  (skipped 63 of 63 sets: n > 5)",
        "ok   rank-constructed",
        "ok   rank-search  (skipped 42 of 63 sets: table above 21)",
        "ok   word-reconstruction  (skipped 63 of 63 sets: the whole chain, "
        "or n > 5)",
        "ok   canonical-order-isomorphism",
        "ok   isomorphism-classification  (skipped 22 of 63 sets: table above "
        "60)",
    ]


def test_run_all_n5_report():
    """Lines captured before the isomorphism sweep reached n = 5; only the
    notes are new."""
    assert run_all(5)["lines"] == [
        "ok   cardinality  (31 sets)",
        "ok   regularity-oracle-equivalence",
        "ok   green-oracle-equivalence",
        "ok   completability-criterion",
        "ok   rank-constructed",
        "ok   rank-search  (skipped 6 of 31 sets: table above 21)",
        "ok   word-reconstruction  (skipped 1 of 31 sets: the whole chain, "
        "or n > 5)",
        "ok   canonical-order-isomorphism",
        "ok   isomorphism-classification  (skipped 1 of 31 sets: table above "
        "60)",
    ]


@pytest.mark.parametrize("n", range(1, 7))
def test_skip_notes_count_every_excluded_set(n):
    """Each capped check's note counts exactly the sets its cap excludes;
    a check that skips nothing has no note."""
    sizes = [count_maps(n, r) for r in range(1, n + 1)
             for _ in range(math.comb(n, r))]
    guard = search_guard()
    excluded = {
        "green-oracle-equivalence":
            sum(N > verify.GREEN_LIMIT for N in sizes),
        "completability-criterion":
            len(sizes) if n > verify.COMPLETABILITY_LIMIT else 0,
        "rank-search":
            sum(N > min(verify.BRUTE_RANK_LIMIT, guard) for N in sizes),
        "word-reconstruction":
            len(sizes) if n > verify.WORDS_LIMIT else 1,  # the whole chain
        "isomorphism-classification":
            sum(N > min(DEFAULT_SEARCH_GUARD, guard) for N in sizes),
    }
    lines = run_all(n)["lines"]
    for line in lines:
        assert line.startswith("ok   ")
        name, _, note = line[5:].partition("  ")
        if name == "cardinality":
            assert note == f"({len(sizes)} sets)"
        elif excluded.get(name, 0):
            assert note.startswith(
                f"(skipped {excluded[name]} of {len(sizes)} sets: ")
        else:
            assert note == ""
    if n == 4:
        assert ("ok   word-reconstruction  (skipped 1 of 15 sets: the whole "
                "chain, or n > 5)") in lines


@pytest.mark.parametrize("value, note", [
    ("7000", "skipped 1 of 31 sets: table above 60"),
    ("20", "skipped 16 of 31 sets: table above 20"),
])
def test_env_guard_only_lowers_the_isomorphism_cap(monkeypatch, value, note):
    """ORDRANGE_MAX_ELEMENTS may narrow the pairwise search sweep but
    never widen it: raised to 7000 for the closure guard, it would
    otherwise put every table up to N = 6435 in the sweep."""
    monkeypatch.setenv("ORDRANGE_MAX_ELEMENTS", value)
    assert f"ok   isomorphism-classification  ({note})" in run_all(5)["lines"]


@pytest.mark.parametrize("n", range(1, 6))
def test_every_report_line_starts_with_ok(capsys, n):
    """A passing battery prints only ok lines: the benchmark counts any
    other line as a failed op."""
    assert cli.main(["verify", "-n", str(n), "--all", "--format", "json"]) == 0
    *report, payload = capsys.readouterr().out.splitlines()
    assert json.loads(payload)["checks"] == len(report)
    assert all(line.startswith("ok") for line in report)


def test_isomorphism_sweep_checks_mirror_pairs(monkeypatch):
    """A search that misses every mirror isomorphism fails the sweep."""
    search = verify.find_isomorphism

    def blind(S, T):
        mirrored = {reflect(f).images for f in S.elements}
        if S is not T and mirrored == {f.images for f in T.elements}:
            return None
        return search(S, T)

    monkeypatch.setattr(verify, "find_isomorphism", blind)
    report = run_all(5)
    assert report["failures"] == 1
    assert ("FAIL isomorphism-classification  (Y=[1] Z=[5])"
            in report["lines"])


def test_one_table_per_range_set(table_builds):
    """Every sweep, the rank search included, reads the one table of its
    range set."""
    assert run_all(4)["failures"] == 0
    assert table_builds == verify._all_range_sets(4)


def test_one_generating_set_per_range_set(monkeypatch):
    """The regularity, rank-constructed and word sweeps share one
    constructed set per range set."""
    calls = []
    build = verify.minimum_generating_set

    def counted(n, Y, **kw):
        calls.append(Y)
        return build(n, Y, **kw)

    monkeypatch.setattr(verify, "minimum_generating_set", counted)
    assert run_all(4)["failures"] == 0
    assert calls == verify._all_range_sets(4)


@pytest.mark.parametrize("n, sets", [
    (8, None),
    (40, None),
    (8, [RangeSet(8, (1, 3)), RangeSet(8, tuple(range(1, 9)))]),
])
def test_closure_guard_refuses_before_any_work(monkeypatch, n, sets):
    """The largest requested set is above the guard: no set is built,
    and a sweep of every set lists none."""
    calls = []
    monkeypatch.setattr(verify, "enumerate_semigroup",
                        lambda Y: calls.append(Y))
    with pytest.raises(GuardExceeded, match="above the guard 5000"):
        run_all(n, sets)
    assert calls == []


def test_rank_constructed_checks_closure(monkeypatch):
    """A set of the right size that fails to generate is reported, and
    the regularity oracle, which certifies the set it reads, refuses it."""
    build = verify.minimum_generating_set

    def broken(n, Y, **kw):
        gens = build(n, Y, check=False)
        last = gens.members[-1]
        swapped = TaggedGenerator(ChainMap(n, (Y.members[0],) * n),
                                  last.kind, last.index)
        return GeneratingSet(Y, gens.members[:-1] + (swapped,))

    monkeypatch.setattr(verify, "minimum_generating_set", broken)
    report = run_all(6, [RangeSet(6, (1, 2, 4))])
    assert report["failures"] == 2
    assert ("FAIL regularity-oracle-equivalence  (the ids do not generate "
            "the table for Y=[1, 2, 4])") in report["lines"]
    assert ("FAIL rank-constructed  (constructed set fails to generate "
            "Y=[1, 2, 4])") in report["lines"]


def test_rank_constructed_reports_a_short_set(monkeypatch):
    """A construction one full-image map short fails its own size check;
    the battery reports that, with no traceback."""
    build = generators.full_image_maps
    monkeypatch.setattr(generators, "full_image_maps",
                        lambda Y: build(Y)[1:])
    report = run_all(5, [RangeSet(5, (1, 3, 4))])
    assert ("FAIL rank-constructed  (built 6 generators, formula says 7 "
            "for Y=[1, 3, 4])") in report["lines"]


def test_green_sweep_compares_the_partitions(monkeypatch):
    """A characterized partition with two classes merged is reported."""
    characterized = verify.green_partitions

    def merged(table, relations):
        partitions = characterized(table, relations)
        first, second, *rest = partitions["L"]
        partitions["L"] = [sorted(first + second), *rest]
        return partitions

    monkeypatch.setattr(verify, "green_partitions", merged)
    report = run_all(4, [RangeSet(4, (1, 3))])
    assert report["failures"] == 1
    assert ("FAIL green-oracle-equivalence  (L differs for Y=[1, 3])"
            in report["lines"])


def test_green_sweep_checks_h_triviality(monkeypatch):
    """Both routes merging two H-classes agree, and H-triviality fails."""
    def merged_h(route):
        def partitions(table, relations):
            out = route(table, relations)
            first, second, *rest = out["H"]
            out["H"] = [sorted(first + second), *rest]
            return out
        return partitions

    monkeypatch.setattr(verify, "green_partitions",
                        merged_h(verify.green_partitions))
    monkeypatch.setattr(verify, "green_partitions_by_ideals",
                        merged_h(verify.green_partitions_by_ideals))
    report = run_all(4, [RangeSet(4, (1, 3))])
    assert ("FAIL green-oracle-equivalence  (H not trivial for Y=[1, 3])"
            in report["lines"])


@pytest.mark.parametrize("value", [1, 2])
def test_canonical_certificate_checks_the_product(monkeypatch, value):
    """An extension that does not carry a to its kernel representative,
    inside Y (1) or outside it (2), fails the certificate."""
    monkeypatch.setattr(verify, "build_extension",
                        lambda theta, Y: constant(theta.n, value))
    report = run_all(5, [RangeSet(5, (1, 3, 5))])
    assert ("FAIL canonical-order-isomorphism  (roundtrip fails in "
            "Y=[1, 3, 5])") in report["lines"]


def test_canonical_certificate_is_linear(monkeypatch):
    """One bijection per distinct pair (image of a, image of its kernel
    representative), either way round, per table: 1,138 at n = 6, where
    the 6,282 element pairs built one each."""
    calls = []
    build = verify.canonical_order_isomorphism

    def counted(alpha, beta):
        calls.append(1)
        return build(alpha, beta)

    monkeypatch.setattr(verify, "canonical_order_isomorphism", counted)
    assert run_all(6)["failures"] == 0
    assert len(calls) == 1138


@pytest.mark.parametrize("merged", [(2, 4), (1, 2, 4)])
def test_canonical_certificate_reports_a_wrong_kernel(monkeypatch, merged):
    """A kernel key that merges two kernel classes fails the certificate
    with its detail, not a traceback, whichever pair meets the merge
    first: a key of two values or of three merged into one of two."""
    real = verify.kernel
    monkeypatch.setattr(verify, "kernel", lambda f: ConvexPartition(4, (3, 4))
                        if real(f).boundaries == merged else real(f))
    report = run_all(4, [RangeSet(4, (1, 2, 3))])
    assert report["failures"] == 1
    assert ("FAIL canonical-order-isomorphism  (roundtrip fails in "
            "Y=[1, 2, 3])") in report["lines"]


@pytest.mark.parametrize("name,patch", [
    ("count_extensions", lambda theta, Y: 1),
    ("build_extension", lambda theta, Y: constant(theta.n, Y.members[0])),
    # an extension, but the greatest, not the least
    pytest.param("build_extension",
                 lambda theta, Y: complete_extensions(theta, Y)[-1],
                 id="build_extension-greatest"),
])
def test_completability_checks_witness_and_count(monkeypatch, name, patch):
    monkeypatch.setattr(verify, name, patch)
    report = run_all(4, [RangeSet(4, (1, 3))])
    assert any(line.startswith("FAIL completability-criterion")
               for line in report["lines"])


def test_regularity_sweep_checks_the_right_ideal(monkeypatch):
    """Both routes calling one non-regular element regular agree, but a
    product of it leaves the regular part."""
    wrong = ChainMap(5, (2, 2, 2, 2, 3))
    characterized, search = verify.is_regular, verify.is_regular_by_search

    def also_wrong(table, ids):
        flags = search(table, ids)
        flags[table.id_of(wrong)] = True
        return flags

    monkeypatch.setattr(verify, "is_regular",
                        lambda f, Y: f == wrong or characterized(f, Y))
    monkeypatch.setattr(verify, "is_regular_by_search", also_wrong)
    report = run_all(5, [RangeSet(5, (2, 3, 4))])
    assert report["failures"] == 1
    assert ("FAIL regularity-oracle-equivalence  (right ideal breaks in "
            "Y=[2, 3, 4])") in report["lines"]


def test_regularity_sweep_checks_the_trichotomy(monkeypatch):
    monkeypatch.setattr(verify, "is_semigroup_regular", lambda Y: False)
    report = run_all(4, [RangeSet(4, (1, 4))])
    assert ("FAIL regularity-oracle-equivalence  (trichotomy wrong for "
            "Y=[1, 4])") in report["lines"]


def test_completability_checks_the_criterion(monkeypatch):
    """A criterion that refuses maps with extensions is reported."""
    monkeypatch.setattr(verify, "is_completable", lambda theta, Y: False)
    report = run_all(4, [RangeSet(4, (1, 3))])
    assert report["failures"] == 1
    assert ("FAIL completability-criterion  (PartialMap(1->1) into "
            "Y=[1, 3])") in report["lines"]


def test_completability_reads_extensions_off_the_table(monkeypatch):
    """The sweep groups the table's elements; it never enumerates the
    extensions of a partial map."""
    calls = []
    oracle = completability.complete_extensions

    def counted(theta, Y):
        calls.append(1)
        return oracle(theta, Y)

    monkeypatch.setattr(completability, "complete_extensions", counted)
    assert run_all(5)["failures"] == 0
    assert calls == []


@pytest.mark.parametrize("n", [0, -1])
def test_run_all_rejects_empty_chain(n):
    with pytest.raises(DomainError):
        run_all(n)
