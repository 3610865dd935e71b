"""The battery's report, pinned line by line."""

from ordrange import RangeSet
from ordrange.verify import run_all


def test_run_all_n4_report():
    assert run_all(4)["lines"] == [
        "ok   cardinality  (15 sets)",
        "ok   regularity-oracle-equivalence",
        "ok   green-oracle-equivalence",
        "ok   completability-criterion",
        "ok   rank-constructed",
        "ok   rank-search  (10 sets within guard)",
        "ok   word-reconstruction",
        "ok   canonical-order-isomorphism",
        "ok   bicompletability",
        "ok   isomorphism-classification",
    ]


def test_run_all_one_set_report():
    assert run_all(5, [RangeSet(5, (2, 4))])["lines"] == [
        "ok   cardinality  (1 sets)",
        "ok   regularity-oracle-equivalence",
        "ok   green-oracle-equivalence",
        "ok   completability-criterion",
        "ok   rank-constructed",
        "ok   rank-search  (1 sets within guard)",
        "ok   word-reconstruction",
        "ok   canonical-order-isomorphism",
        "ok   bicompletability",
    ]
