"""The shape of the exported API.

A range set carries the chain it lives on, and a table its range set, so
no exported callable takes a chain size beside either: a size that
disagrees with the range set has nowhere to come in.
"""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ordrange
from ordrange import DomainError, PartialMap, RangeSet, verify

CHAIN_SIZES = {"n", "n1", "n2"}
# (n, Y) stays where the two really meet: benchmark code calls
# minimum_generating_set(n, Y, check=False) positionally, and run_all
# refuses requested sets on another chain before any work
KEEPS_CHAIN_SIZE = {"minimum_generating_set", "run_all"}


def _exported():
    out = {name: obj for name, obj in vars(ordrange).items()
           if callable(obj) and not name.startswith("_")
           and not (isinstance(obj, type) and issubclass(obj, BaseException))}
    out["run_all"] = verify.run_all
    return out


def _chain_size_beside_range_set(fn) -> bool:
    params = inspect.signature(fn).parameters.values()
    annotations = [str(p.annotation) for p in params]
    return (any(p.name in CHAIN_SIZES for p in params)
            and any("RangeSet" in a or "SemigroupTable" in a
                    for a in annotations))


def test_no_chain_size_beside_a_range_set_or_table():
    exported = _exported()
    assert {"enumerate_semigroup", "SemigroupTable", "GeneratingSet",
            "green_classes", "green_key", "isomorphism_condition"} <= exported.keys()
    flagged = {name for name, fn in exported.items()
               if _chain_size_beside_range_set(fn)}
    assert flagged == KEEPS_CHAIN_SIZE


def test_tables_keep_their_range_set():
    Y = RangeSet(4, (1, 3))
    assert ordrange.enumerate_semigroup(Y).range_set is Y
    assert list(inspect.signature(ordrange.green_classes).parameters) == [
        "relation", "table"]
    assert list(inspect.signature(
        ordrange.induced_range_bijection).parameters) == ["phi", "S", "T"]


def test_where_a_chain_size_meets_a_range_set_another_chain_is_refused(
        table_builds):
    """Before any table is built, run_all included: it refuses the second
    requested set before it builds the first one's table."""
    Y = RangeSet(5, (1, 3))
    for call in (lambda: ordrange.minimum_generating_set(4, Y),
                 lambda: ordrange.is_completable(PartialMap(4, (1,), (1,)), Y),
                 lambda: verify.run_all(4, [RangeSet(4, (1, 3)), Y])):
        with pytest.raises(DomainError,
                           match=r"^range set lives on chain 5, not 4$"):
            call()
    assert table_builds == []


def test_start_up_imports_neither_dataclasses_nor_inspect():
    """Every CLI call and benchmark pass pays the package's imports; the
    value types are plain classes, so neither module nor its own import
    chain is loaded.  Modules the interpreter loaded before the package
    do not count."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys; before = set(sys.modules); "
            "import ordrange, ordrange.cli, ordrange.verify; "
            "print(sorted(({'dataclasses', 'inspect'} - before) & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.stdout == "[]\n"
