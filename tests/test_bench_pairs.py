"""The per-metric verdict that ``tools/bench_pairs.py`` writes."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

LOWER = {"better": "lower", "bound": 0.25}
HIGHER = {"better": "higher", "bound": 0.01}


@pytest.mark.parametrize("parent, change, metric, delta, worse", [
    (2.0, 0.5, LOWER, -0.75, False),
    (2.0, 2.4, LOWER, 0.2, False),
    (2.0, 2.6, LOWER, 0.3, True),
    (1.0, 0.98, HIGHER, -0.02, True),
    (1.0, 0.995, HIGHER, -0.005, False),
    (0.5, 1.0, HIGHER, 1.0, False),
    (0.0, 0.0, LOWER, 0.0, False),
    (0.0, 0.1, LOWER, None, True),
    (0.0, 0.1, HIGHER, None, False),
])
def test_delta_against_bound(parent, change, metric, delta, worse):
    got = bench_pairs._delta(parent, change, metric)
    if delta is None:
        assert got["delta"] is None
    else:
        assert got["delta"] == pytest.approx(delta)
    assert got["worse"] is worse
    assert got["bound"] == metric["bound"]
