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


# quartiles 1.0, 1.75, 2.125: a spread of 64% of the median
NOISY = [1.0, 1.0, 1.0, 1.5, 1.5, 2.0, 2.0, 2.0, 2.5, 2.5]
STEADY = [2.0] * 9 + [2.4]


@pytest.mark.parametrize("parent, change, metric, unresolved", [
    (NOISY, NOISY, LOWER, True),
    (NOISY, [x + 2 for x in NOISY], LOWER, True),
    (NOISY, [0.9] * 10, LOWER, False),           # every run beats the parent
    (NOISY, [0.9] * 9 + [1.0], LOWER, True),     # one run ties the best
    (NOISY, [2.6] * 10, HIGHER, False),
    (NOISY, [2.6] * 9 + [2.5], HIGHER, True),
    (STEADY, [9.0] * 10, LOWER, False),          # resolved, and worse
    ([0.0] * 10, [0.1] * 10, LOWER, False),
    ([0.0] * 9 + [1.0], [0.0] * 10, HIGHER, False),  # quartiles 0, 0
    ([0.0] * 5 + [1.0] * 5, [0.5] * 10, HIGHER, True),
])
def test_unresolved_spread(parent, change, metric, unresolved):
    assert bench_pairs._unresolved(parent, change, metric) is unresolved
