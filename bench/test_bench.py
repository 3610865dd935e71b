"""The benchmark's own test: every workload at tiny size, outputs checked.

    python3 -m pytest bench/test_bench.py

No timing is asserted.
"""

import json
import math
import shutil
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import oracle
import workloads
from run import END_TO_END
from tracer import METRICS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_checks_every_output(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    *_, details, last = proc.stdout.splitlines()
    result = json.loads(last)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"], json.loads(details)["details"]["errors"]
    assert result["attempted"] >= 1
    names = [m[0] for m in (METRICS if trace else END_TO_END)]
    assert list(result["metrics"]) == names
    for name, unit, _ in (METRICS if trace else END_TO_END):
        assert result["metrics"][name]["unit"] == unit
    # the known refusals stay in the draws and count as failures
    if workload in ("cli_queries", "large_tables"):
        assert result["failed"] > 0
    else:
        assert result["failed"] == 0


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == METRICS


def test_same_seed_same_ops():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 7) == workloads.build(name, 7)
    ops = workloads.build("cli_queries", 7)
    pairs = [(op["n"], tuple(op["Y"])) for op in ops]
    assert len(pairs) == len(set(pairs))  # no (n, Y) repeats within a pass


def test_extension_count_matches_filtering():
    for n in range(1, 5):
        for r in range(1, n + 1):
            for Y in combinations(range(1, n + 1), r):
                maps = oracle.elements(n, Y)
                for k in range(1, n + 1):
                    for dom in combinations(range(1, n + 1), k):
                        for img in set(tuple(f[d - 1] for d in dom) for f in maps):
                            want = sum(all(f[d - 1] == v for d, v in zip(dom, img))
                                       for f in maps)
                            assert oracle.extension_count(n, Y, dom, img) == want


def test_rank_formula_worked_example():
    assert oracle.rank(7, (1, 3, 4, 5)) == {22}
    assert oracle.count(7, 4) == math.comb(10, 3)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = _run("--workload", "rewrite", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_speed_factor_uses_the_samples_around_the_op():
    import worker

    probe = worker.SpeedProbe()
    nominal = worker.REFERENCE_S
    # a slow spell (loop at twice nominal) around t = 1, nominal elsewhere
    probe.samples = [(t / 100, nominal * (2 if 0.9 <= t / 100 <= 1.1 else 1))
                     for t in range(300)]
    assert probe.factor(1.0, 1.02) == pytest.approx(0.5)
    assert probe.factor(2.0, 2.02) == pytest.approx(1.0)
    # too few samples within 50 ms: the 250 ms window is used
    probe.samples = [(0.0, nominal), (0.2, nominal), (0.3, 2 * nominal), (0.5, 2 * nominal)]
    assert probe.factor(0.1, 0.1) == pytest.approx(0.75)
