"""Benchmark of ordrange: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; stdlib only.  Each pass over the
workload's seeded op list runs in a fresh interpreter (``worker.py``),
one at a time, so no table or memo carries over between passes.

With ``--trace 0`` passes repeat, at least MIN_PASSES of them, until
the next one would end after ``--seconds``; after each pass
SETUPS_PER_PASS more fresh interpreters time the set-up alone.

The shared machine this was tuned on changes speed by up to a half in
spells of tens of milliseconds to tens of seconds, and a whole run can
fall into a slow spell.  So every time is scaled to reference speed: a
timer signal makes the worker time a fixed pure-Python loop every 20 ms
of CPU time, inside the ops and between them (``worker.py``), and each
op's time is multiplied by the nominal loop time over the mean loop
time measured during and just around it.  A code change moves the op
times and not the loop, so it shows in full; a slow spell moves both
and cancels.  The raw pass times are in the details line.  ``wall_s``
is the median pass, the op percentiles are taken over each op's median
time across the passes, ``setup_s`` is the median over every set-up
timed, ``peak_rss_mb`` the median over passes, and ``ok_ratio`` pools
all ops.
With ``--trace 1`` the run makes a traced pass between two untraced ones
and reports the per-layer metrics of the traced pass, with the tracing
overhead as its ``wall_s`` minus the untraced passes' median.

Every timing charges a failed, refused or timed-out op the per-op limit.
The last line of stdout is the result: ``correct`` (every op that
completed passed its output check, and repeated outputs were
byte-identical), ``attempted``, ``failed`` and ``metrics``.  The line
before it holds the details: commit, Python, cores, seed, limit, sample
counts, failure kinds and the sha256 of the workload's outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from tracer import METRICS as LAYER_METRICS
from workloads import LIMIT_S, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

END_TO_END = [  # (name, unit, better)
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("ok_ratio", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]
MIN_PASSES = 2  # a verify_battery pass takes 10-17 s: three would not fit in 25 s
SETUPS_PER_PASS = 3  # extra fresh interpreters that time the set-up alone
RUN_CAP_S = 170.0  # a run never outlives this, whatever --seconds says


def _commit() -> str | None:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ordrange").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _pass(args, traced: bool, deadline: float, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    if setup_only:
        cmd.append("--setup-only")
    if traced:
        spans = BENCH / "out" / f"spans-{args.workload}-seed{args.seed}.bin"
        cmd += ["--trace", "--spans", str(spans)]
    path = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.perf_counter()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def _charged(rec: dict, scaled: bool = True) -> list[float]:
    """Per-op latencies at reference speed, failed ops charged the limit."""
    limit = rec["limit_s"]
    return [(seconds * factor if scaled else seconds) if status == "ok" else limit
            for status, seconds, _, factor in rec["ops"]]


def _rank(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _consistent(passes: list[dict]) -> bool:
    """Ops that completed in several passes printed the same bytes."""
    for rows in zip(*(rec["ops"] for rec in passes)):
        seen = {digest for status, _, digest, _ in rows if status == "ok"}
        if len(seen) > 1:
            return False
    return True


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="ordrange benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny op lists, for the benchmark's own test")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "ordrange" / "__init__.py").is_file():
        print(f"error: no ordrange sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    deadline = start + RUN_CAP_S
    passes: list[dict] = []
    setups: list[dict] = []  # set-up-only workers
    try:
        if args.trace:
            passes = [_pass(args, traced, deadline) for traced in (False, True, False)]
        else:
            while True:
                passes.append(_pass(args, False, deadline))
                setups += [_pass(args, False, deadline, setup_only=True)
                           for _ in range(SETUPS_PER_PASS)]
                elapsed = time.perf_counter() - start
                mean = elapsed / len(passes)
                if len(passes) >= MIN_PASSES and (
                        elapsed + mean > args.seconds or elapsed + mean > RUN_CAP_S):
                    break
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    charged = [_charged(rec) for rec in passes]
    statuses = [status for rec in passes for status, _, _, _ in rec["ops"]]
    attempted = len(statuses)
    failed = sum(status != "ok" for status in statuses)
    consistent = _consistent(passes)
    correct = "wrong" not in statuses and consistent

    untraced = [lat for lat, rec in zip(charged, passes) if not rec["traced"]]
    walls = [sum(lat) for lat in untraced]
    # each op's median time over the passes; they all ran the same op list
    mid = [statistics.median(times) for times in zip(*untraced)]
    setups = [rec["setup_s"] * rec["setup_factor"] for rec in passes + setups]
    if args.trace:
        layers = dict(passes[1]["layers"])
        layers["trace.overhead_s"] = sum(charged[1]) - statistics.median(walls)
        values = {name: layers[name] for name, _, _ in LAYER_METRICS}
        units = {name: unit for name, unit, _ in LAYER_METRICS}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "op_p50_ms": 1000 * _rank(mid, 0.5),
            "op_p90_ms": 1000 * _rank(mid, 0.9),
            "ok_ratio": (attempted - failed) / attempted,
            "peak_rss_mb": statistics.median(rec["maxrss_kb"] for rec in passes) / 1024,
        }
        units = {name: unit for name, unit, _ in END_TO_END}

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "commit": _commit(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "per_op_limit_s": LIMIT_S[args.workload],
        "passes": len(passes),
        "latency_samples_per_pass": len(passes[0]["ops"]),
        "samples_beyond_p90_per_pass": len(passes[0]["ops"]) - math.ceil(0.9 * len(passes[0]["ops"])),
        "pass_wall_s": walls,
        "pass_wall_raw_s": [sum(_charged(rec, scaled=False)) for rec in passes],
        "setup_samples": len(setups),
        "speed_factors": [statistics.median(f for *_, f in rec["ops"]) for rec in passes],
        "probe_samples": [rec["probe_samples"] for rec in passes],
        "fail_ratio": failed / attempted,
        "statuses": dict(Counter(statuses)),
        "stdout_sha256": sorted({rec["stdout_sha256"] for rec in passes}),
        "outputs_consistent": consistent,
        "errors": [e for rec in passes for e in rec["errors"]][:10],
        "run_s": time.perf_counter() - start,
    }
    if args.trace:
        details["traced_wall_s"] = sum(charged[1])
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
