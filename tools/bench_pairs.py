"""Paired benchmark runs: a parent commit against the working tree.

    python3 tools/bench_pairs.py --workload verify_battery cli_queries \\
        --pairs 10 --seed 1 --seconds 25 --parent HEAD --tag 8

Runs ``bench/run.py`` for each workload ``--pairs`` times on each side:
the parent's committed files, extracted with ``git archive`` into a
temporary directory, and the working tree.  Pair i uses seed
``--seed + i`` on both sides and runs every workload in turn; the side
that runs first alternates from pair to pair, so a slow spell of the
machine does not fall on one side only.  Writes ``BENCH_<tag>.json`` at
the repository root with every result line and, per workload, each
side's median and quartiles per end-to-end metric of ``BENCHMARK.json``
and the number of pairs the change won (strictly better than the parent
in the same pair), the change median's relative delta against the
parent median (``delta``, positive when the value grew) and whether that
delta is worse than the metric's ``bound`` (``worse``), whether the
parent's own interquartile spread, relative to its median, is wider than
the bound while some change run does not read better than every parent
run (``unresolved``: the runs cannot tell a move within the bound from
noise), per workload whether both sides printed the same
``stdout_sha256`` in every pair (``same_output``), and the net change of
lines under ``src/`` against the parent (``git diff --numstat``).  The
last stdout line repeats the medians, wins, deltas, ``worse`` and
``unresolved`` flags, ``same_output`` and ``src_loc``; ``worse`` and
``unresolved`` at its top list every ``workload.metric`` so flagged
(empty when none is).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, check=True)
    details, result = proc.stdout.strip().splitlines()[-2:]
    return {**json.loads(details), **json.loads(result)}


def _extract(rev: str, into: Path) -> str:
    commit = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return commit


def _src_loc(commit: str) -> dict:
    """Lines added and deleted under src/ from the commit to the tree."""
    numstat = subprocess.run(["git", "diff", "--numstat", commit, "--", "src"],
                             cwd=ROOT, check=True, capture_output=True,
                             text=True).stdout
    added = deleted = 0
    for line in numstat.splitlines():
        plus, minus, _ = line.split("\t", 2)
        added += int(plus)
        deleted += int(minus)
    return {"added": added, "deleted": deleted, "net": added - deleted}


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def _delta(parent: float, change: float, metric: dict) -> dict:
    """Relative change of the median and whether it is worse than the bound.

    A zero parent median has no relative change: ``delta`` is None unless
    the change median is zero too, and any move the wrong way is worse.
    """
    sign = 1 if metric["better"] == "lower" else -1
    if parent:
        delta = (change - parent) / parent
        worse = sign * delta > metric["bound"]
    else:
        delta = None if change else 0.0
        worse = sign * change > 0
    return {"delta": delta, "bound": metric["bound"], "worse": worse}


def _unresolved(parent: list[float], change: list[float], metric: dict) -> bool:
    """The parent's interquartile spread is wider than the bound, relative
    to its median, and not every change run beats every parent run.

    With a zero parent median any spread at all is too wide.
    """
    q1, median, q3 = statistics.quantiles(parent, n=4)
    if metric["better"] == "lower":
        clear = max(change) < min(parent)
    else:
        clear = min(change) > max(parent)
    wide = q3 - q1 > metric["bound"] * abs(median) if median else q3 > q1
    return wide and not clear


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, nargs="+")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--parent", default="HEAD", help="git revision to compare with")
    p.add_argument("--tag", required=True, help="writes BENCH_<tag>.json")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        parent = Path(tmp)
        commit = _extract(args.parent, parent)
        for i in range(args.pairs):
            seed = args.seed + i
            sides = [("parent", parent), ("change", ROOT)]
            if i % 2:
                sides.reverse()
            for workload in args.workload:
                for order, (side, checkout) in enumerate(sides):
                    run = _run(checkout, workload, seed, args.seconds)
                    runs.append({"workload": workload, "pair": i, "seed": seed,
                                 "side": side, "order": order, "run": run})
                    value = run["metrics"]["wall_s"]["value"]
                    print(f"pair {i} seed {seed} {workload} {side}: "
                          f"wall_s {value:.3f}", file=sys.stderr)

    summary: dict = {workload: {} for workload in args.workload}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        value = {(r["workload"], r["pair"], r["side"]):
                 r["run"]["metrics"][name]["value"] for r in runs}
        for workload, table in summary.items():
            per_side = {side: [value[workload, i, side]
                               for i in range(args.pairs)]
                        for side in ("parent", "change")}
            wins = sum((c < q) if lower else (c > q)
                       for q, c in zip(per_side["parent"], per_side["change"]))
            spread = {side: _spread(v) for side, v in per_side.items()}
            table[name] = {"better": metric["better"], "wins": wins, **spread,
                           **_delta(spread["parent"]["median"],
                                    spread["change"]["median"], metric),
                           "unresolved": _unresolved(per_side["parent"],
                                                     per_side["change"], metric)}

    def flagged(flag: str) -> list[str]:
        return [f"{workload}.{name}" for workload, table in summary.items()
                for name, s in table.items() if s[flag]]

    worse, unresolved = flagged("worse"), flagged("unresolved")
    digest = {(r["workload"], r["pair"], r["side"]):
              r["run"]["details"]["stdout_sha256"] for r in runs}
    same_output = {workload: all(digest[workload, i, "parent"]
                                 == digest[workload, i, "change"]
                                 for i in range(args.pairs))
                   for workload in args.workload}
    src_loc = _src_loc(commit)
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps({
        "workloads": args.workload, "parent": commit, "pairs": args.pairs,
        "seconds": args.seconds, "src_loc": src_loc,
        "same_output": same_output, "worse": worse,
        "unresolved": unresolved, "summary": summary,
        "runs": runs,
    }, indent=1) + "\n")
    print(json.dumps({"src_loc": src_loc, "same_output": same_output,
                      "worse": worse, "unresolved": unresolved,
                      **{workload: {name: {"wins": s["wins"],
                                           "parent": s["parent"]["median"],
                                           "change": s["change"]["median"],
                                           "delta": s["delta"],
                                           "worse": s["worse"],
                                           "unresolved": s["unresolved"]}
                                    for name, s in table.items()}
                         for workload, table in summary.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
