"""Seeded op lists for the four workloads.

An op list depends only on the workload, the seed and the size; the
program under test receives nothing but the generated inputs.  Each
workload draws its range sets inside fixed (n, r) classes, so the seed
changes which sets are asked about but not how much work a pass holds,
and the spread between seeds stays small.  Nothing here imports
``ordrange``.

Every op is a JSON-able dict with a ``kind`` the worker dispatches on:
``cli`` (an argv for ``cli.main``), ``rewrite`` (one element to express
over a generating set) or ``verify`` (one ``verify.run_all`` call, over
all range sets of n or over the one set Y).
"""

from __future__ import annotations

import random
from itertools import combinations

from oracle import count, elements, mirror

WORKLOADS = ("verify_battery", "cli_queries", "large_tables", "rewrite")
RELATIONS = ("L", "R", "H", "D", "J")

# Per-op time limit in seconds, per workload: at least three times the
# slowest op that completes, so only a hang is cut off.  A failed,
# refused or timed-out op is charged this.
LIMIT_S = {
    "verify_battery": 20.0,
    "cli_queries": 1.5,
    "large_tables": 8.0,
    "rewrite": 1.0,
}

CLI_MAX_N = 10
# Up to (10, 4), N = 286; the next class, (7, 5) with N = 330, would put
# p90 on the lower edge of a plateau of four ~35 ms ops, where one op
# of a range set that runs fast moves it by a fifth.  Without it p90
# falls inside the plateau of the (7, 4) Green checks.
CLI_MAX_ELEMENTS = 300

# iso --search ends within 0.5 s for every Y and every kind of Z when
# r = 1, or r = 2 with n <= 9; for Z = Y it also does on these classes.
# Elsewhere whether it ends depends on Y, and the number of timeouts per
# pass would move with the seed.
ISO_SELF_BOUNDED = {(5, 3), (6, 3)}
# The mirror class whose search runs without bound for every Y: each pass
# holds exactly one such op, which times out.
ISO_MIRROR_HANG = (6, 3)

# Range-set classes holding one op each, so every run carries the known
# refusals: rank --check on the whole chain exits 1, gens refuses r = n.
WHOLE_CHAIN_OPS = {2: "rank", 3: "gens", 4: "green:D", 5: "regular"}
# The largest classes get one green relation each, fixed per class.
BIG_CLASS_GREEN = {(6, 5): "J", (9, 4): "H", (10, 4): "D"}

# (command, n, r), in this order.  Three commands per class, so the
# per-op costs form plateaus and the median and p90 fall inside one; the
# last op is above the 5000-element closure guard.
LARGE_TABLES = [(cmd, n, r) for n, r in ((8, 7), (10, 5), (11, 5), (12, 5))
                for cmd in ("gens", "rank", "constructed")] + [("gens", 12, 6)]
# (n, r, sets).  Word lengths of a class move by 5-10% with Y, so a
# pass spreads its work over a dozen sets rather than a few large ones.
REWRITE_SETS = [(12, 4, 3), (8, 5, 6), (9, 5, 2), (10, 5, 1)]
# run_all(4) whole, since only n <= 4 sweeps the isomorphism check;
# n = 5, 6 one range set per op, which runs the same checks in the same
# order as run_all(n) and gives the op percentiles enough samples.
VERIFY_WHOLE, VERIFY_PER_SET = 4, (5, 6)

TINY = {  # classes kept when the benchmark's own test runs a tiny pass
    "cli_max_n": 4,
    "large_tables": [("gens", 5, 3), ("rank", 4, 3), ("constructed", 5, 4),
                     ("gens", 9, 7)],
    "rewrite": [(5, 3, 1), (6, 4, 2)],
    "verify": (2, (3,)),
}


def _argv(cmd: str, n: int, Y) -> list[str]:
    return [cmd, "-n", str(n), "-Y", ",".join(map(str, Y))]


def _units(n: int, r: int) -> list[str]:
    """Subcommands asked of one (n, r) class, most wanted first."""
    if r == n:
        return [WHOLE_CHAIN_OPS[n]]
    if (n, r) in BIG_CLASS_GREEN:
        return ["enumerate", "rank", "gens", "green:" + BIG_CLASS_GREEN[n, r],
                "card", "regular", "complete"]
    units = ["card", "enumerate", "regular", "complete", "rank"]
    if r > 1:  # gens on r = 1 is refused; one whole-chain op carries that
        units.append("gens")
    if r == 1 or (r == 2 and n <= 9):
        units += ["iso:other", "iso:self", "iso:mirror"]
    elif (n, r) in ISO_SELF_BOUNDED:
        units.append("iso:self")
    if (n, r) == ISO_MIRROR_HANG:
        units.append("iso:mirror")
    return units + ["green:" + rel for rel in RELATIONS]


def _partial_map(rng: random.Random, n: int, Y) -> tuple[list[int], list[int]]:
    k = rng.randint(1, n)
    domain = sorted(rng.sample(range(1, n + 1), k))
    images = sorted(rng.choice(Y) for _ in range(k))
    return domain, images


def cli_queries(seed: int, tiny: bool = False) -> list[dict]:
    rng = random.Random(seed)
    max_n = TINY["cli_max_n"] if tiny else CLI_MAX_N
    ops = []
    for n in range(2, max_n + 1):
        for r in range(1, n + 1):
            if count(n, r) > CLI_MAX_ELEMENTS:
                continue
            sets = list(combinations(range(1, n + 1), r))
            units = _units(n, r)[:len(sets)]
            # each op of a class gets its own range set: no (n, Y) repeats
            for unit, Y in zip(units, rng.sample(sets, len(units))):
                cmd, _, arg = unit.partition(":")
                op = {"kind": "cli", "cmd": cmd, "n": n, "Y": list(Y)}
                argv = _argv(cmd, n, Y)
                if cmd == "regular":
                    argv.append("--elements")
                elif cmd == "rank":
                    argv.append("--check")
                    op["check"] = True
                elif cmd == "green":
                    argv += ["--relation", arg, "--check"]
                    op["relation"] = arg
                elif cmd == "complete":
                    domain, images = _partial_map(rng, n, Y)
                    argv += ["--theta",
                             '{"domain":%s,"images":%s}' % (domain, images)]
                    op.update(domain=domain, images=images)
                elif cmd == "iso":
                    if arg == "self":
                        Z = Y
                    elif arg == "mirror":
                        Z = mirror(n, Y)
                    else:
                        Z = rng.choice([s for s in sets
                                        if s not in (Y, mirror(n, Y))] or [Y])
                    argv += ["-Z", ",".join(map(str, Z)), "--search"]
                    op.update(Z=list(Z), search=True)
                op["argv"] = argv
                ops.append(op)
    rng.shuffle(ops)
    return ops


def large_tables(seed: int, tiny: bool = False) -> list[dict]:
    rng = random.Random(seed)
    ops = []
    for cmd, n, r in (TINY["large_tables"] if tiny else LARGE_TABLES):
        Y = sorted(rng.sample(range(1, n + 1), r))
        if cmd == "constructed":
            argv = _argv("rank", n, Y) + ["--method", "constructed"]
            op = {"cmd": "rank"}
        elif cmd == "rank":
            argv = _argv("rank", n, Y) + ["--check"]
            op = {"cmd": "rank", "check": True}
        else:
            argv = _argv(cmd, n, Y)
            op = {"cmd": cmd}
        op.update(kind="cli", n=n, Y=Y, argv=argv)
        ops.append(op)
    return ops  # fixed order: the peak memory depends on what ran before


def rewrite(seed: int, tiny: bool = False) -> list[dict]:
    """Every element of image size below r, for a few seeded Y per class.

    Only classes with 1 < r < n qualify: the generating set is built by
    the case analysis that needs a proper range set.  Word lengths depend
    on Y, so several sets per class keep the work per pass steady.
    """
    rng = random.Random(seed)
    ops = []
    for n, r, k in (TINY["rewrite"] if tiny else REWRITE_SETS):
        for Y in rng.sample(list(combinations(range(1, n + 1), r)), k):
            ops += [{"kind": "rewrite", "n": n, "Y": list(Y), "f": list(f)}
                    for f in elements(n, Y) if len(set(f)) < r]
    return ops


def verify_battery(seed: int, tiny: bool = False) -> list[dict]:
    whole, per_set = TINY["verify"] if tiny else (VERIFY_WHOLE, VERIFY_PER_SET)
    ops = [{"kind": "verify", "n": whole, "Y": None}]
    for n in per_set:
        ops += [{"kind": "verify", "n": n, "Y": list(Y)}
                for r in range(1, n + 1) for Y in combinations(range(1, n + 1), r)]
    random.Random(seed).shuffle(ops)
    return ops


def build(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    return globals()[workload](seed, tiny)
