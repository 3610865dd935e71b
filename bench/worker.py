"""One pass over a workload's op list, in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N [--trace] [--tiny] [--setup-only]

Run from the repository root with ``src`` on PYTHONPATH (``run.py`` does
this).  The op list is generated first and is not timed.  Set-up time
covers importing ``ordrange``, building the CLI parser and the
workload's own set-up.  Each op then runs under the per-op time limit
(SIGALRM, no threads) and its output is checked.  The pass ends by
printing one JSON record on stdout.

Every PROBE_EVERY_S of CPU time a timer signal makes the worker time a
fixed pure-Python reference loop, inside the ops as well as between
them; that time is taken off the op it interrupted.  Each op's speed
factor is the nominal loop time REFERENCE_S over the mean of the
samples taken while it ran and just before and after it; ``run.py``
multiplies the op's time by it.  Set-up time gets a factor the same way,
and traced self times the mean factor of the pass.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import oracle
import workloads


# The reference loop takes about this long on the machine the benchmark
# was tuned on; the factors scale every time to that machine's speed.
REFERENCE_S = 0.0004
PROBE_EVERY_S = 0.02
PROBE_MARGIN_S = (0.05, 0.25)  # the narrowest holding PROBE_MIN_SAMPLES
PROBE_MIN_SAMPLES = 4
PROBE_SAMPLES_AT_ENDS = 20  # before set-up and after the last op


def _reference_loop(reps: int = 300) -> int:
    """Fixed interpreter work like the library's: small tuples, indexing, a dict."""
    f = (1, 2, 3, 4, 5, 6, 7, 8)
    g = f[::-1]
    seen: dict = {}
    for i in range(reps):
        h = tuple(g[x - 1] for x in f)
        key = (h, i & 31)
        seen[key] = seen.get(key, 0) + 1
        f, g = g, h
    return len(seen)


class SpeedProbe:
    """Samples the machine's speed with the reference loop, from SIGVTALRM.

    The shared machine's speed swings by up to a half within tens of
    milliseconds, so a single sample says little and only means over a
    window are used.  The loop runs with the collector off: its garbage
    is freed by reference counting, and a full collection over the
    library's tables would otherwise land in it.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self.spent = 0.0  # time spent sampling, taken off the op times

    def sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            _reference_loop()
            self.samples.append((start, time.perf_counter() - start))
        finally:
            if enabled:
                gc.enable()
            self.spent += time.perf_counter() - start

    def start(self) -> None:
        signal.signal(signal.SIGVTALRM, self.sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)

    def factor(self, start: float, end: float) -> float:
        """Nominal over measured loop time, during and around [start, end].

        The speed swings in spells of tens of milliseconds, so the
        samples nearest the interval track it best.
        """
        for margin in PROBE_MARGIN_S:
            lo = bisect.bisect_left(self.samples, start - margin, key=lambda s: s[0])
            hi = bisect.bisect_right(self.samples, end + margin, key=lambda s: s[0])
            if hi - lo >= PROBE_MIN_SAMPLES:
                break
        window = self.samples[lo:hi] or self.samples
        return REFERENCE_S / statistics.mean(seconds for _, seconds in window)


class OpTimeout(BaseException):
    """Raised by the alarm when an op overruns the per-op limit.

    A BaseException, so no ``except Exception`` in the library swallows it.
    """


def _alarm(signum, frame):
    raise OpTimeout()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Pass:
    def __init__(self, workload: str, ops: list[dict], limit: float, probe: SpeedProbe):
        self.workload = workload
        self.probe = probe
        self.ops = ops
        self.limit = limit
        self.records: list[list] = []  # [status, seconds, output digest, factor]
        self.spans: list[tuple[float, float]] = []  # each op's start and end
        self.errors: list[str] = []
        self.stdout_bytes = 0
        self.stdout_hash = hashlib.sha256()

    # -- set-up (timed as setup_s) -------------------------------------------
    def setup(self) -> None:
        import ordrange
        from ordrange import cli, verify

        self.lib = ordrange
        self.cli = cli
        self.verify = verify
        cli.build_parser()
        if self.workload == "rewrite":
            self.gens = {}
            for op in self.ops:
                n, Y = op["n"], tuple(op["Y"])
                if (n, Y) not in self.gens:
                    self.gens[n, Y] = ordrange.minimum_generating_set(
                        n, ordrange.RangeSet(n, Y), check=False)
            self.maps = [ordrange.ChainMap(op["n"], tuple(op["f"])) for op in self.ops]
            self.gen_images = {key: {g.element.images for g in gs.members}
                               for key, gs in self.gens.items()}

    # -- one op ------------------------------------------------------------------
    def run(self, index: int, op: dict) -> None:
        kind = op["kind"]
        buf = io.StringIO()
        status, result = "ok", None
        signal.setitimer(signal.ITIMER_REAL, self.limit)
        spent = self.probe.spent
        start = time.perf_counter()
        try:
            if kind == "cli":
                with redirect_stdout(buf), redirect_stderr(io.StringIO()):
                    code = self.cli.main(op["argv"])
                self.stdout_bytes += len(buf.getvalue())
                if code:
                    status = f"exit{code}"
            elif kind == "rewrite":
                key = (op["n"], tuple(op["Y"]))
                result = self.lib.express_in_generators(self.maps[index], self.gens[key])
            else:
                n, Y = op["n"], op["Y"]
                result = self.verify.run_all(
                    n, None if Y is None else [self.lib.RangeSet(n, tuple(Y))])
        except OpTimeout:
            status = "timeout"
        except Exception as exc:  # a traceback is a failure, not a crash
            status = "exception"
            self.errors.append(f"op {index}: {type(exc).__name__}: {exc}")
        finally:
            end = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = end - start - (self.probe.spent - spent)
        self.spans.append((start, end))
        text = self._text(kind, buf.getvalue(), result) if status == "ok" else ""
        if status == "ok":
            error = self._check(op, text, result)
            if error:
                status = "wrong"
                self.errors.append(f"op {index} {op.get('argv', op)}: {error}")
        self.stdout_hash.update(f"{index}:{status}:".encode() + text.encode() + b"\n")
        self.records.append([status, elapsed, _digest(text)])

    @staticmethod
    def _text(kind: str, stdout: str, result) -> str:
        if kind == "cli":
            return stdout
        if kind == "rewrite":
            return json.dumps([list(w.images) for w in result])
        return "\n".join(result["lines"])

    def _check(self, op: dict, text: str, result) -> str | None:
        kind = op["kind"]
        if kind == "cli":
            try:
                out = json.loads(text)
            except json.JSONDecodeError:
                return "stdout is not one JSON object"
            return oracle.check_cli(op, out)
        if kind == "rewrite":
            key = (op["n"], tuple(op["Y"]))
            return oracle.check_word(tuple(op["f"]), [w.images for w in result],
                                     self.gen_images[key])
        if result["failures"] or not all(line.startswith("ok") for line in result["lines"]):
            return "verify reported a failed cross-check"
        return None


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--spans", default=None, help="write the spans to this file")
    p.add_argument("--setup-only", action="store_true",
                   help="time the set-up alone and print it")
    args = p.parse_args(argv)

    ops = workloads.build(args.workload, args.seed, args.tiny)
    limit = workloads.LIMIT_S[args.workload]
    probe = SpeedProbe()
    run = Pass(args.workload, ops, limit, probe)

    for _ in range(PROBE_SAMPLES_AT_ENDS):
        probe.sample()
    probe.start()
    spent = probe.spent
    t0 = time.perf_counter()
    run.setup()
    t1 = time.perf_counter()
    setup_s = t1 - t0 - (probe.spent - spent)
    if args.setup_only:
        probe.stop()
        for _ in range(PROBE_SAMPLES_AT_ENDS):
            probe.sample()
        json.dump({"setup_s": setup_s, "setup_factor": probe.factor(t0, t1)}, sys.stdout)
        sys.stdout.write("\n")
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer(OpTimeout)
        tracer.install(run.lib)

    signal.signal(signal.SIGALRM, _alarm)
    for index, op in enumerate(ops):
        run.run(index, op)
    probe.stop()
    for _ in range(PROBE_SAMPLES_AT_ENDS):
        probe.sample()
    for record, (start, end) in zip(run.records, run.spans):
        record.append(probe.factor(start, end))

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": args.trace,
        "limit_s": limit,
        "setup_s": setup_s,
        "setup_factor": probe.factor(t0, t1),
        "probe_samples": len(probe.samples),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "stdout_sha256": run.stdout_hash.hexdigest(),
        "ops": run.records,
        "errors": run.errors[:20],
    }
    if tracer is not None:
        layers = tracer.metrics()
        # self times at reference speed, with the pass's mean factor
        factor = REFERENCE_S / statistics.mean(seconds for _, seconds in probe.samples)
        for name in layers:
            if name.endswith(".self_s"):
                layers[name] *= factor
        layers["cli.stdout_bytes"] = run.stdout_bytes
        record["layers"] = layers
        if args.spans:
            os.makedirs(os.path.dirname(args.spans) or ".", exist_ok=True)
            tracer.dump(args.spans)
    json.dump(record, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
