"""Per-layer tracing by wrapping the library's public functions.

The modules import each other with ``from .x import y``, so a function
is rebound in every module that imports it; each binding is replaced,
not only the defining one.  A spanned call records (name, parent span,
start, end) in flat arrays kept in memory and written out once at the
end.  ``SemigroupTable.product`` and ``ChainMap`` construction run
millions of times and are counted without spans.

A layer's self time is the time its spans cover minus the time covered
by their child spans.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from time import perf_counter

LAYERS = ("chain", "enumeration", "regularity", "green", "completability",
          "generators", "words", "isomorphism", "verify", "cli")

SPANNED = {  # module -> public functions traced with a span per call
    "chain": ("compose",),
    "enumeration": ("enumerate_semigroup",),
    "regularity": ("is_regular", "is_regular_by_search"),
    "green": ("green_classes", "green_classes_by_ideals"),
    "completability": ("complete_extensions",),
    "generators": ("minimum_generating_set", "generates", "rank_by_search"),
    "words": ("express_in_generators",),
    "isomorphism": ("find_isomorphism",),
    "verify": ("run_all",),
    "cli": ("main",),
}

# (name, unit, better): the per-layer metrics a traced run reports
METRICS = [
    ("chain.compose.calls", "count", "lower"),
    ("chain.compose.self_s", "s", "lower"),
    ("chain.ChainMap.new.calls", "count", "lower"),
    ("enumeration.enumerate_semigroup.calls", "count", "lower"),
    ("enumeration.enumerate_semigroup.self_s", "s", "lower"),
    ("enumeration.table_elements", "count", "lower"),
    ("enumeration.SemigroupTable.product.calls", "count", "lower"),
    ("enumeration.SemigroupTable.closure.calls", "count", "lower"),
    ("enumeration.SemigroupTable.closure.self_s", "s", "lower"),
    ("enumeration.closure.useful_ratio", "ratio", "higher"),
    ("regularity.is_regular.calls", "count", "lower"),
    ("regularity.is_regular.self_s", "s", "lower"),
    ("regularity.is_regular_by_search.calls", "count", "lower"),
    ("regularity.is_regular_by_search.self_s", "s", "lower"),
    ("green.green_classes.self_s", "s", "lower"),
    ("green.green_classes_by_ideals.calls", "count", "lower"),
    ("green.green_classes_by_ideals.self_s", "s", "lower"),
    ("completability.complete_extensions.calls", "count", "lower"),
    ("completability.complete_extensions.self_s", "s", "lower"),
    ("completability.maps_scanned", "count", "lower"),
    ("completability.useful_ratio", "ratio", "higher"),
    ("generators.minimum_generating_set.self_s", "s", "lower"),
    ("generators.generates.self_s", "s", "lower"),
    ("generators.rank_by_search.self_s", "s", "lower"),
    ("words.express_in_generators.calls", "count", "lower"),
    ("words.express_in_generators.self_s", "s", "lower"),
    ("words.word_len.mean", "letters", "lower"),
    ("isomorphism.find_isomorphism.calls", "count", "lower"),
    ("isomorphism.find_isomorphism.self_s", "s", "lower"),
    ("isomorphism.find_isomorphism.timeouts", "count", "lower"),
    ("isomorphism.useful_ratio", "ratio", "higher"),
    ("verify.run_all.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.stdout_bytes", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class Tracer:
    def __init__(self, timeout_type: type[BaseException]):
        self.timeout_type = timeout_type
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counts: dict[str, int] = {}

    def add(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def spanned(self, name: str, fn, on_result=None):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        timeout_type, add = self.timeout_type, self.add

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except timeout_type:
                add(name + ".timeouts")
                raise
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def counted(self, key: str, fn, on_result=None):
        counts = self.counts
        counts[key] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            if on_result is None:
                return fn(*args, **kwargs)
            result = fn(*args, **kwargs)
            on_result(result)
            return result
        return wrapper

    def install(self, package) -> None:
        """Replace every binding of the traced functions in the package."""
        modules = {name: sys.modules[f"{package.__name__}.{name}"] for name in LAYERS}
        hooks = {
            "enumeration.enumerate_semigroup":
                lambda table: self.add("enumeration.table_elements", len(table)),
            "completability.complete_extensions":
                lambda exts: self.add("completability.extensions", len(exts)),
            "words.express_in_generators":
                lambda word: self.add("words.letters", len(word)),
        }
        from_to = {}
        for layer, fns in SPANNED.items():
            for fn_name in fns:
                name, orig = f"{layer}.{fn_name}", getattr(modules[layer], fn_name)
                from_to[id(orig)] = self.spanned(name, orig, hooks.get(name))
        enum, comp, iso = modules["enumeration"], modules["completability"], modules["isomorphism"]
        from_to[id(iso.is_isomorphism)] = self.counted(
            "isomorphism.is_isomorphism.calls", iso.is_isomorphism,
            lambda ok: self.add("isomorphism.certified", int(bool(ok))))
        for mod in [package, *modules.values()]:
            for attr, value in list(vars(mod).items()):
                if id(value) in from_to:
                    setattr(mod, attr, from_to[id(value)])
        # only the enumeration done inside completability counts as scanned
        comp.enumerate_elements = self.counted(
            "completability.enumerate_elements.calls", comp.enumerate_elements,
            lambda els: self.add("completability.maps_scanned", len(els)))

        table = enum.SemigroupTable
        table.product = self.counted("enumeration.SemigroupTable.product.calls",
                                     table.product)
        closure = self.spanned("enumeration.SemigroupTable.closure", table.closure)

        def closure_counted(table_self, generator_ids):
            before = self.counts["enumeration.SemigroupTable.product.calls"]
            result = closure(table_self, generator_ids)
            self.add("enumeration.closure.products",
                     self.counts["enumeration.SemigroupTable.product.calls"] - before)
            self.add("enumeration.closure.size", len(result))
            return result
        table.closure = closure_counted
        chain_map = modules["chain"].ChainMap
        chain_map.__post_init__ = self.counted("chain.ChainMap.new.calls",
                                               chain_map.__post_init__)

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self time in seconds)."""
        covered = [0.0] * len(self.span_start)
        for parent, start, end in zip(self.span_parent, self.span_start, self.span_end):
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, list] = {name: [0, 0.0] for name in self.names}
        for nid, start, end, kids in zip(self.span_name, self.span_start,
                                         self.span_end, covered):
            row = out[self.names[nid]]
            row[0] += 1
            row[1] += (end - start) - kids
        return {name: (calls, self_s) for name, (calls, self_s) in out.items()}

    def metrics(self) -> dict[str, float]:
        """Every METRICS value this tracer measures (all but the overhead)."""
        c = self.counts.get
        out: dict[str, float] = {}
        for name, (calls, self_s) in self.self_times().items():
            out[name + ".calls"] = calls
            out[name + ".self_s"] = self_s
        for key in ("chain.ChainMap.new.calls", "enumeration.table_elements",
                    "enumeration.SemigroupTable.product.calls",
                    "completability.maps_scanned",
                    "isomorphism.find_isomorphism.timeouts"):
            out[key] = c(key, 0)
        out["enumeration.closure.useful_ratio"] = _ratio(
            c("enumeration.closure.size", 0), c("enumeration.closure.products", 0))
        out["completability.useful_ratio"] = _ratio(
            c("completability.extensions", 0), c("completability.maps_scanned", 0))
        out["words.word_len.mean"] = _ratio(
            c("words.letters", 0), out["words.express_in_generators.calls"])
        out["isomorphism.useful_ratio"] = _ratio(
            c("isomorphism.certified", 0), c("isomorphism.is_isomorphism.calls", 0))
        return out

    def dump(self, path) -> None:
        """Write every span: a JSON header line, then the raw columns."""
        header = {"names": self.names, "spans": len(self.span_start),
                  "columns": [["name", "H"], ["parent", "l"],
                              ["start_s", "d"], ["end_s", "d"]],
                  "byteorder": sys.byteorder}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in (self.span_name, self.span_parent,
                           self.span_start, self.span_end):
                column.tofile(fh)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
