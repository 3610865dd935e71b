"""Output checks for the benchmark, written apart from the library.

Maps are plain tuples of 1-indexed images, composed left to right
(``compose(f, g)[x] == g[f[x]]``).  Each check recomputes the fact from
the definitions or closed forms and returns an error string, or None
when the output is right.  Nothing here imports ``ordrange``.
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement


def count(n: int, r: int) -> int:
    return math.comb(n + r - 1, r - 1)


def mirror(n: int, Y: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(n + 1 - y for y in Y))


def elements(n: int, Y: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All monotone maps into Y in lexicographic order (the table's ids)."""
    return list(combinations_with_replacement(Y, n))


def compose(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(g[v - 1] for v in f)


def image(f: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(set(f)))


def kernel(f: tuple[int, ...]) -> tuple[int, ...]:
    """Last point of each kernel block except the final one."""
    return tuple(x for x in range(1, len(f)) if f[x - 1] != f[x])


def is_regular(f: tuple[int, ...], Y: tuple[int, ...]) -> bool:
    return {f[y - 1] for y in Y} == set(f)


def captive(n: int, Y: tuple[int, ...]) -> int:
    members = set(Y)
    return sum(1 for y in Y
               if y in (1, n) or (y - 1 in members and y + 1 in members))


def rank(n: int, Y: tuple[int, ...]) -> set[int]:
    """Accepted ranks.  For Y the whole chain both the monoid convention
    (n) and the semigroup convention (n + 1) are accepted."""
    r = len(Y)
    if r == 1:
        return {1}
    if r == n:
        return {n, n + 1}
    return {math.comb(n - 1, r - 1) + captive(n, Y)}


def extension_count(n: int, Y: tuple[int, ...], domain, images) -> int:
    """Total monotone maps into Y extending a partial map, in closed form:
    a product over the domain gaps of multiset coefficients."""
    total = 1
    bounds = [(0, 1)] + list(zip(domain, images)) + [(n + 1, n)]
    for (a, lo), (b, hi) in zip(bounds, bounds[1:]):
        length = b - a - 1
        m = sum(1 for y in Y if lo <= y <= hi)
        if length:
            total *= math.comb(length + m - 1, m - 1) if m else 0
    return total


def _partition(groups, size: int) -> str | None:
    seen = sorted(i for g in groups for i in g)
    if seen != list(range(size)):
        return f"classes do not partition 0..{size - 1}"
    return None


def green_partition(relation: str, n: int, Y: tuple[int, ...]) -> set[frozenset[int]]:
    """The partition by the paper's characterizations, from scratch."""
    keys: dict[object, set[int]] = {}
    for i, f in enumerate(elements(n, Y)):
        reg = is_regular(f, Y)
        if relation == "H":
            key = f
        elif relation == "R":
            key = ("ker", kernel(f))
        elif relation == "L":
            key = ("im", image(f)) if reg else f
        else:  # D and J agree on finite chains
            key = ("rank", len(image(f))) if reg else ("ker", kernel(f))
        keys.setdefault(key, set()).add(i)
    return {frozenset(v) for v in keys.values()}


def closure_size(gens: list[tuple[int, ...]]) -> int:
    seen = set(gens)
    frontier = list(seen)
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                p = compose(x, g)
                if p not in seen:
                    seen.add(p)
                    fresh.append(p)
        frontier = fresh
    return len(seen)


# ---------------------------------------------------------------------------
# one check per subcommand; ``op`` is the generated op, ``out`` the parsed
# JSON the command printed

CLOSURE_CHECK_LIMIT = 200_000  # compositions; larger generating sets are not re-closed


def check_cli(op: dict, out: dict) -> str | None:
    cmd, n, Y = op["cmd"], op["n"], tuple(op["Y"])
    N = count(n, len(Y))
    if cmd == "card":
        return None if out == {"count": N} else f"count {out} != {N}"
    if cmd == "enumerate":
        want = [list(f) for f in elements(n, Y)]
        if out.get("count") != N or out.get("elements") != want:
            return "element list differs from the lexicographic enumeration"
        return None
    if cmd == "regular":
        reg = [list(f) for f in elements(n, Y) if is_regular(f, Y)]
        whole = len(Y) in (1, n) or Y == (1, n)
        if (out.get("count"), out.get("regular_count"), out.get("elements"),
                out.get("is_regular_semigroup")) != (N, len(reg), reg, whole):
            return "regular part differs"
        return None
    if cmd == "complete":
        want = extension_count(n, Y, op["domain"], op["images"])
        w = out.get("witness")
        if out.get("extensions") != want or out.get("completable") != (want > 0):
            return f"extensions {out.get('extensions')} != {want}"
        if want:
            ok = (w is not None and len(w) == n
                  and all(v in Y for v in w)
                  and all(a <= b for a, b in zip(w, w[1:]))
                  and all(w[d - 1] == v for d, v in zip(op["domain"], op["images"])))
            if not ok:
                return f"witness {w} does not extend the partial map"
        return None
    if cmd == "rank":
        if out.get("rank") not in rank(n, Y):
            return f"rank {out.get('rank')} not in {rank(n, Y)}"
        if op.get("check") and "formula" not in out.get("checked", ()):
            return "rank --check did not run the formula"
        return None
    if cmd == "gens":
        members = [tuple(m["images"]) for m in out.get("members", [])]
        if out.get("size") != out.get("rank") or out.get("size") != len(members):
            return "gens size differs from rank"
        if out.get("rank") not in rank(n, Y):
            return f"rank {out.get('rank')} not in {rank(n, Y)}"
        if len(set(members)) != len(members) or any(
                len(m) != n or any(v not in Y for v in m)
                or any(a > b for a, b in zip(m, m[1:])) for m in members):
            return "generators are not distinct monotone maps into Y"
        if N * len(members) <= CLOSURE_CHECK_LIMIT and closure_size(members) != N:
            return "generators do not generate the semigroup"
        return None
    if cmd == "green":
        classes = out.get("classes", [])
        err = _partition(classes, N)
        if err:
            return err
        if out.get("relation") != op["relation"] or len(out.get("meta", [])) != len(classes):
            return "green report is malformed"
        got = {frozenset(c) for c in classes}
        if got != green_partition(op["relation"], n, Y):
            return f"{op['relation']} classes differ from the characterization"
        return None
    if cmd == "iso":
        Z = tuple(op["Z"])
        cond = (1 if len(Y) == 1 and len(Z) == 1 else
                2 if Y == Z else 3 if mirror(n, Y) == Z else None)
        if out.get("isomorphic") != (cond is not None) or out.get("condition") != cond:
            return f"iso verdict {out.get('condition')} != {cond}"
        mapping = out.get("mapping")
        if op.get("search") and cond is not None:
            if mapping is None:
                return "search found no isomorphism"
            if sorted(a for a, _ in mapping) != list(range(N)) or \
                    sorted(b for _, b in mapping) != list(range(N)):
                return "mapping is not a bijection"
        return None
    return f"no check for {cmd}"


def check_word(f: tuple[int, ...], word: list[tuple[int, ...]],
               gens: set[tuple[int, ...]]) -> str | None:
    if not word:
        return "empty word"
    if any(w not in gens for w in word):
        return "word uses a non-generator"
    prod = word[0]
    for w in word[1:]:
        prod = compose(prod, w)
    return None if prod == f else "word does not multiply back to the element"
