"""Command-line interface over the whole library.

Every subcommand prints one machine-readable report on stdout; JSON is
the stable contract, ``csv`` and ``table`` are flat renderings of the
same payload.  Identical invocations produce byte-identical output.
Exit codes: 0 success, 2 usage error, 1 internal cross-check failure.
``main`` may be called repeatedly in one process: the argparse parser
is built once, on the first call, and holds no per-call state.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Callable

from .chain import DomainError, GuardExceeded, PartialMap, RangeSet
from . import verify as verify_mod
from .completability import (
    build_extension,
    count_extensions,
    is_completable,
)
from .enumeration import (
    SemigroupTable,
    check_guard,
    closure_guard,
    count_maps,
    enumerate_elements,
    enumerate_semigroup,
    search_guard,
)
from .generators import (generates, minimum_generating_set, rank_by_formula,
                         rank_by_search)
from .green import RELATIONS, egg_box, green_classes, green_classes_by_ideals
from .isomorphism import (
    find_isomorphism,
    induced_range_bijection,
    isomorphism_condition,
)
from .regularity import (is_regular, is_regular_by_search,
                          is_semigroup_regular, regular_elements)


def _parse_Y(raw: str, n: int) -> RangeSet:
    try:
        members = tuple(int(part) for part in raw.split(","))
    except ValueError:
        raise DomainError(f"Y must be a comma list of integers, got {raw!r}")
    return RangeSet(n, members)  # rejects unsorted/duplicate/out-of-range


def _render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, separators=(",", ":"))
    if fmt == "csv":
        lines = ["key,value"]
        for key, value in payload.items():
            if isinstance(value, (dict, list)):
                text = json.dumps(value, separators=(",", ":"))
            else:
                text = json.dumps(value)
            if "," in text or '"' in text:
                text = '"' + text.replace('"', '""') + '"'
            lines.append(f"{key},{text}")
        return "\n".join(lines)
    # table: for human eyes only
    width = max(len(k) for k in payload)
    lines = []
    for key, value in payload.items():
        if isinstance(value, list) and value and isinstance(value[0], (list, dict)):
            lines.append(f"{key.ljust(width)}  ({len(value)} rows)")
            for item in value:
                lines.append("  " + json.dumps(item, separators=(",", ":")))
        else:
            lines.append(f"{key.ljust(width)}  {json.dumps(value)}")
    return "\n".join(lines)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("-n", type=int, required=True, help="chain size")
    sub.add_argument("-Y", required=True,
                     help="range set, strictly increasing comma list")
    sub.add_argument("--format", choices=("json", "csv", "table"),
                     default="json")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ordrange",
        description="Monotone self-maps of a finite chain with restricted "
                    "range: enumeration, regularity, Green's relations, "
                    "completability, rank and isomorphism.")
    subs = p.add_subparsers(dest="command", required=True)

    s = subs.add_parser("card", help="number of elements")
    _add_common(s)

    s = subs.add_parser("enumerate", help="list every element")
    _add_common(s)

    s = subs.add_parser("regular", help="regular part and regularity verdict")
    _add_common(s)
    s.add_argument("--elements", action="store_true",
                   help="include the regular elements themselves")

    s = subs.add_parser("green", help="egg-box report for one relation")
    _add_common(s)
    s.add_argument("--relation", choices=RELATIONS, default="D")
    s.add_argument("--oracle", action="store_true",
                   help="use the definition-based Cayley-graph oracle "
                        "instead of the characterized predicates")
    s.add_argument("--check", action="store_true",
                   help="compute both routes and fail on any mismatch")

    s = subs.add_parser("complete", help="completability of a partial map")
    _add_common(s)
    s.add_argument("--theta", required=True,
                   help='partial map as JSON {"domain":[...],"images":[...]}')

    s = subs.add_parser("rank", help="rank of the semigroup")
    _add_common(s)
    s.add_argument("--method", choices=("formula", "constructed", "brute"),
                   default="formula")
    s.add_argument("--check", action="store_true",
                   help="cross-validate all applicable methods")

    s = subs.add_parser("gens", help="a minimum generating set with provenance")
    _add_common(s)

    s = subs.add_parser("iso", help="isomorphism classification for two range sets")
    _add_common(s)
    s.add_argument("-Z", required=True, help="second range set")
    s.add_argument("--n2", type=int, default=None,
                   help="chain size for Z (defaults to -n)")
    s.add_argument("--search", action="store_true",
                   help="also run the certified isomorphism search and report "
                        "a mapping")

    s = subs.add_parser("verify", help="run every oracle-vs-characterization "
                                       "cross-check")
    s.add_argument("-n", type=int, required=True)
    target = s.add_mutually_exclusive_group(required=True)
    target.add_argument("-Y", default=None,
                        help="restrict to a single range set")
    target.add_argument("--all", action="store_true",
                        help="sweep every nonempty range set of the chain")
    s.add_argument("--format", choices=("json", "csv", "table"),
                   default="table")
    return p


def _cmd_card(args) -> dict:
    Y = _parse_Y(args.Y, args.n)
    return {"count": count_maps(args.n, len(Y))}


def _cmd_enumerate(args) -> dict:
    Y = _parse_Y(args.Y, args.n)
    elements = enumerate_elements(Y)
    return {
        "n": args.n,
        "Y": list(Y.members),
        "count": len(elements),
        "elements": [list(f.images) for f in elements],
    }


def _cmd_regular(args) -> dict:
    Y = _parse_Y(args.Y, args.n)
    reg = regular_elements(Y)
    payload = {
        "n": args.n,
        "Y": list(Y.members),
        "count": count_maps(args.n, len(Y)),
        "regular_count": len(reg),
        "is_regular_semigroup": is_semigroup_regular(Y),
    }
    if args.elements:
        payload["elements"] = [list(f.images) for f in reg]
    return payload


def _cmd_green(args) -> dict:
    Y = _parse_Y(args.Y, args.n)
    table = enumerate_semigroup(Y)
    if args.oracle:
        classes = green_classes_by_ideals(args.relation, table)
        gens = minimum_generating_set(args.n, Y, check=False).elements()
        regular = is_regular_by_search(table, list(map(table.id_of, gens)))
    else:
        classes = green_classes(args.relation, table)
        regular = [is_regular(f, Y) for f in table.elements]
    if args.check:
        other = (green_classes(args.relation, table) if args.oracle
                 else green_classes_by_ideals(args.relation, table))
        if classes != other:
            raise AssertionError(
                f"relation {args.relation}: characterized and oracle "
                "partitions differ")
    return egg_box(args.relation, table, classes, regular)


def _cmd_complete(args) -> dict:
    Y = _parse_Y(args.Y, args.n)
    try:
        raw = json.loads(args.theta)
        theta = PartialMap(args.n, tuple(raw["domain"]), tuple(raw["images"]))
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise DomainError(f"bad theta payload: {exc}")
    verdict = is_completable(theta, Y)
    witness = build_extension(theta, Y)
    extensions = count_extensions(theta, Y)
    if verdict != (extensions > 0) or verdict != (witness is not None):
        raise AssertionError("criterion, builder and extension count disagree")
    return {
        "completable": verdict,
        "witness": list(witness.images) if witness else None,
        "extensions": extensions,
    }


def _search_tables(*sets: RangeSet) -> list[SemigroupTable]:
    """The tables of the given range sets for a subset search, one per
    distinct set, built only once all of them are inside the search guard."""
    check_guard(max(count_maps(Y.n, len(Y)) for Y in sets), search_guard())
    tables = {Y: enumerate_semigroup(Y) for Y in dict.fromkeys(sets)}
    return [tables[Y] for Y in sets]


def _generating_set(Y: RangeSet, table: Callable[[], SemigroupTable]):
    """The constructed minimum generating set, closure-checked on
    ``table()`` within the closure guard; above it only the formula check
    runs, noted on stderr once the set is built, so that a refusal of the
    set comes first."""
    total, guard = count_maps(Y.n, len(Y)), closure_guard()
    gens = minimum_generating_set(Y.n, Y, check=False)
    if total > guard:
        print(f"note: closure check skipped: {total} elements above the "
              f"closure guard {guard}; generator count checked against the "
              "rank formula only", file=sys.stderr)
    elif not generates(gens.elements(), table()):
        raise AssertionError("constructed set fails to generate")
    return gens


def _cmd_rank(args) -> dict:
    Y = _parse_Y(args.Y, args.n)
    table = functools.cache(lambda: enumerate_semigroup(Y))  # built once

    def brute() -> int:
        check_guard(count_maps(Y.n, len(Y)), search_guard())
        return rank_by_search(table())
    methods = {
        "formula": lambda: rank_by_formula(Y),
        "constructed": lambda: len(_generating_set(Y, table)),
        "brute": brute,
    }
    value = methods[args.method]()
    payload = {"rank": value}
    if args.check:
        others = {}
        for name, method in methods.items():
            try:
                others[name] = value if name == args.method else method()
            except GuardExceeded:
                pass  # refused before any work: left unchecked
        if len(set(others.values())) != 1:
            raise AssertionError(f"rank methods disagree: {others}")
        payload["checked"] = sorted(others)
    return payload


def _cmd_gens(args) -> dict:
    Y = _parse_Y(args.Y, args.n)
    gens = _generating_set(Y, lambda: enumerate_semigroup(Y))
    return {
        "n": args.n,
        "Y": list(Y.members),
        "rank": rank_by_formula(Y),
        "size": len(gens),
        "members": [g.as_dict() for g in gens.members],
    }


def _cmd_iso(args) -> dict:
    n2 = args.n if args.n2 is None else args.n2
    Y = _parse_Y(args.Y, args.n)
    Z = _parse_Y(args.Z, n2)
    cond = isomorphism_condition(Y, Z)
    payload = {
        "isomorphic": cond is not None,
        "condition": cond,
        "mapping": None,
        "induced_theta": None,
    }
    if args.search:
        S, T = _search_tables(Y, Z)
        phi = find_isomorphism(S, T)
        if (phi is not None) != (cond is not None):
            raise AssertionError(
                "classification and isomorphism search disagree")
        if phi is not None:
            payload["mapping"] = [[a, phi[a]] for a in sorted(phi)]
            theta = induced_range_bijection(phi, S, T)
            payload["induced_theta"] = {str(y): theta[y] for y in sorted(theta)}
    return payload


def _cmd_verify(args) -> dict:
    sets = None if args.all else [_parse_Y(args.Y, args.n)]
    report = verify_mod.run_all(args.n, sets)
    for line in report["lines"]:
        print(line)
    if report["failures"]:
        raise AssertionError(f"{report['failures']} cross-checks failed")
    return {"n": args.n, "checks": report["checks"], "failures": 0}


_COMMANDS = {
    "card": _cmd_card,
    "enumerate": _cmd_enumerate,
    "regular": _cmd_regular,
    "green": _cmd_green,
    "complete": _cmd_complete,
    "rank": _cmd_rank,
    "gens": _cmd_gens,
    "iso": _cmd_iso,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload = _COMMANDS[args.command](args)
    except (DomainError, GuardExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:  # a failed cross-check or self-check
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    print(_render(payload, args.format))
    return 0


if __name__ == "__main__":
    sys.exit(main())
