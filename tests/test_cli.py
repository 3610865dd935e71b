import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import ordrange
from ordrange import cli, generators, isomorphism
from ordrange.cli import main
from conftest import mixed_constants, regular_by_scan


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGolden:
    def test_card(self, capsys):
        code, out, _ = run(capsys, "card", "-n", "3", "-Y", "1,3")
        assert code == 0
        assert out.strip() == '{"count":4}'

    def test_rank_formula(self, capsys):
        code, out, _ = run(capsys, "rank", "-n", "7", "-Y", "1,3,4,5",
                           "--method", "formula")
        assert code == 0
        assert out.strip() == '{"rank":22}'

    def test_enumerate(self, capsys):
        code, out, _ = run(capsys, "enumerate", "-n", "2", "-Y", "1,2")
        assert code == 0
        assert json.loads(out) == {
            "n": 2, "Y": [1, 2], "count": 3,
            "elements": [[1, 1], [1, 2], [2, 2]]}

    def test_complete(self, capsys):
        code, out, _ = run(capsys, "complete", "-n", "3", "-Y", "1,3",
                           "--theta", '{"domain":[1,3],"images":[1,3]}')
        assert code == 0
        assert json.loads(out) == {
            "completable": True, "witness": [1, 1, 3], "extensions": 2}

    def test_complete_counts_beyond_enumeration(self, capsys):
        code, out, _ = run(capsys, "complete", "-n", "30",
                           "-Y", "1,5,10,15,20,25,30",
                           "--theta", '{"domain":[2],"images":[5]}')
        assert code == 0
        assert '"extensions":474672' in out
        assert json.loads(out)["extensions"] == 2 * math.comb(33, 5)

    def test_regular(self, capsys):
        code, out, _ = run(capsys, "regular", "-n", "4", "-Y", "2,3")
        assert code == 0
        payload = json.loads(out)
        assert payload["regular_count"] == 3
        assert payload["count"] == 5
        assert payload["is_regular_semigroup"] is False
        assert "elements" not in payload

    def test_regular_elements_are_the_regular_maps(self, capsys):
        for n, Y in (("4", (2, 3)), ("5", (1, 3, 4))):
            code, out, _ = run(capsys, "regular", "-n", n,
                               "-Y", ",".join(map(str, Y)), "--elements")
            assert code == 0
            table = ordrange.enumerate_semigroup(ordrange.RangeSet(int(n), Y))
            payload = json.loads(out)
            assert payload["elements"] == [
                list(f.images) for f, regular
                in zip(table.elements, regular_by_scan(table)) if regular]
            assert payload["regular_count"] == len(payload["elements"])

    def test_green(self, capsys):
        code, out, _ = run(capsys, "green", "-n", "3", "-Y", "1,3",
                           "--relation", "L", "--check")
        assert code == 0
        payload = json.loads(out)
        assert payload["relation"] == "L"
        assert sorted(map(sorted, payload["classes"])) == [[0], [1, 2], [3]]

    def test_gens(self, capsys):
        code, out, _ = run(capsys, "gens", "-n", "3", "-Y", "1,3")
        assert code == 0
        payload = json.loads(out)
        assert payload["rank"] == payload["size"] == 4
        kinds = sorted(m["kind"] for m in payload["members"])
        assert kinds == ["ceiling_retraction", "floor_retraction",
                         "full_image", "full_image"]

    def test_iso_with_search(self, capsys):
        code, out, _ = run(capsys, "iso", "-n", "4", "-Y", "1,2", "-Z", "3,4",
                           "--search")
        assert code == 0
        payload = json.loads(out)
        assert payload["isomorphic"] is True
        assert payload["condition"] == 3
        assert payload["mapping"] is not None
        assert payload["induced_theta"] is not None

    @pytest.mark.parametrize("n,Y,Z", [("6", "1,2,4", "3,5,6"),
                                       ("7", "1,2,3", "5,6,7")])
    def test_iso_search_ends_on_mirror_pairs(self, capsys, n, Y, Z):
        code, out, _ = run(capsys, "iso", "-n", n, "-Y", Y, "-Z", Z, "--search")
        assert code == 0
        payload = json.loads(out)
        assert payload["condition"] == 3
        S = ordrange.enumerate_semigroup(ordrange.RangeSet(
            int(n), tuple(map(int, Y.split(",")))))
        T = ordrange.enumerate_semigroup(ordrange.RangeSet(
            int(n), tuple(map(int, Z.split(",")))))
        phi = dict(payload["mapping"])
        assert ordrange.is_isomorphism(phi, S, T)

    def test_iso_negative(self, capsys):
        code, out, _ = run(capsys, "iso", "-n", "4", "-Y", "1,2", "-Z", "1,3",
                           "--search")
        assert code == 0
        payload = json.loads(out)
        assert payload == {"isomorphic": False, "condition": None,
                           "mapping": None, "induced_theta": None}

    @pytest.mark.parametrize("n,Y", [("2", "1,2"), ("3", "1,2,3")])
    def test_rank_check_whole_chain(self, capsys, n, Y):
        code, out, _ = run(capsys, "rank", "-n", n, "-Y", Y, "--check")
        assert code == 0
        payload = json.loads(out)
        assert payload["rank"] == int(n) + 1
        assert payload["checked"] == ["brute", "constructed", "formula"]

    @pytest.mark.parametrize("n", range(2, 8))
    def test_gens_whole_chain_closure_checked(self, capsys, n):
        Y = ",".join(map(str, range(1, n + 1)))
        code, out, err = run(capsys, "gens", "-n", str(n), "-Y", Y)
        assert code == 0 and err == ""  # within the closure guard
        payload = json.loads(out)
        assert payload["rank"] == payload["size"] == n + 1
        assert [(m["kind"], m["index"]) for m in payload["members"]] == \
            [("full_image", None)] + [("corank_one", t) for t in range(1, n + 1)]

    def test_gens_one_point_range(self, capsys):
        code, out, _ = run(capsys, "gens", "-n", "5", "-Y", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["rank"] == payload["size"] == 1
        assert payload["members"] == [
            {"images": [3, 3, 3, 3, 3], "kind": "full_image", "index": None}]

    @pytest.mark.parametrize("n,Y,rank", [("4", "2", 1), ("5", "1,2,3,4,5", 6)])
    def test_rank_constructed_on_degenerate_sizes(self, capsys, n, Y, rank):
        code, out, _ = run(capsys, "rank", "-n", n, "-Y", Y,
                           "--method", "constructed")
        assert code == 0
        assert json.loads(out) == {"rank": rank}

    def test_gens_above_closure_guard(self, capsys):
        code, out, err = run(capsys, "gens", "-n", "12", "-Y", "1,3,5,7,9,11")
        assert code == 0
        payload = json.loads(out)
        assert payload["rank"] == payload["size"] == 463
        assert len(err.splitlines()) == 1
        assert "closure check skipped" in err and "6188" in err

    def test_generating_set_above_closure_guard_refused(self, capsys,
                                                         monkeypatch):
        # rank 6442 above the 5000 guard: refused before any map is built
        argv = ["gens", "-n", "16", "-Y", "1,2,3,4,5,6,7,8"]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "6442" in err
        code, _, _ = run(capsys, "rank", *argv[1:], "--method", "constructed")
        assert code == 2
        monkeypatch.setenv("ORDRANGE_MAX_ELEMENTS", "7000")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["size"] == 6442

    def test_rank_check_above_closure_guard(self, capsys):
        Y = ",".join(map(str, range(1, 16)))
        code, out, _ = run(capsys, "rank", "-n", "30", "-Y", Y, "--check")
        assert code == 0
        assert out.strip() == '{"rank":77558774,"checked":["formula"]}'

    def test_rank_check(self, capsys):
        code, out, _ = run(capsys, "rank", "-n", "4", "-Y", "1,3", "--check")
        assert code == 0
        payload = json.loads(out)
        assert payload["rank"] == 4
        assert payload["checked"] == ["brute", "constructed", "formula"]

    @pytest.mark.parametrize("argv", [
        ("iso", "-n", "6", "-Y", "1,2,3,4", "-Z", "3,4,5,6", "--search"),
        ("iso", "-n", "3", "-Y", "1,3", "-Z", "1,2,3,4", "--n2", "6",
         "--search"),
        ("rank", "-n", "6", "-Y", "1,2,3,4", "--method", "brute"),
    ])
    def test_search_guard_refuses_before_any_table(self, capsys, table_builds,
                                                   argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: semigroup has 84 elements, above the guard 60\n"
        assert table_builds == []

    @pytest.mark.parametrize("Z, builds", [("2,4,6", 1), ("1,3,5", 2)])
    def test_iso_search_builds_one_table_per_range_set(self, capsys,
                                                       monkeypatch,
                                                       table_builds, Z,
                                                       builds):
        """One semigroup table, and one read of its colours and columns
        for the search, per distinct range set."""
        reads = []
        build = isomorphism._side

        def counted(table):
            reads.append(table)
            return build(table)

        monkeypatch.setattr(isomorphism, "_side", counted)
        code, out, _ = run(capsys, "iso", "-n", "6", "-Y", "2,4,6", "-Z", Z,
                           "--search")
        assert code == 0
        assert json.loads(out)["mapping"] is not None
        assert len(table_builds) == builds
        assert len(reads) == builds

    def test_mixed_induced_bijection_fails_verification(self, capsys,
                                                       monkeypatch):
        """A map that sends the constants in an order neither monotone nor
        antitone is a broken isomorphism, reported as such."""
        monkeypatch.setattr(cli, "find_isomorphism",
                            lambda S, T: mixed_constants(S))
        code, out, err = run(capsys, "iso", "-n", "3", "-Y", "1,2,3", "-Z",
                             "1,2,3", "--search")
        assert code == 1 and out == ""
        assert err == ("verification failure: induced map is neither "
                       "monotone nor antitone\n")

    @pytest.mark.parametrize("args", [["gens"], ["rank", "--check"]])
    def test_short_generating_set_fails_verification(self, capsys,
                                                     monkeypatch, args):
        build = generators.full_image_maps
        monkeypatch.setattr(generators, "full_image_maps",
                            lambda Y: build(Y)[1:])
        code, out, err = run(capsys, args[0], "-n", "5", "-Y", "1,3,4",
                             *args[1:])
        assert code == 1 and out == ""
        assert err == ("verification failure: built 6 generators, "
                       "formula says 7\n")


class TestDeterminism:
    def test_byte_identical_runs(self, capsys):
        first = run(capsys, "gens", "-n", "5", "-Y", "1,3,4")
        second = run(capsys, "gens", "-n", "5", "-Y", "1,3,4")
        assert first == second

    def test_green_oracle_route(self, capsys):
        a = run(capsys, "green", "-n", "4", "-Y", "1,3", "--relation", "D",
                "--oracle")
        b = run(capsys, "green", "-n", "4", "-Y", "1,3", "--relation", "D")
        assert a[0] == b[0] == 0
        assert json.loads(a[1])["classes"] == json.loads(b[1])["classes"]


class TestGreenReport:
    def test_report_bytes_pinned(self, capsys):
        """Every JSON egg-box report with n <= 5, both routes, hashed."""
        digest = hashlib.sha256()
        for n in range(1, 6):
            for size in range(1, n + 1):
                for Y in combinations(range(1, n + 1), size):
                    for rel in "LRHDJ":
                        for route in ([], ["--oracle"]):
                            code, out, _ = run(
                                capsys, "green", "-n", str(n),
                                "-Y", ",".join(map(str, Y)),
                                "--relation", rel, *route)
                            assert code == 0
                            digest.update(out.encode())
        assert digest.hexdigest() == (
            "6098738e1735200e4195decdf05884932f8fcb3acda0b03ff54fedddd345cb8e")

    @pytest.mark.parametrize("route", [[], ["--oracle"]])
    def test_check_fails_on_differing_partitions(self, capsys, monkeypatch,
                                                 route):
        oracle = cli.green_classes_by_ideals

        def merged(relation, table):
            first, second, *rest = oracle(relation, table)
            return [sorted(first + second), *rest]

        monkeypatch.setattr(cli, "green_classes_by_ideals", merged)
        code, out, err = run(capsys, "green", "-n", "4", "-Y", "1,3",
                             "--relation", "D", "--check", *route)
        assert code == 1 and out == ""
        assert "characterized and oracle partitions differ" in err


class TestFormats:
    def test_csv(self, capsys):
        code, out, _ = run(capsys, "card", "-n", "3", "-Y", "1,3",
                           "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["key,value", "count,4"]

    def test_csv_quotes_commas_and_quotes(self, capsys):
        """A value holding a comma or a quote is quoted, its quotes
        doubled, so a CSV reader gives back the JSON of every value."""
        argv = ["gens", "-n", "3", "-Y", "1,3"]
        _, want, _ = run(capsys, *argv)
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[:3] == ["key,value", "n,3", 'Y,"[1,3]"']
        assert lines[5].startswith('members,"[{""images"":[1,3,3],')
        rows = list(csv.reader(lines))
        assert rows[0] == ["key", "value"]
        assert {k: json.loads(v) for k, v in rows[1:]} == json.loads(want)

    def test_table(self, capsys):
        code, out, _ = run(capsys, "card", "-n", "3", "-Y", "1,3",
                           "--format", "table")
        assert code == 0
        assert "count" in out and "4" in out

    def test_table_prints_nested_rows(self, capsys):
        code, out, _ = run(capsys, "gens", "-n", "3", "-Y", "1,3",
                           "--format", "table")
        assert code == 0
        lines = out.splitlines()
        at = lines.index("members  (4 rows)")
        assert lines[:at] == ["n        3", "Y        [1, 3]", "rank     4",
                              "size     4"]
        rows = [json.loads(line) for line in lines[at + 1:]]
        assert all(line.startswith("  {") for line in lines[at + 1:])
        assert [row["kind"] for row in rows] == [
            "full_image", "full_image", "ceiling_retraction",
            "floor_retraction"]


class TestErrors:
    def test_unsorted_y(self, capsys):
        code, _, err = run(capsys, "card", "-n", "3", "-Y", "3,1")
        assert code == 2
        assert "strictly increasing" in err

    def test_duplicate_y(self, capsys):
        code, _, err = run(capsys, "card", "-n", "3", "-Y", "1,1")
        assert code == 2
        assert "strictly increasing" in err

    def test_out_of_range_y(self, capsys):
        code, _, err = run(capsys, "card", "-n", "3", "-Y", "1,4")
        assert code == 2
        assert "outside" in err

    def test_junk_y(self, capsys):
        code, _, err = run(capsys, "card", "-n", "3", "-Y", "a,b")
        assert code == 2
        assert "comma list" in err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_guard_exceeded(self, capsys):
        code, _, err = run(capsys, "enumerate", "-n", "9",
                           "-Y", "1,2,3,4,5,6,7,8,9")
        assert code == 2
        assert "guard" in err

    def test_regular_above_closure_guard(self, capsys, monkeypatch):
        argv = ["regular", "-n", "8", "-Y", "1,2,3,4,5,6,7,8"]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == ("error: semigroup has 6435 elements, above the "
                       "guard 5000\n")
        monkeypatch.setenv("ORDRANGE_MAX_ELEMENTS", "7000")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        payload = json.loads(out)
        assert payload["regular_count"] == payload["count"] == 6435
        assert payload["is_regular_semigroup"] is True

    def test_complete_rejects_non_integer_points(self, capsys):
        code, out, err = run(capsys, "complete", "-n", "3", "-Y", "1,2",
                             "--theta", '{"domain":[1.5],"images":[1]}')
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "1.5" in err

    @pytest.mark.parametrize("theta", ["[]", '{"domain":[1]}', "{domain"])
    def test_complete_rejects_a_bad_payload(self, capsys, theta):
        code, out, err = run(capsys, "complete", "-n", "3", "-Y", "1,3",
                             "--theta", theta)
        assert code == 2 and out == ""
        assert err.startswith("error: bad theta payload: ")

    def test_complete_rejects_bool_points(self, capsys):
        code, out, err = run(capsys, "complete", "-n", "3", "-Y", "1,3",
                             "--theta", '{"domain":[true],"images":[1]}')
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "True" in err
        code, out, err = run(capsys, "complete", "-n", "3", "-Y", "1,3",
                             "--theta", '{"domain":[2],"images":[true]}')
        assert (code, out, err) == (2, "", "error: image True is not an int\n")

    def test_verify_needs_target(self, capsys):
        code, _, err = run(capsys, "verify", "-n", "3")
        assert code == 2

    def test_verify_takes_one_target(self, capsys):
        code, out, _ = run(capsys, "verify", "-n", "3", "-Y", "1,3", "--all")
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_verify_rejects_empty_chain(self, capsys, n):
        code, out, err = run(capsys, "verify", "-n", n, "--all")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


class TestGuardVariable:
    @pytest.mark.parametrize("raw", ["abc", "0", "-5"])
    def test_rejects_non_positive_or_junk(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("ORDRANGE_MAX_ELEMENTS", raw)
        code, _, err = run(capsys, "enumerate", "-n", "3", "-Y", "1,3")
        assert code == 2
        assert "ORDRANGE_MAX_ELEMENTS" in err

    def test_never_lowers_the_closure_guard(self, capsys, monkeypatch):
        monkeypatch.setenv("ORDRANGE_MAX_ELEMENTS", "100")
        code, out, _ = run(capsys, "enumerate", "-n", "8", "-Y", "1,3,5,7")
        assert code == 0
        assert json.loads(out)["count"] == 165


class TestVerify:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "-n", "3", "--all")
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln.startswith(("ok", "FAIL"))]
        assert lines and all(ln.startswith("ok") for ln in lines)

    def test_single_set(self, capsys):
        code, out, _ = run(capsys, "verify", "-n", "4", "-Y", "1,3")
        assert code == 0

    def test_whole_chain_above_the_closure_guard(self, capsys):
        code, out, err = run(capsys, "verify", "-n", "8", "--all")
        assert code == 2
        assert out == ""
        assert err == "error: semigroup has 6435 elements, above the guard 5000\n"


class TestModuleEntry:
    @staticmethod
    def run_module(*argv):
        src = str(Path(ordrange.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", "ordrange", *argv],
                              capture_output=True, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=path))

    def test_python_dash_m_runs_the_cli(self):
        proc = self.run_module("card", "-n", "3", "-Y", "1,2")
        assert proc.returncode == 0
        assert proc.stdout.strip() == '{"count":4}'

    def test_python_dash_m_passes_the_exit_code_on(self):
        proc = self.run_module("card", "-n", "3", "-Y", "5")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")


class TestReentry:
    SEQUENCE = [
        ("card", "-n", "x", "-Y", "1"),
        ("verify", "-n", "2", "-Y", "1", "--all"),
        ("verify", "-n", "2", "--all"),
        ("card", "-n", "3", "-Y", "1,3"),
        ("iso", "-n", "4", "-Y", "1,2", "-Z", "3,4", "--n2", "5"),
        ("iso", "-n", "4", "-Y", "1,2", "-Z", "3,4"),
    ]

    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_calls_in_one_process_match_calls_alone(self, capsys):
        together = [run(capsys, *argv)[:2] for argv in self.SEQUENCE]
        alone = []
        for argv in self.SEQUENCE:
            proc = TestModuleEntry.run_module(*argv)
            alone.append((proc.returncode, proc.stdout))
        assert together == alone
        codes = [code for code, _ in together]
        assert codes == [2, 2, 0, 0, 0, 0]
        assert together[2][1].startswith("ok")
        assert together[3][1] == '{"count":4}\n'
        assert json.loads(together[4][1])["isomorphic"] is False
        assert json.loads(together[5][1])["isomorphic"] is True
