import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from math import factorial
from pathlib import Path

from ballotperm import counts
from ballotperm.cli import (MAX_FORCED_BFILE_N, MAX_FORCED_ORDER, STATS, build_parser,
                            main)

FIXTURE = Path(__file__).parent / "data" / "b008292.txt"
RENDER_GOLDEN = Path(__file__).parent / "data" / "render_sha256.json"
SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_b_csv_sums_to_45(capsys):
    code, out, _ = run(capsys, "table", "--stat", "b", "--n", "5", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert all(row[0] == "5" for row in rows)
    assert sum(int(row[2]) for row in rows) == 45


def test_table_a_first_json(capsys):
    code, out, _ = run(capsys, "table", "--stat", "A_first", "--n", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["stat"] == "A_first" and doc["n"] == 3
    entries = {(e["d"], e["j"]): int(e["count"]) for e in doc["entries"]}
    assert entries == {(0, 1): 1, (1, 1): 1, (1, 2): 2, (1, 3): 1, (2, 3): 1}


def test_table_a_n0(capsys):
    code, out, _ = run(capsys, "table", "--stat", "A", "--n", "0", "--format", "csv")
    assert code == 0
    assert out.strip() == "0,0,1"


def test_csv_and_json_carry_identical_data(capsys):
    code, out_json, _ = run(capsys, "table", "--stat", "E", "--n", "5")
    code2, out_csv, _ = run(capsys, "table", "--stat", "E", "--n", "5",
                            "--format", "csv")
    assert code == code2 == 0
    from_json = {(e["d"], e["j"]): e["count"] for e in json.loads(out_json)["entries"]}
    from_csv = {(int(r[1]), int(r[2])): r[3]
                for r in csv.reader(io.StringIO(out_csv))}
    assert from_json == from_csv


def test_table_counts_are_decimal_strings(capsys):
    code, out, _ = run(capsys, "table", "--stat", "b", "--n", "14", "--format", "json")
    assert code == 0
    for e in json.loads(out)["entries"]:
        assert isinstance(e["count"], str) and e["count"].isdigit()


def test_unknown_stat_is_usage_error(capsys):
    code, _, _ = run(capsys, "table", "--stat", "nope", "--n", "3")
    assert code == 2


def test_table_cap(capsys):
    code, _, err = run(capsys, "table", "--stat", "b", "--n", "15")
    assert code == 2 and "force" in err


def test_table_force_ceiling(capsys, tmp_path):
    # no request runs without bound: past the per-stat ceiling even --force
    # gets a one-line error (A_first at 1100 used to overflow the recursion)
    code, out, err = run(capsys, "table", "--stat", "A_first", "--n", "1100", "--force")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(STATS["A_first"].ceiling) in err
    for stat, entry in STATS.items():
        if entry.rows:
            code, _, err = run(capsys, "table", "--stat", stat, "--n", str(entry.ceiling + 1),
                               "--force")
            assert code == 2 and "ceiling" in err, stat
    n = STATS["l"].ceiling - 1
    out_path = tmp_path / "l.csv"
    code, _, _ = run(capsys, "table", "--stat", "l", "--n", str(n), "--force",
                     "--format", "csv", "--out", str(out_path))
    assert code == 0
    rows = list(csv.reader(io.StringIO(out_path.read_text())))
    assert len(rows) == (n - 1) // 2
    assert sum(int(row[2]) for row in rows) == factorial(n - 1)


def test_table_l_even_n_domain_error(capsys, tmp_path):
    # both routes keep their own check, with one wording
    for n in ("0", "2", "4"):
        table, brute = (run(capsys, command, "--stat", "l", "--n", n)
                        for command in ("table", "oracle"))
        assert table == brute and table[:2] == (2, "") and "odd" in table[2], n
    # the entries are computed before --out is opened, so an error leaves no file
    target = tmp_path / "P"
    code, out, err = run(capsys, "table", "--stat", "l", "--n", "4", "--out", str(target))
    assert code == 2 and out == "" and "odd" in err
    assert not target.exists()


def test_render_matches_golden_bytes(capsys, tmp_path):
    # sha256 of the whole stdout of every table and oracle stat in both formats
    # at every n <= 8, recorded from the json.dumps / csv.writer renderer; an n
    # missing from the file is refused.  --out must write the same bytes.
    golden = json.loads(RENDER_GOLDEN.read_text())
    assert sorted(golden["table"]) == ["A", "A_first", "E", "U", "b", "b_factor", "l", "p"]
    assert sorted(golden["oracle"]) == ["A_first", "E", "M", "b", "b_factor", "l", "p"]
    target = tmp_path / "out"
    for command, stats in golden.items():
        for stat, formats in stats.items():
            for fmt, digests in formats.items():
                for n in range(9):
                    argv = (command, "--stat", stat, "--n", str(n), "--format", fmt)
                    code, out, _ = run(capsys, *argv)
                    case = (command, stat, fmt, n)
                    if str(n) not in digests:
                        assert code == 2 and out == "", case
                        continue
                    assert code == 0, case
                    data = out.encode()
                    assert hashlib.sha256(data).hexdigest() == digests[str(n)], case
                    assert run(capsys, *argv, "--out", str(target))[:2] == (0, ""), case
                    assert target.read_bytes() == data, case


def test_table_streams_in_bounded_memory(tmp_path):
    # streamed, this run peaks near 34 MB; building the whole document in memory
    # before writing took it to 107 MB.  The child reads its own
    # peak as VmHWM: its ru_maxrss would also count this test runner's resident
    # set, which the child inherits at the fork.
    out = tmp_path / "a_first.json"
    script = ("from ballotperm.cli import main\n"
              f"code = main(['table', '--stat', 'A_first', '--n', '200', '--force',"
              f" '--out', {str(out)!r}])\n"
              "with open('/proc/self/status') as fh:\n"
              "    peak = next(line.split()[1] for line in fh if line.startswith('VmHWM:'))\n"
              "print(code, peak)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
    code, peak_kib = map(int, proc.stdout.split())
    assert code == 0 and json.loads(out.read_text())["n"] == 200
    assert peak_kib / 1024 < 60


def test_factor_table_holds_no_weight_tables(tmp_path):
    # the p rows of one n are built in one pass over the piece lengths, with
    # one length's packed columns alive at a time: this run peaks near 24 MB,
    # and at 45 MB when a weight table per (n, j) was cached.  The child reads
    # its own peak, as in test_table_streams_in_bounded_memory.
    out = tmp_path / "p.json"
    script = ("from ballotperm.cli import main\n"
              f"code = main(['table', '--stat', 'p', '--n', '80', '--force',"
              f" '--out', {str(out)!r}])\n"
              "with open('/proc/self/status') as fh:\n"
              "    peak = next(line.split()[1] for line in fh if line.startswith('VmHWM:'))\n"
              "print(code, peak)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
    code, peak_kib = map(int, proc.stdout.split())
    assert code == 0 and json.loads(out.read_text())["n"] == 80
    assert peak_kib / 1024 < 35


def test_oracle_command(capsys):
    code, out, _ = run(capsys, "oracle", "--stat", "b", "--n", "3")
    assert code == 0
    doc = json.loads(out)
    assert {(e["d"],): int(e["count"]) for e in doc["entries"]} == {(0,): 1, (1,): 2}
    # every oracle table stops at the enumeration cap, with no flag to lift it
    for stat in ("A_first", "b", "M", "E", "b_factor", "p", "l"):
        code, out, err = run(capsys, "oracle", "--stat", stat, "--n", "11")
        assert code == 2 and out == "" and err.count("\n") == 1, stat
        assert "the ceiling 10, got 11" in err and "force" not in err, stat
    code, out, _ = run(capsys, "oracle", "--stat", "b", "--n", "11", "--force")
    assert code == 2 and out == ""


def test_oracle_matches_table_for_b(capsys):
    # both commands accept the same n of every stat they both serve, and each
    # stat keyed alike on both routes renders the same bytes (p is keyed by
    # (d, j) at i = 1 in the partition sum, by (d, i, j) in the oracle)
    both = [stat for stat, entry in STATS.items() if entry.rows and entry.oracle]
    assert sorted(both) == ["A_first", "E", "b", "b_factor", "l", "p"]
    for stat in both:
        for n in range(9):
            for fmt in ("json", "csv"):
                argv = ("--stat", stat, "--n", str(n), "--format", fmt)
                code, via_table, _ = run(capsys, "table", *argv)
                code_oracle, via_oracle, _ = run(capsys, "oracle", *argv)
                assert code == code_oracle == (2 if stat == "l" and n % 2 == 0 else 0), argv
                if stat != "p":
                    assert via_table == via_oracle, argv


def test_verify_low_order_passes(capsys):
    code, out, _ = run(capsys, "verify", "--order", "4", "--n-max-oracle", "4")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 8 and all(r["passed"] for r in reports)


def test_verify_default_order(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 8 and all(r["passed"] for r in reports)
    assert all(r["order"] in (10, 9) for r in reports)


def test_verify_order_one_is_vacuous(capsys):
    # at order 1 the series grids of the factor checks are empty, and the
    # oracle stages alone give them entries to compare
    code, out, _ = run(capsys, "verify", "--order", "1", "--n-max-oracle", "3")
    assert code == 0
    reports = {r["name"]: r for r in json.loads(out)}
    # E at n = 3 against the recursion, whatever the order
    assert reports["factor_counts"]["compared"] == 3
    # the pair check holds p(d, 2, 1) = p(d, 1, 2) at n = 3, d = 0 and 1
    assert reports["neighbor_pair_gf"]["compared"] == 2
    # below n = 3 they have no entry to compare; they must not pass
    code, out, _ = run(capsys, "verify", "--order", "1", "--n-max-oracle", "2")
    assert code == 1
    reports = json.loads(out)
    failed = [r["name"] for r in reports if not r["passed"]]
    assert failed == [r["name"] for r in reports if r["compared"] == 0]
    assert failed == ["factor_counts", "ballot_cyclic_factor", "neighbor_pair_gf"]
    assert not any("discrepancy" in r for r in reports)


def test_verify_oracle_length_zero_compares_the_empty_permutation(capsys):
    # b(0, 0) = M(0, 0) = 1, the one entry at length 0
    code, out, _ = run(capsys, "verify", "--order", "3", "--n-max-oracle", "0")
    assert code == 0
    report = {r["name"]: r for r in json.loads(out)}["m_equidistribution"]
    assert (report["order"], report["compared"], report["passed"]) == (0, 1, True)


def test_verify_cap(capsys):
    code, _, err = run(capsys, "verify", "--order", "33")
    assert code == 2 and "force" in err and "the cap 32;" in err
    code, _, err = run(capsys, "dump", "--series", "ballot_gf", "--order", "33")
    assert code == 2 and "force" in err and "the cap 32;" in err
    code, out, _ = run(capsys, "dump", "--series", "ballot_gf", "--order", "32")
    assert code == 0 and "x^32" in out
    code, _, _ = run(capsys, "verify", "--order", "5", "--n-max-oracle", "12")
    assert code == 2
    # --n-max-oracle is a hard ceiling: --force once let the oracle walk 11! words
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--order", "3", "--n-max-oracle", "11", "--force")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and err.count("\n") == 1
    assert "the ceiling 10, got 11" in err and "force" not in err


def test_force_ceilings(tmp_path, capsys):
    # no request runs without bound: past its ceiling even --force gets a
    # one-line error that names the flag and the ceiling
    deep = tmp_path / "deep.txt"
    deep.write_text("180301 1\n")      # index 180301 opens row 601
    for argv, flag, ceiling in [
            (("verify", "--order", str(MAX_FORCED_ORDER["verify"] + 1)), "--order",
             MAX_FORCED_ORDER["verify"]),
            (("dump", "--series", "ballot_gf", "--order", str(MAX_FORCED_ORDER["dump"] + 1)),
             "--order", MAX_FORCED_ORDER["dump"]),
            (("verify", "--order", "2", "--n-max-oracle", "1", "--oeis-bfile", str(deep)),
             "--oeis-bfile row", MAX_FORCED_BFILE_N)]:
        code, out, err = run(capsys, *argv, "--force")
        assert code == 2 and out == "" and err.count("\n") == 1, argv
        assert err.startswith(f"error: {flag} ") and f"the ceiling {ceiling}," in err, argv
        code, _, err = run(capsys, *argv)
        assert code == 2 and "--force" in err and f"the ceiling {ceiling}" in err, argv
    code, out, err = run(capsys, "dump", "--series", "ballot_gf", "--order", "-1")
    assert code == 2 and out == "" and err == "error: --order must be >= 0, got -1\n"


def test_verify_rejects_negative_oracle_length(capsys):
    # a negative bound compares nothing, so it must not report a pass
    code, out, err = run(capsys, "verify", "--order", "3", "--n-max-oracle", "-5")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: --n-max-oracle must be >= 0")


def test_verify_rejects_bfile_depth_above_cap(tmp_path, capsys):
    # a row costs about n^2, so the depth a file reaches is bounded
    deep = tmp_path / "deep.txt"
    deep.write_text(f"{3000 * 2999 // 2 + 1} 1\n")     # the first entry of row 3000
    code, out, err = run(capsys, "verify", "--order", "2", "--n-max-oracle", "1",
                         "--oeis-bfile", str(deep))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: --oeis-bfile row 3000 exceeds the cap")
    deep.write_text("106 1\n")      # the first entry of row 15
    code, out, _ = run(capsys, "verify", "--order", "2", "--n-max-oracle", "1",
                       "--oeis-bfile", str(deep), "--force")
    assert code == 0 and json.loads(out)[-1]["name"] == "eulerian_oeis"
    assert json.loads(out)[-1]["order"] == 15


def test_verify_bfile_fails_before_the_build(tmp_path, capsys, monkeypatch):
    # a missing, garbled or too deep b-file exits 2 before the catalog is built
    def build_catalog(order):
        raise AssertionError("the catalog was built")
    monkeypatch.setattr(counts, "build_catalog", build_catalog)
    bfile = tmp_path / "b.txt"
    for text, force, message in [
            (None, (), "No such file"),
            ("1 1\n2 x\n", (), ":2: invalid literal"),
            ("106 1\n", (), "row 15 exceeds the cap 14; --force lifts it"),
            ("180301 1\n", (), "the ceiling 600"),
            ("180301 1\n", ("--force",), "runs from 0 to the ceiling 600, got 601"),
            (f"{10 ** 4000} 1\n", (), "the ceiling 600"),
            (f"{10 ** 4000} 1\n", ("--force",), "the ceiling 600")]:
        bfile.unlink(missing_ok=True)
        if text is not None:
            bfile.write_text(text)
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "--oeis-bfile", str(bfile), *force)
        assert time.perf_counter() - start < 1, text
        assert code == 2 and out == "" and err.count("\n") == 1, text
        assert err.startswith("error: ") and message in err, text
        # a value far past its ceiling is named by its size, not printed
        assert len(err.replace(str(bfile), "")) < 120, text


def test_flags_are_spelled_in_full(capsys):
    # a prefix of a flag is a usage error, never the flag it abbreviates
    for argv in (("verify", "--n", "10"), ("verify", "--n-max", "5"),
                 ("table", "--st", "b", "--n", "3"),
                 ("oracle", "--stat", "b", "--n", "3", "--form", "csv")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "usage: " in err, argv


def test_verify_injected_mutation(capsys):
    code, out, _ = run(capsys, "verify", "--order", "4", "--n-max-oracle", "3",
                       "--inject-mutation", "ballot_gf")
    assert code == 1
    reports = json.loads(out)
    bad = [r for r in reports if not r["passed"]]
    assert bad and all("discrepancy" in r for r in bad)


def test_verify_with_oeis_bfile(capsys):
    code, out, _ = run(capsys, "verify", "--order", "3", "--n-max-oracle", "3",
                       "--oeis-bfile", str(FIXTURE))
    assert code == 0
    report = json.loads(out)[-1]
    assert report["name"] == "eulerian_oeis"
    assert (report["compared"], report["order"]) == (78, 12)


def test_verify_oeis_mismatch(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 1\n2 7\n")
    code, out, _ = run(capsys, "verify", "--order", "3", "--n-max-oracle", "3",
                       "--oeis-bfile", str(bad))
    assert code == 1
    code, _, err = run(capsys, "verify", "--order", "3", "--n-max-oracle", "3",
                       "--oeis-bfile", str(tmp_path / "missing.txt"))
    assert code == 2
    garbled = tmp_path / "garbled.txt"
    garbled.write_text("1 2 3\n")
    code, _, _ = run(capsys, "verify", "--order", "3", "--n-max-oracle", "3",
                     "--oeis-bfile", str(garbled))
    assert code == 2
    for text in ("0 1\n", "1 1\n-5 3\n"):
        garbled.write_text(text)
        code, out, err = run(capsys, "verify", "--order", "3", "--n-max-oracle", "3",
                             "--oeis-bfile", str(garbled))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.endswith("index must be >= 1\n")
        assert err.count("\n") == 1


def test_dump(capsys):
    code, out, _ = run(capsys, "dump", "--series", "eulerian_gf", "--order", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t^0 x^1 y^0 z^0 : 1/1"
    assert all(" : " in line for line in lines)


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "table.json"
    code, out, _ = run(capsys, "table", "--stat", "A", "--n", "4",
                       "--out", str(target))
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert [e["count"] for e in doc["entries"]] == ["1", "11", "11", "1"]


def test_missing_subcommand_is_usage_error(capsys):
    assert run(capsys, )[0] == 2
    assert run(capsys, "--help")[0] == 0


def test_repeated_main_calls_match_first_calls(capsys):
    # one process serves several requests with one parser and warm caches;
    # each output, a usage error's included, equals that of the same request
    # made first in a new process, apart from the verify timings
    requests = [["table", "--stat", "E", "--n", "9"],
                ["oracle", "--stat", "p", "--n", "7"],
                ["table", "--stat", "nope", "--n", "3"],
                ["verify", "--order", "6", "--n-max-oracle", "5"],
                ["verify", "--order", "9", "--n-max-oracle", "6"]]
    script = ("import contextlib, io, json, sys\n"
              "from ballotperm.cli import main\n"
              "out, err = io.StringIO(), io.StringIO()\n"
              "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
              "    code = main(json.loads(sys.argv[1]))\n"
              "print(json.dumps([code, out.getvalue(), err.getvalue()]))\n")

    def timeless(code, out, err):
        return code, re.sub(r'"elapsed_ms": [0-9.]+', "", out), err

    firsts = []
    for argv in requests:
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(argv)],
                              capture_output=True, text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=str(SRC)))
        firsts.append(timeless(*json.loads(proc.stdout)))
    assert [code for code, _, _ in firsts] == [0, 0, 2, 0, 0]
    assert build_parser() is build_parser()
    for _ in range(2):
        for argv, first in zip(requests, firsts):
            assert timeless(*run(capsys, *argv)) == first, argv
