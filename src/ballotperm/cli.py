"""Batch command line front end.

Subcommands:
  table    emit a count table for one statistic at a fixed length, computed
           through the recursion / closed-form routes
  oracle   emit the same kind of table by exhaustive enumeration
  verify   run the certification suite, optionally against an OEIS b-file
  dump     print the monomials of one catalog series

Counts are always rendered as exact decimal strings.  Exit codes: 0 success
or all checks passed, 1 a verification mismatch or a check that compared
nothing, 2 usage or domain errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import counts, oracle, series, verify

MAX_ORDER = 14
MAX_ORACLE_N = oracle.ENUMERATION_CAP

# The largest --n that `table` accepts even with --force, so that no request
# runs without bound.  A and l stop short of n = 1558, where the counts pass
# Python's default 4300-digit limit for int-to-str; A_first and U at 300 take
# about 4 s but 300 MB (memory grows as n^3); E, p and b take 20 to 30 s at
# the ceiling on a 2-vCPU Xeon with Python 3.11; b_factor is brute force.
FORCE_CEILING = {"A": 1500, "A_first": 300, "U": 300, "E": 100, "b": 250, "l": 1500,
                 "p": 115, "b_factor": MAX_ORACLE_N}
TABLE_STATS = tuple(FORCE_CEILING)
# Function names, looked up in `oracle` at call time so that a wrapper put on
# the module (a tracer, a test double) is the one that runs.
ORACLE_STATS = {"A_first": "oracle_eulerian_first", "b": "oracle_ballot_desc",
                "M": "oracle_odd_order_M", "E": "oracle_E", "b_factor": "oracle_b_factor",
                "p": "oracle_p_cyclic", "l": "oracle_l"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ballotperm",
        description="Exact tables and identity certification for ballot "
                    "permutations and refined Eulerian numbers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="emit a count table (recursion / series routes)")
    p.add_argument("--stat", required=True, choices=TABLE_STATS)
    p.add_argument("--n", type=int, required=True, help="permutation length")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", metavar="PATH", help="write here instead of stdout")
    p.add_argument("--force", action="store_true", help="lift the size caps")

    p = sub.add_parser("oracle", help="emit a count table by brute-force enumeration")
    p.add_argument("--stat", required=True, choices=ORACLE_STATS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", metavar="PATH")
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("verify", help="run the certification suite (JSON report)")
    p.add_argument("--order", type=int, default=10, help="series truncation order")
    p.add_argument("--n-max-oracle", type=int, default=9,
                   help="largest length for brute-force cross checks")
    p.add_argument("--n", type=int, default=10,
                   help="triangle depth for the --oeis-bfile comparison")
    p.add_argument("--oeis-bfile", metavar="PATH",
                   help="b-file with the Eulerian triangle read by rows")
    p.add_argument("--inject-mutation", metavar="SERIES", choices=counts.CATALOG_SERIES,
                   help="test only: corrupt one coefficient of a catalog series")
    p.add_argument("--out", metavar="PATH")
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("dump", help="print one catalog series, one monomial per line")
    p.add_argument("--series", required=True, choices=counts.CATALOG_SERIES)
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--out", metavar="PATH")
    p.add_argument("--force", action="store_true")

    return parser


def _table_entries(stat: str, n: int, force: bool) -> list[tuple[tuple[int, ...], int]]:
    if stat == "A":
        return [((d,), counts.eulerian(n, d)) for d in range(max(1, n))
                if counts.eulerian(n, d)]
    if stat == "A_first":
        return [((d, j), v) for d in range(max(0, n)) for j in range(1, n + 1)
                if (v := counts.eulerian_first(n, d, j))]
    if stat == "U":
        return [((d, j), v) for d in range(n + 1) for j in range(1, n + 1)
                if (v := counts.u_count(n, d, j))]
    if stat == "E":
        return [((d, j), v) for d in range(max(0, n)) for j in range(2, n)
                if (v := counts.e_count_rec(n, d, j))]
    if stat == "b":
        table = counts.ballot_desc_table(n)
        return [((d,), v) for (m, d), v in table.sorted_items() if m == n]
    if stat == "l":
        return [((d,), v) for d in range((n - 1) // 2 + 1)
                if (v := counts.l_count(n, d))]
    if stat == "p":
        return [((d, j), v) for d in range(max(0, n)) for j in range(2, n)
                if (v := counts.p_count_partition(n, d, j))]
    if stat == "b_factor":
        return oracle.oracle_b_factor(n, force=force).sorted_items()
    raise ValueError(f"unknown stat {stat!r}")


def _entry_obj(key: tuple[int, ...], count: int) -> dict:
    if len(key) == 1:
        return {"d": key[0], "count": str(count)}
    if len(key) == 2:
        return {"d": key[0], "j": key[1], "count": str(count)}
    return {"d": key[0], "i": key[1], "j": key[2], "count": str(count)}


def _render_table(stat: str, n: int, entries, fmt: str) -> str:
    entries = sorted(entries)
    if fmt == "json":
        doc = {"stat": stat, "n": n, "entries": [_entry_obj(k, v) for k, v in entries]}
        return json.dumps(doc, indent=2)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for key, v in entries:
        writer.writerow((n, *key, str(v)))
    return buf.getvalue().rstrip("\n")


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_table(args) -> int:
    if args.n < 0:
        raise ValueError(f"--n must be nonnegative, got {args.n}")
    if args.n > MAX_ORDER and not args.force:
        raise ValueError(f"--n {args.n} exceeds the cap {MAX_ORDER}; use --force")
    if args.n > FORCE_CEILING[args.stat]:
        raise ValueError(f"--n {args.n} exceeds the ceiling "
                         f"{FORCE_CEILING[args.stat]} for --stat {args.stat}")
    entries = _table_entries(args.stat, args.n, args.force)
    _write(_render_table(args.stat, args.n, entries, args.format), args.out)
    return 0


def _cmd_oracle(args) -> int:
    table = getattr(oracle, ORACLE_STATS[args.stat])(args.n, force=args.force)
    _write(_render_table(args.stat, args.n, table.sorted_items(), args.format), args.out)
    return 0


def _cmd_verify(args) -> int:
    if args.order < 1:
        raise ValueError(f"--order must be >= 1, got {args.order}")
    if args.order > MAX_ORDER and not args.force:
        raise ValueError(f"--order {args.order} exceeds the cap {MAX_ORDER}; use --force")
    if args.n_max_oracle < 0:
        raise ValueError(f"--n-max-oracle must be >= 0, got {args.n_max_oracle}")
    if args.n < 1:
        raise ValueError(f"--n must be >= 1, got {args.n}")
    if args.n > MAX_ORDER and not args.force:
        raise ValueError(f"--n {args.n} exceeds the cap {MAX_ORDER}; use --force")
    if args.n_max_oracle > MAX_ORACLE_N and not args.force:
        raise ValueError(f"--n-max-oracle {args.n_max_oracle} exceeds the cap "
                         f"{MAX_ORACLE_N}; use --force")
    reports = verify.run_all(order=args.order, n_max_oracle=args.n_max_oracle,
                             mutation=args.inject_mutation, force=args.force)
    if args.oeis_bfile:
        reports.append(verify.check_oeis_eulerian(args.oeis_bfile, n_max=args.n))
    _write(json.dumps([r.to_json_dict() for r in reports], indent=2), args.out)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_dump(args) -> int:
    if args.order > MAX_ORDER and not args.force:
        raise ValueError(f"--order {args.order} exceeds the cap {MAX_ORDER}; use --force")
    cat = counts.build_catalog(args.order)
    _write(series.dump(getattr(cat, args.series)), args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handler = {"table": _cmd_table, "oracle": _cmd_oracle,
               "verify": _cmd_verify, "dump": _cmd_dump}[args.command]
    try:
        return handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
