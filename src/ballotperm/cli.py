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
import contextlib
import functools
import json
import sys
from typing import Callable, Iterable, Iterator, NamedTuple

from . import counts, oracle, series, verify

MAX_ORDER = 32     # no-force cap of verify and dump --order (verify: 0.6 s, 38 MB)
MAX_N = 14         # no-force cap of table --n and of the deepest --oeis-bfile row
MAX_ORACLE_N = oracle.ENUMERATION_CAP
# --force lifts the caps up to these ceilings, each near 30 s or below on a
# 2-vCPU Xeon with Python 3.11: verify --order 40 --n-max-oracle 10 takes
# 1.4-1.7 s and 69 MB, dump --order 44 1.6 s and 151 MB, and a b-file with a
# line in every row up to 600 0.3-0.4 s and 82 MB (each row is built once).
MAX_FORCED_ORDER = {"verify": 40, "dump": 44}
MAX_FORCED_BFILE_N = 600

Entries = list[tuple[tuple[int, ...], int]]
# The index names of a key follow from its length: the partition sum keys p by
# (d, j) at i = 1, the oracle by (d, i, j).
KEY_NAMES = {1: ("d",), 2: ("d", "j"), 3: ("d", "i", "j")}


class Stat(NamedTuple):
    """A kind of count table: `rows(n)` yields the fast route's (key, count) in
    key order, zeros included, for --n up to `ceiling` even with --force;
    `oracle` names the brute-force function, looked up at call time so that a
    wrapper put on the module is the one that runs."""

    rows: Callable[[int], Iterable[tuple[tuple[int, ...], int]]] | None
    ceiling: int
    oracle: str | None


def _keyed(rows, lo: int | None = None) -> Iterator[tuple[tuple[int, ...], int]]:
    """(key, count) in key order: (d,) for row[d] of one row, (d, j) for rows[d][j - lo]."""
    if lo is None:
        return (((d,), v) for d, v in enumerate(rows))
    return (((d, j), v) for d, row in enumerate(rows) for j, v in enumerate(row, lo))


# A and l stop short of n = 1558, where the counts pass Python's default
# 4300-digit limit for int-to-str.  The other ceilings keep a request near 30 s
# or below on a 2-vCPU Xeon with Python 3.11: A_first and U hold triangle row n,
# and U its own row, about 7 s and 129 / 151 MB at 400; E at 100 and p at 115
# take about 3 s and 44 MB and 2 s and 40 MB; b_factor is brute force.
STATS = {
    "A": Stat(lambda n: _keyed(counts._eulerian_row(n)), 1500, None),
    "A_first": Stat(lambda n: _keyed(counts._first_row(n), 1), 400, "oracle_eulerian_first"),
    "U": Stat(lambda n: _keyed(counts._u_row(n), 1), 400, None),
    "E": Stat(lambda n: _keyed(counts._e_rows(n), 2), 100, "oracle_E"),
    "b": Stat(lambda n: _keyed(counts.ballot_desc_row(n)), 250, "oracle_ballot_desc"),
    "l": Stat(lambda n: _keyed(counts._l_row(n)), 1500, "oracle_l"),
    "p": Stat(lambda n: _keyed(counts._p_rows(n), 2), 115, "oracle_p_cyclic"),
    "b_factor": Stat(lambda n: sorted(oracle.oracle_b_factor(n).items()), MAX_ORACLE_N,
                     "oracle_b_factor"),
    "M": Stat(None, MAX_ORACLE_N, "oracle_odd_order_M"),
}


@functools.cache     # built once per process; main reuses it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ballotperm",
        description="Exact tables and identity certification for ballot "
                    "permutations and refined Eulerian numbers.")
    sub = parser.add_subparsers(dest="command", required=True)

    for command, route, help_text in (
            ("table", "rows", "emit a count table (recursion / series routes)"),
            ("oracle", "oracle", "emit a count table by brute-force enumeration")):
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--stat", required=True,
                       choices=[s for s, stat in STATS.items() if getattr(stat, route)])
        p.add_argument("--n", type=int, required=True, help="permutation length")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("verify", help="run the certification suite (JSON report)")
    p.add_argument("--order", type=int, default=10, help="series truncation order")
    p.add_argument("--n-max-oracle", type=int, default=9,
                   help="largest length for brute-force cross checks")
    p.add_argument("--oeis-bfile", metavar="PATH",
                   help="b-file with the Eulerian triangle read by rows")
    p.add_argument("--inject-mutation", metavar="SERIES", choices=counts.CATALOG_SERIES,
                   help="test only: corrupt one coefficient of a catalog series")

    p = sub.add_parser("dump", help="print one catalog series, one monomial per line")
    p.add_argument("--series", required=True, choices=counts.CATALOG_SERIES)
    p.add_argument("--order", type=int, default=8)

    for command, p in sub.choices.items():
        p.allow_abbrev = False      # a flag is spelled in full, never by a prefix
        p.add_argument("--out", metavar="PATH", help="write here instead of stdout")
        if command != "oracle":     # the oracle's ceiling is below every cap
            p.add_argument("--force", action="store_true",
                           help="lift the size cap of --n or --order up to a fixed ceiling")
    sub.choices["oracle"].set_defaults(force=False)

    return parser


def _table_entries(stat: str, n: int) -> Entries:
    """The nonzero entries of one table through its fast route, in key order."""
    return [(key, v) for key, v in STATS[stat].rows(n) if v]


def _write_table(fh, stat: str, n: int, entries: Entries, fmt: str) -> None:
    """Write one table an entry at a time, in the bytes of json.dumps(indent=2)
    or of csv.writer rows (n, *key, count), then a newline."""
    if fmt == "csv":
        for key, count in entries:
            fh.write(f"{n},{','.join(map(str, key))},{count}\n")
        if not entries:
            fh.write("\n")
        return
    fh.write(f'{{\n  "stat": "{stat}",\n  "n": {n},\n  "entries": [')
    sep = "\n"
    for key, count in entries:
        fields = "".join(f'      "{name}": {k},\n' for name, k in zip(KEY_NAMES[len(key)], key))
        fh.write(f'{sep}    {{\n{fields}      "count": "{count}"\n    }}')
        sep = ",\n"
    fh.write("\n  ]\n}\n" if entries else "]\n}\n")


def _open(out: str | None):
    return open(out, "w", encoding="utf-8") if out else contextlib.nullcontext(sys.stdout)


def _check_bounds(flag: str, value: int, low: int, cap: int, ceiling: int, force: bool) -> None:
    """`flag` takes `low` up to `cap`, which --force lifts, and never more than `ceiling`."""
    got = value if abs(value) < 10 ** 20 else f"a {len(str(abs(value)))}-digit number"
    if value < low:
        raise ValueError(f"{flag} must be >= {low}, got {got}")
    if value > cap and ceiling > cap and not force:
        raise ValueError(f"{flag} {got} exceeds the cap {cap}; "
                         f"--force lifts it to the ceiling {ceiling}")
    if value > ceiling:
        raise ValueError(f"{flag} runs from {low} to the ceiling {ceiling}, got {got}")


def _cmd_table(args) -> int:
    """Serve `table` and `oracle`; an error comes before --out is opened."""
    stat = STATS[args.stat]
    ceiling = stat.ceiling if args.command == "table" else MAX_ORACLE_N
    _check_bounds(f"--n of --stat {args.stat}", args.n, 0, MAX_N, ceiling, args.force)
    if args.command == "table":
        entries = _table_entries(args.stat, args.n)
    else:
        entries = sorted(getattr(oracle, stat.oracle)(args.n).items())
    with _open(args.out) as fh:
        _write_table(fh, args.stat, args.n, entries, args.format)
    return 0


def _cmd_verify(args) -> int:
    _check_bounds("--order", args.order, 1, MAX_ORDER, MAX_FORCED_ORDER["verify"], args.force)
    _check_bounds("--n-max-oracle", args.n_max_oracle, 0, MAX_N, MAX_ORACLE_N, args.force)
    bfile = None if args.oeis_bfile is None else verify.read_bfile(args.oeis_bfile)
    if bfile is not None:     # a bad or too deep file fails before the suite runs
        rows = max((n for _, n, _, _ in bfile), default=0)
        _check_bounds("--oeis-bfile row", rows, 0, MAX_N, MAX_FORCED_BFILE_N, args.force)
    reports = verify.run_all(order=args.order, n_max_oracle=args.n_max_oracle,
                             mutation=args.inject_mutation)
    if bfile is not None:
        reports.append(verify.check_oeis_eulerian(bfile))
    with _open(args.out) as fh:
        fh.write(json.dumps([r.to_json_dict() for r in reports], indent=2) + "\n")
    return 0 if all(r.passed for r in reports) else 1


def _cmd_dump(args) -> int:
    _check_bounds("--order", args.order, 0, MAX_ORDER, MAX_FORCED_ORDER["dump"], args.force)
    cat = counts.build_catalog(args.order)
    with _open(args.out) as fh:
        fh.write(series.dump(getattr(cat, args.series)) + "\n")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handler = {"table": _cmd_table, "oracle": _cmd_table,
               "verify": _cmd_verify, "dump": _cmd_dump}[args.command]
    try:
        return handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
