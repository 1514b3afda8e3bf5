"""Write BENCH_<label>.json from the perfbench run records of a parent and a change.

Each untraced perfbench run (`python3 perfbench/run.py --workload W --seed S
--seconds T --trace 0`) writes .bench_build/perfbench/record-W-seedS-trace0.json,
and the next run of the same workload and seed overwrites it, so copy each
record aside after its run.  Then, from the repository root:

    python3 tools/bench_json.py --label mychange --parent RUNS/parent --change RUNS/change

A path is a record file or a directory searched for record-*.json.  For each
workload, side and end-to-end metric the output holds the median, the
quartiles (as perfbench/run.py prints them) and every run's value, in the
order the runs started; with them the seeds, the run length, the failures and
the source sha256, git revision and host that each record's provenance names.
For each workload run on both sides and each end-to-end metric of
BENCHMARK.json, "verdict" pairs the i-th parent run with the i-th change run
of the same seed and gives the pairs, how many the change wins and loses
(ties count for neither; "better" is the metric's direction), the parent's
q3 - q1 and the median gap, positive when the change's median is better.
Traced records (--trace 1, record-W-seedS-trace1.json) carry per-layer figures
instead; they are listed apart, under "traced", one entry per record with its
seed and metrics as perfbench wrote them.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _records(paths: list[str]) -> list[dict]:
    files = []
    for path in map(Path, paths):
        files += sorted(path.rglob("record-*.json")) if path.is_dir() else [path]
    records = [json.loads(f.read_text(encoding="utf-8")) for f in files]
    return sorted(records, key=lambda r: r["provenance"]["started_utc"])


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def _unique(values) -> list:
    out = []
    for v in values:
        if v not in out:
            out.append(v)
    return out


def summarize(side: list[dict]) -> dict:
    """Per workload: the seeds, run lengths, failures and metric spreads of
    one side's untraced runs."""
    side = [r for r in side if not r["provenance"]["trace"]]
    out = {}
    for name in _unique(r["provenance"]["workload"]["name"] for r in side):
        runs = [r for r in side if r["provenance"]["workload"]["name"] == name]
        metrics = {}
        for metric, first in runs[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in runs]
            metrics[metric] = {"unit": first["unit"], **_spread(values)}
        out[name] = {"seeds": [r["provenance"]["seed"] for r in runs],
                     "seconds": _unique(r["provenance"]["seconds"] for r in runs),
                     "attempted": sum(r["attempted"] for r in runs),
                     "failed": sum(r["failed"] for r in runs),
                     "metrics": metrics}
    return out


def _seed_pairs(parent: dict, change: dict, metric: str) -> list[list]:
    """[seed, parent value, change value] of the i-th run of each seed on both sides."""
    def by_seed(side):
        runs = {}
        for seed, value in zip(side["seeds"], side["metrics"][metric]["runs"]):
            runs.setdefault(seed, []).append(value)
        return runs

    theirs = by_seed(change)
    return [[seed, a, b] for seed, ours in by_seed(parent).items()
            for a, b in zip(ours, theirs.get(seed, []))]


def verdict(parent: dict, change: dict, metric: str, better: str) -> dict:
    """The change against the parent on one metric, run by run and in the median."""
    def gain(ours, theirs):
        return ours - theirs if better == "lower" else theirs - ours

    pairs = _seed_pairs(parent, change, metric)
    gains = [gain(a, b) for _, a, b in pairs]
    p, c = parent["metrics"][metric], change["metrics"][metric]
    return {"better": better, "pairs": pairs, "wins": sum(g > 0 for g in gains),
            "losses": sum(g < 0 for g in gains), "parent_iqr": p["q3"] - p["q1"],
            "median_gap": gain(p["median"], c["median"])}


def bench_doc(label: str, sides: dict[str, list[dict]], end_to_end: list[dict]) -> dict:
    workloads: dict[str, dict] = {}
    traced: dict[str, dict] = {}
    for side, records in sides.items():
        for name, summary in summarize(records).items():
            workloads.setdefault(name, {})[side] = summary
        for r in records:
            if r["provenance"]["trace"]:
                name = r["provenance"]["workload"]["name"]
                traced.setdefault(name, {}).setdefault(side, []).append(
                    {"seed": r["provenance"]["seed"], "metrics": r["metrics"]})
    for sides_of in workloads.values():
        if {"parent", "change"} <= sides_of.keys():
            parent, change = sides_of["parent"], sides_of["change"]
            sides_of["verdict"] = {
                m["name"]: verdict(parent, change, m["name"], m["better"]) for m in end_to_end
                if m["name"] in parent["metrics"] and m["name"] in change["metrics"]}
    provenance = {side: {key: _unique(r["provenance"][key] for r in records)
                         for key in ("source_sha256", "git_rev")}
                  for side, records in sides.items()}
    host = _unique({key: r["provenance"][key] for key in ("python", "nproc", "cpu")}
                   for records in sides.values() for r in records)
    return {"label": label, "provenance": provenance, "host": host, "workloads": workloads,
            "traced": traced}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--parent", nargs="+", required=True, metavar="PATH")
    parser.add_argument("--change", nargs="+", required=True, metavar="PATH")
    parser.add_argument("--out", help="output file (default BENCH_<label>.json)")
    args = parser.parse_args(argv)
    end_to_end = json.loads(BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]
    sides = {"parent": _records(args.parent), "change": _records(args.change)}
    for side, records in sides.items():
        if not summarize(records):
            print(f"error: no untraced perfbench record under --{side}", file=sys.stderr)
            return 2
    out = Path(args.out or f"BENCH_{args.label}.json")
    doc = bench_doc(args.label, sides, end_to_end)
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
