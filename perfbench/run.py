"""ballotperm benchmark: real command line requests, each pass in a fresh
interpreter, every output checked; a separate traced run splits the time
by layer.

    python3 perfbench/run.py --workload certify_series --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports ballotperm from ./src and works
in .bench_build/perfbench/.  Each pass sends the workload's requests, one
after another, to ballotperm.cli.main in a new child process, so memo tables
and catalog caches start cold.  Untraced passes repeat until --seconds is
spent.  With --trace 1 the functions at each layer boundary are wrapped for
two traced passes, alternating with untraced ones.

Every metric is printed by name with its unit; the last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}.  A record with
provenance, per-pass figures and (traced) spans goes to
.bench_build/perfbench/record-<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from datetime import datetime, timezone

import gate
from child import ORACLE_TABLES, SERIES_KERNELS, VERIFY_CHECKS

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(".bench_build", "perfbench")

MIN_PASSES = 3          # untraced passes per run, even if --seconds is short
SETUP_SAMPLES = 2       # set-up-only children after each untraced pass
TRACED_PASSES = 2       # traced passes, so exact counters can be compared
RUN_LIMIT = 170         # seconds; a run that is not done by then gives no result

# table_session: a fixed menu, shuffled anew for each pass; (command, stat, n)
MENU = [("table", "A", 60), ("table", "A_first", 40), ("table", "U", 40),
        ("table", "E", 24), ("table", "p", 24), ("table", "l", 41), ("table", "b", 14),
        ("oracle", "b", 9), ("oracle", "A_first", 9), ("oracle", "E", 9)]


def _session(seed: int, k: int) -> list[dict]:
    """Requests of pass k.  Peak memory depends on the request order, so each
    pass takes its own order and the run's median covers several."""
    menu = list(MENU)
    random.Random(f"{seed}:{k}").shuffle(menu)
    return [{"cmd": cmd, "stat": stat, "n": n} for cmd, stat, n in menu]


WORKLOADS = {
    "certify_series": (
        "verify at the order cap 14: the series catalog build is about 80% of the time, "
        "the oracle runs only to n = 7",
        lambda seed, k: [{"cmd": "verify", "order": 14, "n_max_oracle": 7}]),
    "certify_oracle": (
        "verify at order 10 with brute force to n = 9: the oracle tables are about 95% "
        "of the time, the catalog a small share",
        lambda seed, k: [{"cmd": "verify", "order": 10, "n_max_oracle": 9}]),
    "table_session": (
        "one process serving a seeded shuffle of table and oracle requests with warm "
        "memo caches: counts recursions at large n, oracle one table at a time",
        _session),
}

# gate self-test: a clean and a corrupted verify, and a table that is then
# corrupted by hand; the gate must pass the clean ones and fail the rest
SELFTEST = [{"cmd": "verify", "order": 6, "n_max_oracle": 5},
            {"cmd": "verify", "order": 6, "n_max_oracle": 5,
             "mutation": "first_letter_gf"},
            {"cmd": "table", "stat": "b", "n": 14}]


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def describe(req: dict) -> str:
    if req["cmd"] == "verify":
        return f"verify --order {req['order']} --n-max-oracle {req['n_max_oracle']}"
    return f"{req['cmd']} --stat {req['stat']} --n {req['n']}"


def argv(req: dict, out: str) -> list[str]:
    if req["cmd"] == "verify":
        args = ["verify", "--order", str(req["order"]),
                "--n-max-oracle", str(req["n_max_oracle"])]
        if "mutation" in req:
            args += ["--inject-mutation", req["mutation"]]
    else:
        args = [req["cmd"], "--stat", req["stat"], "--n", str(req["n"]), "--format", "json"]
        if req["cmd"] == "table":
            args.append("--force")  # lifts the n <= 14 cap of the table command
    return args + ["--out", out]


def check(req: dict, rc: int | None, text: str, pinned: dict) -> str | None:
    if req["cmd"] == "verify":
        return gate.check_verify(rc, text, req["order"], req["n_max_oracle"])
    key = f"{req['cmd']} {req['stat']} {req['n']}"
    if key not in pinned:
        return f"no pinned digest for {key}"
    return gate.check_table(rc, text, req["stat"], req["n"], pinned[key])


def _loads(text: str, default):
    try:
        return json.loads(text)
    except ValueError:
        return default


def _bump_last_count(text: str) -> str:
    doc = _loads(text, {})
    try:
        doc["entries"][-1]["count"] = str(int(doc["entries"][-1]["count"]) + 1)
    except (KeyError, IndexError, TypeError, ValueError):
        return ""
    return json.dumps(doc)


class Runner:
    """Starts child processes in one scratch directory and checks their outputs."""

    def __init__(self, tmp: str, deadline: float):
        self.tmp = tmp
        self.deadline = deadline
        with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
            self.pinned = json.load(fh)

    def child(self, mode: str, argvs=(), trace: bool = False) -> dict:
        spec = os.path.join(self.tmp, "spec.json")
        result = os.path.join(self.tmp, "result.json")
        with open(spec, "w", encoding="utf-8") as fh:
            json.dump({"mode": mode, "requests": list(argvs), "trace": trace}, fh)
        try:
            proc = subprocess.run([sys.executable, CHILD, spec, result], capture_output=True,
                                  text=True, timeout=self.deadline - time.monotonic())
        except subprocess.TimeoutExpired:
            raise BenchError(f"the run took longer than {RUN_LIMIT} s") from None
        if proc.returncode != 0:
            raise BenchError(f"{mode} child exited with {proc.returncode}: "
                             f"{proc.stderr.strip()[-400:]}")
        with open(result, encoding="utf-8") as fh:
            return json.load(fh)

    def outputs(self, requests: list[dict], trace: bool = False) -> tuple[dict, list[str]]:
        """Run one pass; return the child's result and each output's text."""
        paths = [os.path.join(self.tmp, f"out{i}") for i in range(len(requests))]
        res = self.child("pass", [argv(r, p) for r, p in zip(requests, paths)], trace)
        texts = []
        for path in paths:
            try:
                with open(path, encoding="utf-8") as fh:
                    texts.append(fh.read())
                os.remove(path)
            except FileNotFoundError:
                texts.append("")
        return res, texts

    def run_pass(self, requests: list[dict], trace: bool = False) -> dict:
        res, texts = self.outputs(requests, trace)
        res["problems"] = [
            f"{describe(req)}: {reason}"
            for req, r, text in zip(requests, res["results"], texts)
            if (reason := r["error"] or check(req, r["rc"], text, self.pinned))]
        res["output_bytes"] = sum(len(t.encode()) for t in texts)
        res["requests"] = [describe(r) for r in requests]
        return res

    def selftest(self) -> list[str]:
        """Show that the gate can fail; returns the cases it judged wrongly.
        As the first child of a run, it also fills the bytecode cache."""
        res, (clean, mutated, table) = self.outputs(SELFTEST)
        rcs = [r["rc"] for r in res["results"]]
        order, nmo = SELFTEST[0]["order"], SELFTEST[0]["n_max_oracle"]
        checks = _loads(clean, [])
        pinned = self.pinned[f"table b {SELFTEST[2]['n']}"]
        cases = [
            ("clean verify", True, gate.check_verify(rcs[0], clean, order, nmo)),
            ("verify with --inject-mutation", False,
             gate.check_verify(rcs[1], mutated, order, nmo)),
            ("verify report missing a check", False,
             gate.check_verify(0, json.dumps(checks[1:] if isinstance(checks, list)
                                             else []), order, nmo)),
            ("verify report at another order", False,
             gate.check_verify(0, clean, order + 1, nmo)),
            ("clean table", True, gate.check_table(rcs[2], table, "b", 14, pinned)),
            ("truncated table", False,
             gate.check_table(rcs[2], table[:len(table) // 2], "b", 14, pinned)),
            ("table with one count bumped", False,
             gate.check_table(rcs[2], _bump_last_count(table), "b", 14, pinned)),
        ]
        return [f"gate self-test: {name} was judged {'failed' if reason else 'passed'}"
                for name, should_pass, reason in cases if (reason is None) != should_pass]


def untraced_run(runner: Runner, requests_for, seconds: float):
    """Passes until --seconds is spent: a pass starts when it would end, on
    average, no more than half a pass late.  The machine's speed drifts over
    tens of seconds, so set-up is sampled between passes, not all at once."""
    setups: list[float] = []
    passes: list[dict] = []
    start = time.perf_counter()
    while True:
        passes.append(runner.run_pass(requests_for(len(passes))))
        setups += [runner.child("setup")["setup_s"] for _ in range(SETUP_SAMPLES)]
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + elapsed / len(passes) / 2 > seconds:
            break
    walls = [p["wall_s"] for p in passes]
    setups += [p["setup_s"] for p in passes]
    rss = [p["peak_rss_mb"] for p in passes]
    metrics = {"wall_s": (statistics.median(walls), "s"),
               "setup_s": (statistics.median(setups), "s"),
               # the run's peak: in table_session it depends on the request order
               "peak_rss_mb": (max(rss), "MB")}
    samples = {"wall_s": walls, "setup_s": setups, "peak_rss_mb": rss}
    return metrics, passes, samples


LAYERS = ("cli", "counts", "series", "oracle", "verify")
KERNELS = ("mul",) + SERIES_KERNELS
TABLE_STATS = ("A", "A_first", "U", "E", "p", "l", "b")


def layer_split(spans: list, wall: float) -> dict:
    """Per-layer figures of one traced pass.  Shares are % of the pass's wall
    time.  Route entry points (the catalog build, each table) are inclusive;
    every other span is self time, and the layer shares add up self times."""
    own: dict[str, float] = defaultdict(float)
    incl: dict[str, float] = defaultdict(float)
    for _id, _parent, _req, name, _arg, seconds, self_seconds in spans:
        own[name] += self_seconds
        incl[name] += seconds
    pct = 100 / wall
    out = {"cli.main_self_s": (own["cli.main"], "s"),
           "series.mul_self_s": (own["series.mul"], "s"),
           "counts.build_catalog_pct": (incl["counts.build_catalog"] * pct, "%")}
    out.update({f"counts.table.{s}_pct": (incl[f"counts.table.{s}"] * pct, "%")
                for s in TABLE_STATS})
    out.update({f"series.{k}_self_pct": (own[f"series.{k}"] * pct, "%") for k in KERNELS})
    out.update({f"oracle.{t}_pct": (own[f"oracle.{t}"] * pct, "%") for t in ORACLE_TABLES})
    out.update({f"verify.{c}_self_pct": (own[f"verify.{c}"] * pct, "%")
                for c in VERIFY_CHECKS})
    for layer in LAYERS:
        total = sum(v for k, v in own.items() if k.split(".")[0] == layer)
        out[f"layer.{layer}_self_pct"] = (total * pct, "%")
    return out


def traced_run(runner: Runner, requests: list[dict]):
    untraced, traced = [], []
    for _ in range(TRACED_PASSES):
        untraced.append(runner.run_pass(requests))
        traced.append(runner.run_pass(requests, trace=True))
    walls = [p["wall_s"] for p in traced]
    splits = [layer_split(p["spans"], p["wall_s"]) for p in traced]
    metrics = {"trace.wall_s": (statistics.median(walls), "s"),
               "trace.overhead_s": (statistics.median(walls) - statistics.median(
                   p["wall_s"] for p in untraced), "s")}
    for name, (_, unit) in splits[0].items():
        metrics[name] = (statistics.median(s[name][0] for s in splits), unit)
    permstat = runner.child("permstat")["permstat"]
    metrics.update({k: (v, "ns") for k, v in permstat.items()})
    metrics.update({k: (v, "count") for k, v in traced[0]["counters"].items()})
    metrics["cli.output_bytes"] = (traced[0]["output_bytes"], "bytes")
    problems = [f"exact counter {k} read {traced[0]['counters'][k]} then {v}"
                for k, v in traced[1]["counters"].items() if traced[0]["counters"][k] != v]
    return metrics, untraced + traced, problems


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_rev() -> str | None:
    if not os.path.exists(".git"):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join("src", "ballotperm"))):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(base, name)
            digest.update(path.encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def provenance(args, requests: list[dict]) -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": _cpu_model(), "git_rev": _git_rev(), "source_sha256": _source_sha256(),
            "started_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "workload": {"name": args.workload, "why": WORKLOADS[args.workload][0],
                         "requests": [describe(r) for r in requests]}}


def main(argv_: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv_)
    if not os.path.isfile(os.path.join("src", "ballotperm", "cli.py")):
        print("error: src/ballotperm not found; run from the root of a ballotperm "
              "checkout", file=sys.stderr)
        return 2

    make = WORKLOADS[args.workload][1]
    requests = make(args.seed, 0)
    record = {"provenance": provenance(args, requests)}
    os.makedirs(WORK, exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            runner = Runner(tmp, time.monotonic() + RUN_LIMIT)
            problems = runner.selftest()
            if args.trace:
                metrics, passes, more = traced_run(runner, requests)
                problems += more
            else:
                metrics, passes, samples = untraced_run(
                    runner, lambda k: make(args.seed, k), args.seconds)
                record["samples"] = samples
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failed = [p for ps in passes for p in ps["problems"]]
    attempted = len(requests) * len(passes)
    problems += failed
    record.update(metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                  attempted=attempted, failed=len(failed), problems=problems,
                  passes=[{k: v for k, v in p.items() if k != "spans"} for p in passes])
    if args.trace:
        record["spans"] = {"fields": ["id", "parent", "request", "name", "arg",
                                      "seconds", "self_seconds"],
                           "first_traced_pass": next(p["spans"] for p in passes
                                                     if "spans" in p)}
    path = os.path.join(WORK, f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    prov = record["provenance"]
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"python {prov['python']}  nproc {prov['nproc']}  cpu {prov['cpu']}  "
          f"rev {prov['git_rev'] or '-'}  src {prov['source_sha256'][:12]}")
    if not args.trace:
        for name, values in samples.items():
            q1, q2, q3 = statistics.quantiles(values, n=4)
            print(f"{name:<44} {q2:12.6g} {metrics[name][1]:<6} "
                  f"q1 {q1:.6g}  q3 {q3:.6g}  n {len(values)}")
    else:
        for name, (value, unit) in metrics.items():
            print(f"{name:<44} {value:>14.6g} {unit}" if isinstance(value, float)
                  else f"{name:<44} {value:>14} {unit}")
    print(f"failed_ratio {len(failed)}/{attempted}")
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"record {path}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": len(failed),
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
