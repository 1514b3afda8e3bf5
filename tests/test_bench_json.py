import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_json.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_json", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(path: Path, workload: str, seed: int, started: str, wall: float,
            trace: int = 0, rev: str = "abc", failed: int = 0, rss: float = 20.5) -> None:
    provenance = {"python": "3.11.7", "nproc": 2, "cpu": "Test CPU", "git_rev": rev,
                  "source_sha256": "sha-" + rev, "started_utc": started, "seed": seed,
                  "seconds": 40.0, "trace": trace,
                  "workload": {"name": workload, "why": "", "requests": []}}
    metrics = {"wall_s": {"value": wall, "unit": "s"},
               "peak_rss_mb": {"value": rss, "unit": "MB"}}
    path.mkdir(parents=True, exist_ok=True)
    (path / f"record-{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(
        {"provenance": provenance, "metrics": metrics, "attempted": 10, "failed": failed}))


def test_writes_spreads_seeds_and_provenance(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    # started out of seed order: runs are listed in the order they started
    for k, (seed, wall) in enumerate([(3, 1.0), (1, 3.0), (2, 2.0), (4, 5.0)]):
        _record(parent / f"run{k}", "table_session", seed, f"2026-01-01T00:0{k}:00", wall)
    _record(parent / "traced", "table_session", 1, "2026-01-01T00:09:00", 9.0, trace=1)
    _record(change / "a", "table_session", 1, "2026-01-01T01:00:00", 0.4, rev="def")
    _record(change / "b", "certify_oracle", 1, "2026-01-01T01:01:00", 0.8, rev="def",
            failed=1)
    out = tmp_path / "BENCH_x.json"
    tool = _load_tool()
    assert tool.main(["--label", "x", "--parent", str(parent),
                      "--change", str(change / "a"), str(change / "b" / "record-certify_oracle-"
                                                         "seed1-trace0.json"),
                      "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["label"] == "x"
    assert doc["provenance"] == {"parent": {"source_sha256": ["sha-abc"], "git_rev": ["abc"]},
                                 "change": {"source_sha256": ["sha-def"], "git_rev": ["def"]}}
    assert doc["host"] == [{"python": "3.11.7", "nproc": 2, "cpu": "Test CPU"}]
    ts = doc["workloads"]["table_session"]
    assert ts["parent"]["seeds"] == [3, 1, 2, 4]      # the traced record is skipped
    assert ts["parent"]["seconds"] == [40.0]
    assert ts["parent"]["attempted"] == 40 and ts["parent"]["failed"] == 0
    wall = ts["parent"]["metrics"]["wall_s"]
    # perfbench's quartiles: statistics.quantiles(n=4), exclusive method
    assert wall == {"unit": "s", "median": 2.5, "q1": 1.25, "q3": 4.5,
                    "runs": [1.0, 3.0, 2.0, 5.0]}
    assert ts["change"]["metrics"]["wall_s"] == {"unit": "s", "median": 0.4, "q1": 0.4,
                                                 "q3": 0.4, "runs": [0.4]}
    assert ts["change"]["metrics"]["peak_rss_mb"]["unit"] == "MB"
    assert "parent" not in doc["workloads"]["certify_oracle"]
    assert doc["workloads"]["certify_oracle"]["change"]["failed"] == 1
    # traced records are listed apart, as perfbench wrote their metrics
    assert doc["traced"] == {"table_session": {"parent": [
        {"seed": 1, "metrics": {"wall_s": {"value": 9.0, "unit": "s"},
                                "peak_rss_mb": {"value": 20.5, "unit": "MB"}}}]}}


def test_a_side_without_records_is_an_error(tmp_path, capsys):
    _record(tmp_path / "parent", "table_session", 1, "2026-01-01T00:00:00", 0.5)
    # a traced record alone has no end-to-end figures
    _record(tmp_path / "change", "table_session", 1, "2026-01-01T00:01:00", 0.5, trace=1)
    tool = _load_tool()
    assert tool.main(["--label", "x", "--parent", str(tmp_path / "parent"),
                      "--change", str(tmp_path / "change"),
                      "--out", str(tmp_path / "out.json")]) == 2
    assert "--change" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_verdict_pairs_the_runs_of_each_seed(tmp_path):
    # every end-to-end metric of BENCHMARK.json is better lower; setup_s is in
    # no record, so it gets no verdict
    parent_runs = [(1, 1.0, 20.0), (2, 2.0, 20.0), (1, 3.0, 20.0), (3, 4.0, 20.0), (4, 9.0, 20.0)]
    change_runs = [(2, 1.5, 21.0), (1, 1.0, 20.0), (3, 5.0, 19.0), (1, 2.0, 20.0)]
    for hour, (side, runs) in enumerate((("parent", parent_runs), ("change", change_runs))):
        for k, (seed, wall, rss) in enumerate(runs):
            _record(tmp_path / side / f"run{k}", "table_session", seed,
                    f"2026-01-01T0{hour}:0{k}:00", wall, rss=rss)
    # a workload run on one side only has no verdict
    _record(tmp_path / "change" / "other", "certify_oracle", 1, "2026-01-01T09:00:00", 0.8)
    out = tmp_path / "BENCH_x.json"
    tool = _load_tool()
    assert tool.main(["--label", "x", "--parent", str(tmp_path / "parent"),
                      "--change", str(tmp_path / "change"), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert "verdict" not in doc["workloads"]["certify_oracle"]
    ts = doc["workloads"]["table_session"]
    verdict = ts["verdict"]
    assert set(verdict) == {"wall_s", "peak_rss_mb"}
    # the i-th run of a seed against the i-th: seed 1 ties, then wins; seed 4
    # has no change run; parent quartiles of 1, 2, 3, 4, 9 are 1.5 and 6.5,
    # the change median of 1.5, 1, 5, 2 is 1.75
    assert verdict["wall_s"] == {
        "better": "lower", "pairs": [[1, 1.0, 1.0], [1, 3.0, 2.0], [2, 2.0, 1.5], [3, 4.0, 5.0]],
        "wins": 2, "losses": 1, "parent_iqr": 5.0, "median_gap": 1.25}
    rss = verdict["peak_rss_mb"]
    assert (rss["better"], rss["wins"], rss["losses"]) == ("lower", 1, 1)
    # were more better, the same pairs would swap wins and losses, and the
    # median gap would be change minus parent
    wall = tool.verdict(ts["parent"], ts["change"], "wall_s", "higher")
    assert (wall["wins"], wall["losses"], wall["median_gap"]) == (1, 2, -1.25)
