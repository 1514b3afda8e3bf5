"""The benchmark's tracer (perfbench/child.py) wraps module attributes of
ballotperm at the layer boundaries; a refactor that calls around them would
silently empty the traced per-layer split."""

import importlib.util
from pathlib import Path

from ballotperm import cli, counts, series

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def _load_child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_pass_sees_table_and_oracle_spans(capsys):
    child = _load_child()
    tracer, original = child.Tracer(), cli._table_entries
    child.instrument(tracer)
    try:
        assert cli.main(["table", "--stat", "A", "--n", "5"]) == 0
        assert cli.main(["oracle", "--stat", "b", "--n", "4"]) == 0
    finally:
        tracer.restore()
    capsys.readouterr()
    spans = {name: (span_id, parent) for span_id, parent, _, name, *_ in tracer.spans}
    mains = {span_id for span_id, _, _, name, *_ in tracer.spans if name == "cli.main"}
    assert len(mains) == 2
    # each route runs inside its own request's cli.main span
    assert spans["counts.table.A"][1] in mains
    assert spans["oracle.ballot_desc"][1] in mains
    assert spans["counts.table.A"][1] != spans["oracle.ballot_desc"][1]
    assert cli._table_entries is original


def test_traced_verify_sees_every_check_and_its_oracle_tables(capsys):
    # run_all must look each check up on the module at call time, and the
    # oracle functions must take n as their first argument
    child = _load_child()
    tracer = child.Tracer()
    child.instrument(tracer)
    try:
        assert cli.main(["verify", "--order", "4", "--n-max-oracle", "4"]) == 0
    finally:
        tracer.restore()
    capsys.readouterr()
    (main,) = [span_id for span_id, _, _, name, *_ in tracer.spans if name == "cli.main"]
    checks = {span_id: name for span_id, parent, _, name, *_ in tracer.spans
              if name.startswith("verify.") and parent == main}
    assert sorted(checks.values()) == sorted(f"verify.{c}" for c in child.VERIFY_CHECKS)
    oracle_calls = {(name, n) for _, parent, _, name, n, *_ in tracer.spans
                    if name.startswith("oracle.") and parent in checks}
    assert {name for name, _ in oracle_calls} == {
        "oracle.ballot_desc", "oracle.odd_order_M", "oracle.E", "oracle.b_factor",
        "oracle.p_cyclic"}
    assert {n for name, n in oracle_calls if name == "oracle.ballot_desc"} == {0, 1, 2, 3, 4}
    assert {n for name, n in oracle_calls if name == "oracle.E"} == {3, 4}
    # the exact counters read the lru_cache statistics of the two Eulerian
    # routes and the size of every series of the catalog the run built
    counters = child.counters(tracer)
    for fn in ("eulerian_first", "eulerian"):
        for key in ("hits", "misses"):
            assert isinstance(counters[f"counts.{fn}.{key}"], int)
    for name in counts.CATALOG_SERIES:
        assert counters[f"series.terms.{name}"] > 0, name


def test_traced_series_kernels_exist():
    # the tracer wraps each kernel by name; a deleted or renamed kernel would
    # otherwise surface only in a traced benchmark run
    child = _load_child()
    for name in child.SERIES_KERNELS:
        assert callable(getattr(series, name, None)), name
