"""The benchmark's tracer (perfbench/child.py) wraps module attributes of
ballotperm at the layer boundaries; a refactor that calls around them would
silently empty the traced per-layer split."""

import importlib.util
from pathlib import Path

from ballotperm import cli

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
