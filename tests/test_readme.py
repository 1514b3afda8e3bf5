"""The README's examples, run as written."""

import ast
import shlex
from pathlib import Path

from ballotperm.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _block(heading: str, lang: str) -> list[str]:
    """The lines of the first fenced `lang` block after the section `heading`."""
    section = README[README.index(f"\n## {heading}\n"):]
    start = section.index(f"```{lang}\n") + len(lang) + 4
    return section[start:section.index("```", start)].splitlines()


def test_library_tour_values():
    # a line whose comment is a Python literal must evaluate to it; every
    # other line runs as a statement
    namespace, checked = {}, []
    for line in _block("Library tour", "python"):
        code, _, comment = line.partition("#")
        try:
            want = ast.literal_eval(comment.strip())
        except (ValueError, SyntaxError):
            exec(line, namespace)
            continue
        assert eval(code, namespace) == want, line
        checked.append(want)
    assert checked == [11, 2, 2, 2, 1, 45, 4, 22, True]


def test_command_line_examples(tmp_path, monkeypatch, capsys):
    # every command exits 0, run from the repository root so that the b-file
    # path resolves, with its output written into tmp_path
    monkeypatch.chdir(ROOT)
    commands = [shlex.split(line) for line in _block("Command line", "sh")
                if line.startswith("ballotperm ")]
    assert len(commands) == 7
    for k, (_, *argv) in enumerate(commands):
        if "--out" in argv:
            i = argv.index("--out") + 1
            argv[i] = str(tmp_path / argv[i])
        else:
            argv += ["--out", str(tmp_path / f"{k}.out")]
        assert main(argv) == 0, argv
    assert capsys.readouterr().out == ""
