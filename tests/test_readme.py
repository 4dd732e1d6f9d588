"""The README's examples show what the package does."""

from __future__ import annotations

import doctest
from pathlib import Path

from kmc4.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_block_runs_as_a_doctest():
    failed, attempted = doctest.testfile(str(README), module_relative=False,
                                         encoding="utf-8")
    assert attempted > 0
    assert failed == 0


def test_replay_json_example_matches_stdout(capsys):
    lines = README.read_text(encoding="utf-8").splitlines()
    at = lines.index("$ kmc4 --json replay 5,5,4,4,2,2,2")
    shown = lines[at + 1].removeprefix('{"action": "...", ')
    shown = shown.removesuffix(", ...}")
    assert main(["--json", "replay", "5,5,4,4,2,2,2"]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert shown.startswith('"case": ')
    assert shown in first
