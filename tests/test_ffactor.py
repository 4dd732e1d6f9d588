"""The f-factor oracle stays independent of the library it checks."""

from __future__ import annotations

import ast
from pathlib import Path

ORACLE = Path(__file__).resolve().parent / "ffactor.py"


def test_imports_nothing_from_kmc4_and_scipy_at_top_level():
    tree = ast.parse(ORACLE.read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
    assert not [name for name in imported
                if name == "kmc4" or name.startswith("kmc4.")]
    # a missing scipy fails collection instead of skipping a test
    top = [node.module for node in tree.body
           if isinstance(node, ast.ImportFrom)]
    assert "scipy.optimize" in top
