"""The package surface: what ``import kmc4`` loads, the result records,
the count rule every size argument follows, and the imports and
annotations of each source module and test oracle module.

The replay module is imported on the first use of one of its names,
every result record is a named tuple with fixed fields and defaults, no
module imports a name it never uses, and every annotation names
something its module can resolve.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import re
import subprocess
import sys
import types
import typing
from pathlib import Path

import pytest

import kmc4
from kmc4 import (InputError, ProofStep, ProofTrace, SigmaReport,
                  SmallGraph, Theorem1Report, WitnessResult,
                  graphical_sequences_with_sum, sigma_exact,
                  verify_base_cases, verify_conjecture, verify_theorem2_range)


def run_probe(body: str) -> str:
    """stdout of ``body`` run in a fresh interpreter that imports kmc4
    from this checkout."""
    probe = ("import sys\n"
             f"sys.path.insert(0, {str(Path(kmc4.__file__).parents[1])!r})\n"
             + body)
    return subprocess.run([sys.executable, "-c", probe], check=True,
                          capture_output=True, text=True).stdout


class TestImportSet:
    def test_import_loads_neither_dataclasses_nor_the_replay(self):
        out = run_probe("import kmc4, kmc4.cli\n"
                        "print([m for m in ('dataclasses', 'kmc4.proof_replay')\n"
                        "       if m in sys.modules])\n")
        assert out == "[]\n"

    def test_every_public_name_resolves_after_a_bare_import(self):
        out = run_probe(
            "import kmc4, kmc4.cli\n"
            "missing = [n for n in kmc4.__all__ if not hasattr(kmc4, n)]\n"
            "unlisted = sorted(set(kmc4.__all__) - set(dir(kmc4)))\n"
            "print(missing, unlisted,\n"
            "      kmc4.ReplayError is kmc4.proof_replay.ReplayError)\n")
        assert out == "[] [] True\n"

    def test_dir_lists_the_replay_names_before_they_load(self):
        out = run_probe("import kmc4\n"
                        "names = dir(kmc4)\n"
                        "print(sorted(set(kmc4.__all__) - set(names)),\n"
                        "      'kmc4.proof_replay' in sys.modules)\n")
        assert out == "[] False\n"

    def test_dir_lists_every_public_name_in_order(self):
        # in this process the replay names may be bound already or not;
        # either way ``dir`` lists each once, sorted
        names = dir(kmc4)
        assert set(kmc4.__all__) <= set(names)
        assert names == sorted(set(names))

    def test_star_import(self):
        out = run_probe("from kmc4 import *\n"
                        "steps = replay_theorem2((4, 4, 3, 3, 2)).steps\n"
                        "print(len({len(s.sequence) for s in steps}),\n"
                        "      ProofTrace.__module__)\n")
        assert out == "1 kmc4.proof_replay\n"

    def test_first_access_binds_every_replay_name(self):
        out = run_probe("import kmc4\n"
                        "kmc4.ProofStep\n"
                        "print(sorted(n for n in kmc4._REPLAY_NAMES\n"
                        "             if n not in vars(kmc4)))\n")
        assert out == "[]\n"

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'nope'"):
            kmc4.nope


class TestRecords:
    # The fields and defaults of each record, in order.
    FIELDS = [
        (WitnessResult, ("verdict", "witness", "embedding", "explored"), {}),
        (SigmaReport,
         ("m", "n", "lower_bound", "exact", "verdict", "extremal_sequences",
          "witnesses"),
         {"extremal_sequences": (), "witnesses": ()}),
        (Theorem1Report,
         ("m", "n", "sequence", "witness_graph6", "pattern_free",
          "realization_classes", "sum_is_bound_minus_two"), {}),
        (ProofStep, ("case", "sequence", "action", "graph6"),
         {"graph6": None}),
        (ProofTrace, ("steps", "outcome", "embedding"), {}),
    ]

    @pytest.mark.parametrize("record,fields,defaults", FIELDS,
                             ids=[r.__name__ for r, _, _ in FIELDS])
    def test_fields_and_defaults(self, record, fields, defaults):
        assert record._fields == fields
        assert record._field_defaults == defaults

    def test_records_are_immutable_tuples_with_keyword_reprs(self):
        step = ProofStep("interchange", (4,) * 6, "x")
        assert step == ("interchange", (4,) * 6, "x", None)
        assert repr(step) == ("ProofStep(case='interchange', "
                              "sequence=(4, 4, 4, 4, 4, 4), action='x', "
                              "graph6=None)")
        with pytest.raises(AttributeError):
            step.graph6 = "E"


class TestCountRule:
    """Every size argument is an ``int``, not a ``bool``, and at least
    its least value; ``errors._count`` is the one check, and it raises
    InputError in one shape, naming the argument. The m and n of
    sigma_lower_bound, and of the drivers that reach it, are probed in
    test_extremal; km_minus_c4's m in test_graphs."""

    # entry point with one size argument open: its name, least value,
    # and a value it takes
    PROBES = {
        "SmallGraph-n": (lambda v: SmallGraph(v), "n", 0, 3),
        "SmallGraph-endpoint": (lambda v: SmallGraph(3, [(0, 2), (0, v)]),
                                "edge endpoint", 0, 1),
        "graphical_sequences_with_sum-n": (
            lambda v: list(graphical_sequences_with_sum(v, 6)), "n", 1, 4),
        "graphical_sequences_with_sum-total": (
            lambda v: list(graphical_sequences_with_sum(4, v)), "total", 0, 6),
        "graphical_sequences_with_sum-min_term": (
            lambda v: list(graphical_sequences_with_sum(4, 6, min_term=v)),
            "min_term", 0, 1),
        "sigma_exact-limit": (lambda v: sigma_exact(5, 9, limit=v),
                              "limit", 1, 12),
        "verify_conjecture-m": (lambda v: verify_conjecture(v, 8), "m", 4, 5),
        "verify_conjecture-n_max": (lambda v: verify_conjecture(5, v),
                                    "n_max", 0, 8),
        "verify_theorem2_range-n_max": (verify_theorem2_range, "n_max", 5, 6),
        "verify_theorem2_range-limit": (
            lambda v: verify_theorem2_range(6, limit=v), "limit", 1, 12),
        "verify_base_cases": (lambda v: verify_base_cases((8, v)),
                              "family_ns entry", 5, 8),
    }

    @pytest.mark.parametrize("probe", PROBES)
    def test_bad_count_raises_in_one_shape(self, probe):
        call, name, least, valid = self.PROBES[probe]
        for bad in (float(valid), True, str(valid), least - 1):
            with pytest.raises(InputError, match=(
                    f"^{re.escape(name)} must be an integer >= {least}, "
                    f"got {re.escape(repr(bad))}$")):
                call(bad)

    def test_one_check_of_a_count(self):
        # isinstance(..., int) appears only in the count rule and in the
        # term rule of sequences._sorted_terms
        sites = []
        for path in sorted(Path(kmc4.__file__).parent.glob("*.py")):
            for func in ast.walk(ast.parse(path.read_text("utf-8"))):
                if isinstance(func, ast.FunctionDef):
                    sites += [func.name for node in ast.walk(func)
                              if isinstance(node, ast.Call)
                              and ast.unparse(node.func) == "isinstance"
                              and ast.unparse(node.args[1]) == "int"]
        assert sorted(set(sites)) == ["_count", "_sorted_terms"]


class TestImportsAreUsed:
    """Every name a module of ``src/kmc4`` or a test oracle module
    imports is used in it, and every name ``__init__`` imports at module
    level is in ``__all__``."""

    @staticmethod
    def stray_imports(source: str, is_package_init: bool) -> list[str]:
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        exported = set()
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__"
                            for t in node.targets)):
                exported = set(ast.literal_eval(node.value))
        stray = []
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            top_level = node in tree.body
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if is_package_init and top_level:
                    if name not in exported:
                        stray.append(f"{name} (line {node.lineno}, "
                                     f"not in __all__)")
                elif name not in used:
                    stray.append(f"{name} (line {node.lineno})")
        return stray

    @pytest.mark.parametrize(
        "path", sorted(Path(kmc4.__file__).parent.glob("*.py")),
        ids=lambda path: path.name)
    def test_module(self, path):
        assert self.stray_imports(path.read_text(),
                                  path.name == "__init__.py") == []

    @pytest.mark.parametrize("name", ["helpers.py", "ffactor.py"])
    def test_oracle_module(self, name):
        path = Path(__file__).parent / name
        assert self.stray_imports(path.read_text(), False) == []

    def test_finds_a_stray_import(self):
        source = ("from typing import NamedTuple\n"
                  "import json, sys\n"
                  "print(json.dumps(1))\n")
        assert self.stray_imports(source, False) == [
            "NamedTuple (line 1)", "sys (line 2)"]
        assert self.stray_imports("from .graphs import join, SmallGraph\n"
                                  "__all__ = ['join']\n", True) == [
            "SmallGraph (line 1, not in __all__)"]


class TestAnnotationsResolve:
    """``typing.get_type_hints`` resolves on every function, method and
    class of each module of ``src/kmc4`` and each test oracle module:
    with postponed annotations, a name an annotation uses but the module
    never imports fails only there."""

    @staticmethod
    def unresolved(module: types.ModuleType) -> list[str]:
        annotated = []
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                annotated.append(obj)
                for attr in vars(obj).values():
                    attr = getattr(attr, "__func__", attr)
                    attr = getattr(attr, "fget", attr)
                    if inspect.isfunction(attr):
                        annotated.append(attr)
            elif callable(obj):
                annotated.append(obj)
        failed = []
        for obj in annotated:
            try:
                typing.get_type_hints(obj)
            except NameError as exc:
                failed.append(f"{obj.__qualname__}: {exc}")
        return failed

    @pytest.mark.parametrize(
        "name", ["kmc4"] + sorted(
            f"kmc4.{path.stem}"
            for path in Path(kmc4.__file__).parent.glob("*.py")
            if path.stem != "__init__") + ["helpers", "ffactor"])
    def test_module(self, name):
        assert self.unresolved(importlib.import_module(name)) == []

    def test_finds_an_unimported_name(self):
        module = types.ModuleType("probe")
        exec("from __future__ import annotations\n"
             "def walk(n: int) -> Iterator[int]:\n"
             "    yield n\n"
             "class Box:\n"
             "    def get(self) -> Missing: ...\n", vars(module))
        assert self.unresolved(module) == [
            "walk: name 'Iterator' is not defined",
            "Box.get: name 'Missing' is not defined"]

