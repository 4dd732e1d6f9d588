"""End-to-end tests of the command-line interface.

Everything goes through cli.main() with in-process capture, so exit codes
and the exact bytes on stdout are both under test.  JSON payloads are
validated against schemas pinned here; text-mode outputs are compared to
frozen strings where the value is stable (graph6 of the greedy
realization, threshold values at small n).
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import (decode_graph6, embedding_is_valid,
                     encode_graph6_by_bits, find_embedding, pairing_decision)
from jsonschema import validate

import kmc4
import kmc4.proof_replay
from kmc4 import extremal_witness, encode_graph6, km_minus_c4
from kmc4.cli import build_parser, main

SIGMA_SCHEMA = {
    "type": "object",
    "required": ["m", "n", "lower_bound", "formula", "exact", "verdict",
                 "extremal_sequences", "witnesses"],
    "additionalProperties": False,
    "properties": {
        "m": {"type": "integer", "minimum": 4},
        "n": {"type": "integer", "minimum": 4},
        "lower_bound": {"type": "integer"},
        "formula": {"type": "integer"},
        "exact": {"type": ["integer", "null"]},
        "verdict": {"enum": ["matches", "exceeds", "not_computed"]},
        "extremal_sequences": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "integer"}},
        },
        "witnesses": {"type": "array", "items": {"type": "string"}},
    },
}

POTENTIAL_SCHEMA = {
    "type": "object",
    "required": ["sequence", "m", "verdict", "witness", "embedding",
                 "explored", "exhausted"],
    "additionalProperties": False,
    "properties": {
        "sequence": {"type": "array", "items": {"type": "integer"}},
        "m": {"type": "integer"},
        "verdict": {"type": "boolean"},
        "witness": {"type": ["string", "null"]},
        "embedding": {
            "anyOf": [
                {"type": "null"},
                {"type": "array", "items": {"type": "integer"}},
            ]
        },
        "explored": {"type": "integer", "minimum": 0},
        "exhausted": {"type": "boolean"},
    },
}

REPLAY_STEP_SCHEMA = {
    "type": "object",
    "required": ["case", "sequence", "action", "graph6"],
    "additionalProperties": False,
    "properties": {
        "case": {"type": "string"},
        "sequence": {"type": "array", "items": {"type": "integer"}},
        "action": {"type": "string"},
        "graph6": {"type": ["string", "null"]},
    },
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGraphical:
    def test_true_sequence(self, capsys):
        code, out, _ = run_cli(capsys, "graphical", "4,2,2,2,2")
        assert code == 0
        assert out == "graphical\n"

    def test_false_sequence(self, capsys):
        code, out, _ = run_cli(capsys, "graphical", "3,3,1,1")
        assert code == 1
        assert out == "not graphical\n"

    def test_json_mode(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "graphical", "3,3^5")
        assert code == 0
        rec = json.loads(out)
        assert rec == {"sequence": [3, 3, 3, 3, 3, 3], "graphical": True}

    def test_bad_text(self, capsys):
        code, _, err = run_cli(capsys, "graphical", "4,two,2")
        assert code == 2
        assert "error:" in err


class TestRealize:
    def test_bare_graph6(self, capsys):
        code, out, _ = run_cli(capsys, "realize", "4,2,2,2,2")
        assert code == 0
        assert out == "D{c\n"

    def test_json_mode(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "realize", "4,2,2,2,2")
        assert code == 0
        rec = json.loads(out)
        assert rec["graph6"] == "D{c"
        assert rec["edges"] == 6
        assert rec["sequence"] == [4, 2, 2, 2, 2]

    def test_not_graphical(self, capsys):
        code, _, err = run_cli(capsys, "realize", "3,3,1,1")
        assert code == 2
        assert "not graphical" in err

    def test_over_limit(self, capsys):
        # --limit does not apply, and no length is refused
        for n in (32, 33, 64):
            code, out, _ = run_cli(capsys, "--limit", "4", "realize",
                                   f"2^{n}")
            assert code == 0
            g = decode_graph6(out.strip())
            assert encode_graph6_by_bits(g) == out.strip()
            assert g.degrees() == (2,) * n


class TestPotential:
    def test_positive_prints_witness(self, capsys):
        code, out, _ = run_cli(capsys, "potential", "4,2,2,2,2", "--m", "5")
        assert code == 0
        g = decode_graph6(out.strip())
        assert find_embedding(g, km_minus_c4(5)) is not None

    def test_negative_exhausted(self, capsys):
        # no realization holds the bowtie on the one placement
        assert pairing_decision((5, 5, 2, 2, 2, 2), 5) == (False, 1)
        code, out, _ = run_cli(capsys, "potential", "5,5,2,2,2,2", "--m", "5")
        assert code == 1
        assert out == "not potential: exhausted 1 candidates\n"

    @pytest.mark.parametrize("budget", ["0", "1", "2", "8", "-1"])
    @pytest.mark.parametrize("mode", [[], ["--json"]])
    def test_budget_is_ignored(self, capsys, mode, budget):
        # the diagonals ab and cd hold no bowtie, and ad and bc hold one;
        # no K changes the decision, and stdout is that of the plain run
        assert pairing_decision((4, 4, 3, 2, 2, 1), 5) == (True, 1)
        argv = ["potential", "4,4,3,2,2,1", "--m", "5"]
        plain = run_cli(capsys, *mode, *argv)
        assert plain[0] == 0 and plain[2] == ""
        assert run_cli(capsys, *mode, "--budget", budget, *argv) == (
            0, plain[1], "kmc4: --budget is ignored; every verdict is exact\n")

    def test_json_schema(self, capsys):
        for argv in (
            ["--json", "potential", "4,2,2,2,2", "--m", "5"],
            ["--json", "potential", "5,5,2,2,2,2", "--m", "5"],
            ["--json", "--budget", "1", "potential", "4,4,3,2,2,1",
             "--m", "5"],
        ):
            _, out, _ = run_cli(capsys, *argv)
            validate(json.loads(out), POTENTIAL_SCHEMA)

    def test_json_negative_fields(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "potential",
                               "5,5,2,2,2,2", "--m", "5")
        assert code == 1
        rec = json.loads(out)
        assert rec["verdict"] is False
        assert rec["witness"] is None
        assert rec["exhausted"] is True
        assert rec["explored"] == 1

    def test_up_to_the_bitmask_width(self, capsys):
        # rows are as wide as the graph, so no length is refused
        for n in (32, 33, 64):
            code, out, _ = run_cli(capsys, "--limit", "4", "--json",
                                   "potential", f"4^{n}", "--m", "5")
            assert code == 0
            rec = json.loads(out)
            g = decode_graph6(rec["witness"])
            assert encode_graph6_by_bits(g) == rec["witness"]
            assert g.degrees() == (4,) * n
            assert embedding_is_valid(g, km_minus_c4(5), rec["embedding"])

    @pytest.mark.parametrize("mode,out", [
        ([], "not potential: exhausted 0 candidates\n"),
        (["--json"], json.dumps(
            {"embedding": None, "exhausted": True, "explored": 0, "m": 50,
             "sequence": [3, 3, 3, 3], "verdict": False, "witness": None},
            indent=2) + "\n")], ids=["text", "json"])
    def test_target_longer_than_sequence_is_not_built(self, capsys,
                                                      monkeypatch, mode, out):
        # F_m has m rows of m bits and stays cached; with fewer terms than
        # m the answer is an immediate no, so it is never built
        sizes = []
        real = kmc4.cli.km_minus_c4

        def spy(m):
            sizes.append(m)
            return real(m)

        monkeypatch.setattr(kmc4.cli, "km_minus_c4", spy)
        assert run_cli(capsys, *mode, "potential", "3,3,3,3", "--m",
                       "50") == (1, out, "")
        assert all(m <= 4 for m in sizes)

    def test_other_target_size(self, capsys):
        # The degree sequence of the m=6 pattern itself must be potential.
        code, out, _ = run_cli(capsys, "potential", "5,5,3,3,3,3", "--m", "6")
        assert code == 0
        g = decode_graph6(out.strip())
        assert find_embedding(g, km_minus_c4(6)) is not None


class TestPathologicalInputs:
    """Inputs whose single realization once took seconds to a minute to
    canonicalize at n = 10..12; each must be decided and, when negative,
    with an exhausted search."""

    def test_complete_graph_sequence(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "potential", "9^10", "--m", "5")
        rec = json.loads(out)
        assert code == 0 and rec["verdict"] is True
        g = decode_graph6(rec["witness"])
        assert find_embedding(g, km_minus_c4(5)) is not None

    @pytest.mark.parametrize("seq", ["0^10", "9,1^9", "1,1,1,1,0^8"])
    def test_negative_and_exhausted(self, capsys, seq):
        code, out, _ = run_cli(capsys, "--json", "potential", seq, "--m", "5")
        rec = json.loads(out)
        assert code == 1
        assert rec["verdict"] is False
        assert rec["exhausted"] is True
        assert rec["explored"] == 0


class TestSigma:
    def test_exact_small_case(self, capsys):
        code, out, _ = run_cli(capsys, "sigma", "--m", "5", "--n", "6")
        assert code == 0
        rec = json.loads(out)
        assert rec["exact"] == 20
        assert rec["verdict"] == "matches"
        assert [5, 5, 2, 2, 2, 2] in rec["extremal_sequences"]

    def test_always_json_without_flag(self, capsys):
        code, out, _ = run_cli(capsys, "sigma", "--m", "4", "--n", "5")
        assert code == 0
        rec = json.loads(out)
        assert rec["exact"] == 10

    def test_schema(self, capsys):
        for argv in (
            ["sigma", "--m", "5", "--n", "5"],
            ["sigma", "--m", "6", "--n", "6"],
            ["sigma", "--m", "5", "--n", "7", "--bound"],
        ):
            _, out, _ = run_cli(capsys, *argv)
            validate(json.loads(out), SIGMA_SCHEMA)

    def test_bound_mode_skips_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "sigma", "--m", "5", "--n", "12",
                               "--bound")
        assert code == 0
        rec = json.loads(out)
        assert rec["exact"] is None
        assert rec["lower_bound"] == 44
        assert rec["verdict"] == "not_computed"

    def test_byte_identical_reruns(self, capsys):
        first = run_cli(capsys, "sigma", "--m", "5", "--n", "6")
        second = run_cli(capsys, "sigma", "--m", "5", "--n", "6")
        assert first == second

    def test_budget_does_not_apply(self, capsys):
        code, out, _ = run_cli(capsys, "sigma", "--m", "5", "--n", "6")
        assert run_cli(capsys, "--budget", "0", "sigma",
                       "--m", "5", "--n", "6") == (
            code, out, "kmc4: --budget is ignored; every verdict is exact\n")

    def test_witness_past_32_vertices(self, capsys):
        # the one failing sequence at (5, 34) is realized as its witness,
        # which must realize it and hold no F_5
        code, out, _ = run_cli(capsys, "--limit", "34", "sigma",
                               "--m", "5", "--n", "34")
        assert code == 0
        rec = json.loads(out)
        validate(rec, SIGMA_SCHEMA)
        assert (rec["exact"], rec["verdict"]) == (132, "matches")
        assert rec["extremal_sequences"] == [[33, 33] + [2] * 32]
        [text] = rec["witnesses"]
        g = decode_graph6(text)
        assert encode_graph6_by_bits(g) == text
        assert g.degrees() == (33, 33) + (2,) * 32
        assert find_embedding(g, km_minus_c4(5)) is None


class TestWitness:
    def test_bare_graph6(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "--m", "5", "--n", "8")
        assert code == 0
        assert out.strip() == encode_graph6(extremal_witness(5, 8)[0])
        assert out.strip() == "G}rEE?"

    def test_json_fields(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "witness",
                               "--m", "5", "--n", "8")
        assert code == 0
        rec = json.loads(out)
        assert rec["sequence"] == [7, 7, 2, 2, 2, 2, 2, 2]
        assert rec["degree_sum"] == rec["lower_bound"] - 2

    def test_bad_grid(self, capsys):
        code, _, err = run_cli(capsys, "witness", "--m", "5", "--n", "4")
        assert code == 2
        assert "error:" in err


class TestReplay:
    def test_jsonl_mode(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "replay", "5,5,4,4,2,2,2")
        assert code == 0
        lines = out.strip().splitlines()
        records = [json.loads(line) for line in lines]
        for rec in records:
            validate(rec, REPLAY_STEP_SCHEMA)
        assert records[0]["sequence"] == [5, 5, 4, 4, 2, 2, 2]
        assert records[0]["case"] == "d_n≤2 deletion"

    def test_text_mode(self, capsys):
        code, out, _ = run_cli(capsys, "replay", "4,4,4,4,2,2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("1. ")
        assert len(lines) >= 3

    def test_below_threshold_rejected(self, capsys):
        code, _, err = run_cli(capsys, "replay", "4,4,2,2,2,2")
        assert code == 2
        assert "error:" in err

    def test_up_to_the_bitmask_width(self, capsys):
        # rows are as wide as the graph, so no length is refused
        for n in (32, 33, 64):
            code, out, _ = run_cli(capsys, "--limit", "4", "--json",
                                   "replay", f"4^{n}")
            assert code == 0
            last = json.loads(out.splitlines()[-1])
            g = decode_graph6(last["graph6"])
            assert encode_graph6_by_bits(g) == last["graph6"]
            assert g.degrees() == (4,) * n
            assert find_embedding(g, km_minus_c4(5)) is not None

    def test_deterministic(self, capsys):
        first = run_cli(capsys, "--json", "replay", "4,4,4,4,4,4,4,4")
        second = run_cli(capsys, "--json", "replay", "4,4,4,4,4,4,4,4")
        assert first == second

    def test_replay_failure_exits_1_with_nothing_on_stdout(self, capsys,
                                                          monkeypatch):
        # a main-case sequence with no K4 realization would contradict
        # the cited degree condition: the replay stops with a ReplayError
        monkeypatch.setattr(kmc4.proof_replay, "_k4_on_top", lambda seq: None)
        assert run_cli(capsys, "replay", "4^8") == (
            1, "", "replay failed: main-case sequence (4, 4, 4, 4, 4, 4, 4, "
            "4) has no realization containing K4, against the cited "
            "condition of Yin and Li (2005)\n")


class TestVerifySubcommands:
    def test_theorem1_text(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "theorem1", "--n-max", "6")
        assert code == 0
        assert out.strip().endswith("PASS")

    def test_theorem1_single_m_json(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "verify", "theorem1",
                               "--m", "5", "--n-max", "7")
        assert code == 0
        rec = json.loads(out)
        assert rec["passed"] is True
        assert [r["n"] for r in rec["reports"]] == [5, 6, 7]

    def test_theorem2(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "verify", "theorem2",
                               "--n-max", "6")
        assert code == 0
        rec = json.loads(out)
        assert rec["passed"] is True

    def test_theorem2_bad_range(self, capsys):
        code, _, err = run_cli(capsys, "verify", "theorem2", "--n-max", "4")
        assert code == 2
        assert err == "error: n_max must be an integer >= 5, got 4\n"

    def test_conjecture(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "verify", "conjecture",
                               "--m", "4", "--n-max", "6")
        assert code == 0
        rec = json.loads(out)
        assert rec["passed"] is True
        assert all(r["verdict"] == "matches" for r in rec["reports"])

    @pytest.mark.parametrize("claim", ["theorem1", "conjecture"])
    @pytest.mark.parametrize("mode", [[], ["--json"]])
    def test_empty_grid_refused(self, capsys, mode, claim):
        # no n in [m, n-max] is no pass
        assert run_cli(capsys, *mode, "verify", claim, "--m", "6",
                       "--n-max", "5") == (
            2, "", "error: empty grid: no n in [6, 5]\n")

    def test_base_cases(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "verify", "base-cases",
                               "--family-n", "6", "--family-n", "7")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_progress_on_stderr_only(self, capsys):
        quiet = run_cli(capsys, "--json", "verify", "theorem1",
                        "--m", "4", "--n-max", "5")
        chatty = run_cli(capsys, "--json", "--progress", "verify", "theorem1",
                         "--m", "4", "--n-max", "5")
        assert chatty[1] == quiet[1]
        assert "m=4 n=5" in chatty[2]
        assert quiet[2] == ""

    def test_theorem2_progress_line_per_replayed_length(self, capsys):
        quiet = run_cli(capsys, "verify", "theorem2", "--n-max", "7")
        chatty = run_cli(capsys, "--progress", "verify", "theorem2",
                         "--n-max", "7")
        assert chatty[:2] == quiet[:2]
        assert quiet[2] == ""
        # the sweep's lines start "m=5 n=..."; the replay adds one per n
        assert [line for line in chatty[2].splitlines()
                if line.startswith("n=")] == [
            "n=5: exact=16, 4 sequences replayed, 0 replay failures",
            "n=6: exact=20, 26 sequences replayed, 0 replay failures",
            "n=7: exact=24, 135 sequences replayed, 0 replay failures"]


class TestVerifyBytes:
    """Every byte each verify command prints, and its exit code: the
    text report as a literal, the --json report as the SHA-256 digest of
    its stdout. A change to either fails here; freeze new values only
    when the report is meant to change."""

    CASES = {
        "theorem1": (
            ["verify", "theorem1", "--m", "5", "--n-max", "7"],
            "m=5 n=5: pattern-free True, classes 1, sum-check True -> ok\n"
            "m=5 n=6: pattern-free True, classes 1, sum-check True -> ok\n"
            "m=5 n=7: pattern-free True, classes 1, sum-check True -> ok\n"
            "PASS\n",
            "03a9629fcac7958028ba081413f1af9943bc4723c6c223ef6639ed1f9223f902"),
        "conjecture": (
            ["verify", "conjecture", "--m", "5", "--n-max", "8"],
            "m=5 n=5: exact 16, formula 16, verdict matches\n"
            "m=5 n=6: exact 20, formula 20, verdict matches\n"
            "m=5 n=7: exact 24, formula 24, verdict matches\n"
            "m=5 n=8: exact 28, formula 28, verdict matches\n"
            "PASS\n",
            "f37692bca37bfbcf84a326e8aa7a047bf030565c9ebebdc550ad73318e4be305"),
        "theorem2": (
            ["verify", "theorem2", "--n-max", "7"],
            "n=5: exact 16 (expected 16), 4 sequences replayed, "
            "0 replay failures\n"
            "n=6: exact 20 (expected 20), 26 sequences replayed, "
            "0 replay failures\n"
            "n=7: exact 24 (expected 24), 135 sequences replayed, "
            "0 replay failures\n"
            "PASS\n",
            "f3041423e585f1ead61a637d81d085ba45f2af0498497134f97dac6f06b6d1d0"),
        "base-cases": (
            ["verify", "base-cases", "--family-n", "6", "--family-n", "9"],
            "n=6 (4,4,3,3,3,3): E|pW\n"
            "n=6 (4,4,4,4,4,4): E|tw\n"
            "n=7 (4,4,4,4,4,4,4): F|pXw\n"
            "n=6 (5,3,3,3,3,3): E|qW\n"
            "n=9 (8,3,3,3,3,3,3,3,3): H|uCKIB\n"
            "PASS\n",
            "cedb9ac6bc836351fac85768366e9a296b0eb0bdadae59c0f805abab05cdda9f"),
    }

    @pytest.mark.parametrize("claim", CASES)
    def test_text_report(self, capsys, claim):
        argv, text, _ = self.CASES[claim]
        assert run_cli(capsys, *argv) == (0, text, "")

    @pytest.mark.parametrize("claim", CASES)
    def test_json_report_digest(self, capsys, claim):
        argv, _, digest = self.CASES[claim]
        code, out, err = run_cli(capsys, "--json", *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def spoil_last(spoil):
    """A spoiler of a list's last entry, for a driver returning one."""
    return lambda out: [*out[:-1], spoil(out[-1])]


class TestVerifyFails:
    """One failing entry fails a verify report: exit 1, FAIL as the last
    text line, and "passed" false under --json. Each driver is wrapped
    to spoil what it returns, the way that command's pass rule reads
    it: the one report of a theorem1 call, the last entry of the others'
    lists."""

    CASES = {
        "theorem1": (
            kmc4.cli, "verify_theorem1",
            lambda r: r._replace(pattern_free=False),
            ["verify", "theorem1", "--m", "5", "--n-max", "5"],
            "m=5 n=5: pattern-free False, classes 1, sum-check True "
            "-> FAIL\nFAIL\n"),
        "conjecture": (
            kmc4.cli, "verify_conjecture",
            spoil_last(lambda r: r._replace(exact=22, verdict="exceeds")),
            ["verify", "conjecture", "--m", "5", "--n-max", "6"],
            "m=5 n=5: exact 16, formula 16, verdict matches\n"
            "m=5 n=6: exact 22, formula 20, verdict exceeds\nFAIL\n"),
        "theorem2": (
            kmc4.proof_replay, "verify_theorem2_range",
            spoil_last(lambda e: {**e, "exact": 18, "exact_ok": False}),
            ["verify", "theorem2", "--n-max", "5"],
            "n=5: exact 18 (expected 16), 4 sequences replayed, "
            "0 replay failures\nFAIL\n"),
        "base-cases": (
            kmc4.proof_replay, "verify_base_cases",
            spoil_last(lambda e: {**e, "potential": False, "witness": None}),
            ["verify", "base-cases", "--family-n", "6"],
            "n=6 (4,4,3,3,3,3): E|pW\n"
            "n=6 (4,4,4,4,4,4): E|tw\n"
            "n=7 (4,4,4,4,4,4,4): F|pXw\n"
            "n=6 (5,3,3,3,3,3): NO WITNESS\nFAIL\n"),
    }

    @pytest.fixture
    def spoiled(self, monkeypatch, request):
        module, name, spoil, argv, text = self.CASES[request.param]
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, **kw: spoil(real(*args, **kw)))
        return argv, text

    @pytest.mark.parametrize("spoiled", CASES, indirect=True)
    def test_text_report(self, capsys, spoiled):
        argv, text = spoiled
        assert run_cli(capsys, *argv) == (1, text, "")

    @pytest.mark.parametrize("spoiled", CASES, indirect=True)
    def test_json_report(self, capsys, spoiled):
        argv, _ = spoiled
        code, out, _ = run_cli(capsys, "--json", *argv)
        assert code == 1
        assert json.loads(out)["passed"] is False


class TestCachedParser:
    # Each run follows one that set what it leaves at its default.
    RUNS = [
        ["--json", "potential", "4,4,3,3,2,2", "--m", "5"],
        ["potential", "4,4,3,3,2,2", "--m", "5"],
        ["--limit", "8", "potential", "4,4,3,3,3,3,2,2", "--m", "6"],
        ["potential", "4,4,3,3,3,3,2,2", "--m", "6"],
        ["--budget", "1", "potential", "4^2,3,2^2,1"],
        ["potential", "3^6"],
        ["potential", "3,3,1,1"],
        ["potential", "4,2,2,2,2"],
        ["verify", "base-cases", "--family-n", "9"],
        ["verify", "base-cases", "--family-n", "9"],
    ]

    def test_runs_in_a_row_match_fresh_parsers(self, capsys):
        build_parser.cache_clear()
        in_a_row = [run_cli(capsys, *argv) for argv in self.RUNS]
        assert build_parser.cache_info().misses == 1
        assert [code for code, _, _ in in_a_row] == [0, 0, 1, 1, 0, 1, 2, 0, 0, 0]
        for argv, got in zip(self.RUNS, in_a_row):
            build_parser.cache_clear()
            assert run_cli(capsys, *argv) == got, argv

    def test_import_builds_no_parser_and_no_process_pool(self):
        probe = ("import sys\n"
                 f"sys.path.insert(0, {str(Path(kmc4.__file__).parents[1])!r})\n"
                 "import kmc4, kmc4.cli\n"
                 "print(kmc4.cli.build_parser.cache_info().currsize,\n"
                 "      [m for m in ('multiprocessing',\n"
                 "                   'concurrent.futures.process')\n"
                 "       if m in sys.modules])\n")
        out = subprocess.run([sys.executable, "-c", probe], check=True,
                             capture_output=True, text=True).stdout
        assert out == "0 []\n"


class TestLimitsAndEnvironment:
    def test_limit_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "--limit", "0", "graphical", "2,1,1")
        assert code == 2
        assert err == "error: --limit must be an integer >= 1, got 0\n"
        # no upper end: 33 and 64 are limits like any other
        for limit in ("33", "64"):
            code, out, _ = run_cli(capsys, "--limit", limit, "sigma",
                                   "--m", "4", "--n", "5")
            assert code == 0
            assert json.loads(out)["exact"] == 10

    @pytest.mark.parametrize("argv", [
        ("sigma", "--m", "5", "--n", "9"),
        ("verify", "conjecture", "--m", "5", "--n-max", "9"),
        ("verify", "theorem2", "--n-max", "9")],
        ids=["sigma", "conjecture", "theorem2"])
    def test_length_over_the_limit(self, capsys, argv):
        code, out, err = run_cli(capsys, "--limit", "8", *argv)
        assert code == 2
        assert out == ""
        assert err == "error: exact threshold limited to 8 vertices (got 9)\n"


class TestArgumentErrors:
    def test_unknown_flag(self, capsys):
        code, _, err = run_cli(capsys, "--frobnicate", "graphical", "2,1,1")
        assert code == 2
        assert "usage" in err

    def test_missing_subcommand(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 2

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run_cli(capsys, "enumerate", "2,1,1")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["--workers", "2", "sigma", "--m", "5", "--n", "6"],
        ["--seed", "7", "potential", "4,2,2,2,2"],
        ["sigma", "--m", "5", "--n", "6", "--exact"],
    ])
    def test_removed_options_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "usage" in err

    def test_global_options(self):
        options = {opt for action in build_parser()._actions
                   for opt in action.option_strings}
        assert options == {"-h", "--help", "--json", "--limit", "--budget",
                           "--progress"}
        # --budget is parsed and ignored, and --help does not offer it
        assert "--budget" not in build_parser().format_help()

    @pytest.mark.parametrize("argv,err", [
        (["verify", "theorem1", "--n-max", "3"],
         "--n-max must be an integer >= 4, got 3"),
        (["verify", "theorem1", "--m", "3", "--n-max", "9"],
         "--m must be an integer >= 4, got 3"),
        (["sigma", "--m", "5", "--n", "4"],
         "n must be an integer >= 5, got 4"),
        (["verify", "base-cases", "--family-n", "4"],
         "family_ns entry must be an integer >= 5, got 4"),
        (["potential", "1,1", "--m", "3"],
         "--m must be an integer >= 4, got 3")],
        ids=["theorem1-n-max", "theorem1-m", "sigma-n", "base-cases-family-n",
             "potential-m-over-length"])
    def test_count_below_its_least(self, capsys, argv, err):
        # argparse makes each an int; the count rule checks its least,
        # in the command line's own checks and the library's
        assert run_cli(capsys, *argv) == (2, "", f"error: {err}\n")

    def test_sigma_requires_m_and_n(self, capsys):
        code, _, _ = run_cli(capsys, "sigma", "--m", "5")
        assert code == 2
