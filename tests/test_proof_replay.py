"""Tests for the constructive replay of the five-vertex threshold argument.

Every trace is checked end to end: the final graph must realize the input
sequence and contain the target pattern, the recursion depth must stay
within n - 4, and each step must carry one of the six documented case
labels.  Expected traces for specific sequences were frozen from runs of
the finished implementation after hand-checking the recursion by the
deletion arithmetic (removing a vertex of degree d_n <= 2 keeps the
residual sum at or above the threshold for n - 1 vertices).
"""

from __future__ import annotations

import hashlib
import json
import re
from itertools import combinations
from random import Random

import pytest
from ffactor import has_k4_realization
from helpers import (brute_embedding_exists, decode_graph6,
                     embedding_is_valid, enumerate_graphical_sequences,
                     find_embedding, is_graphical_quadratic,
                     kleitman_wang_residual, labeled_realizations,
                     nonincreasing_tuples, two_switch)

import kmc4.extremal
import kmc4.graphs
import kmc4.proof_replay
import kmc4.realizations
from kmc4 import (
    DegreeSequence,
    InputError,
    ProofStep,
    ProofTrace,
    ReplayError,
    SmallGraph,
    encode_graph6,
    is_graphical,
    is_potentially,
    km_minus_c4,
    replay_theorem2,
    verify_base_cases,
    verify_theorem2_range,
)
from kmc4.proof_replay import _base5_embedding
from kmc4.realizations import _k4_on_top
from kmc4.sequences import graphical_sequences_with_sum

BOWTIE = km_minus_c4(5)

CASES = {
    "q≥8 (n=5)",
    "d_n≤2 deletion",
    "exceptional-sequence",
    "d(v2)=3 sequence",
    "interchange",
    "direct-adjacency",
}

# Six sequences the replay once took from its exceptional table, and the
# case each takes now
FORMER_TABLE = {
    (5, 3, 3, 3, 3, 3): "d(v2)=3 sequence",
    (4, 4, 3, 3, 3, 3): "exceptional-sequence",
    (5, 5, 5, 5, 5, 5): "direct-adjacency",
    (6, 3, 3, 3, 3, 3, 3): "d(v2)=3 sequence",
    (5, 4, 3, 3, 3, 3, 3): "direct-adjacency",
    (4, 4, 4, 3, 3, 3, 3): "interchange",
}


def lengths_visited(trace):
    """Recursion depth: how many sequence lengths the replay visited."""
    return len({len(s.sequence) for s in trace.steps})


def check_trace(seq, trace):
    """Full validity audit of a replay trace against its input sequence."""
    n = len(seq)
    assert trace.outcome is not None
    assert trace.outcome.degrees() == tuple(sorted(seq, reverse=True))
    assert find_embedding(trace.outcome, BOWTIE) is not None
    assert trace.steps, "a trace always records at least one step"
    assert lengths_visited(trace) <= n - 4
    for step in trace.steps:
        assert step.case in CASES
        assert isinstance(step.sequence, tuple)
        assert step.action
        if step.graph6 is not None:
            g = decode_graph6(step.graph6)
            assert g.degrees() == tuple(sorted(step.sequence, reverse=True))


def base_cases(family_ns):
    """The (n, sequence) pairs ``verify_base_cases`` reports, in order."""
    return [(e["n"], tuple(e["sequence"]))
            for e in verify_base_cases(family_ns)]


class TestBaseCaseSequences:
    def test_fixed_cases(self):
        # the three main-case sequences with no K4 realization; (5,3^5)
        # and (4,4,4,3^4) replay through the family case and the
        # interchange instead
        got = base_cases(())
        assert got == [(6, (4, 4, 3, 3, 3, 3)), (6, (4,) * 6), (7, (4,) * 7)]
        assert (6, (5, 3, 3, 3, 3, 3)) not in got
        assert (7, (4, 4, 4, 3, 3, 3, 3)) not in got
        for n, seq in got:
            assert n == len(seq)
            assert is_graphical(seq)
            assert sum(seq) >= 4 * n - 4

    def test_family_member_appended(self):
        got = base_cases((8,))
        assert got[-1] == (8, (7, 3, 3, 3, 3, 3, 3, 3))

    def test_family_dedup(self):
        # (6, (5, 3, 3, 3, 3, 3)) is no longer a fixed case, so the
        # six-vertex family member is appended; the report lists a
        # member asked for twice once
        fam = base_cases((6,))
        assert fam == base_cases(()) + [(6, (5, 3, 3, 3, 3, 3))]
        assert base_cases((6, 6)) == fam
        assert base_cases((6, 7, 6)) == fam + [(7, (6,) + (3,) * 6)]

    def test_family_too_short(self):
        with pytest.raises(InputError, match=re.escape(
                "family_ns entry must be an integer >= 5, got 4")):
            verify_base_cases(family_ns=(8, 4))


class TestVerifyBaseCases:
    def test_default_report_passes(self):
        entries = verify_base_cases()
        assert [e["n"] for e in entries] == [6, 6, 7, 8]
        for entry in entries:
            assert entry["potential"] is True
            assert entry["witness"] is not None

    def test_witnesses_decode_and_embed(self):
        for entry in verify_base_cases(family_ns=(6, 7)):
            g = decode_graph6(entry["witness"])
            assert g.degrees() == tuple(sorted(entry["sequence"], reverse=True))
            assert find_embedding(g, BOWTIE) is not None

    def test_json_round_trip(self):
        # the entries are plain JSON values, printed as they are
        entries = verify_base_cases()
        assert json.loads(json.dumps(entries)) == entries


class TestReplayPreconditions:
    def test_too_short(self):
        with pytest.raises(InputError):
            replay_theorem2((3, 3, 2, 2))

    def test_not_graphical(self):
        with pytest.raises(InputError):
            replay_theorem2((6, 6, 6, 6, 2, 2, 2, 2))

    def test_sum_below_threshold(self):
        # (4, 4, 2, 2, 2, 2) sums to 16 < 20, outside the guarantee.
        with pytest.raises(InputError):
            replay_theorem2((4, 4, 2, 2, 2, 2))

    def test_vertex_limit(self):
        # no length is refused: 33 and 64 terms are replayed
        for n in (33, 64):
            seq = (4,) * n
            assert is_graphical_quadratic(seq)
            check_trace(seq, replay_theorem2(seq))

    @pytest.mark.parametrize("n", range(13, 33))
    def test_beyond_the_enumeration_limit(self, n):
        # the hub-plus-cycle family and one main-case sequence
        check_trace((n - 1,) + (3,) * (n - 1),
                    replay_theorem2((n - 1,) + (3,) * (n - 1)))
        seq = (5, 5) + (4,) * (n - 4) + (3, 3)
        trace = replay_theorem2(seq)
        check_trace(seq, trace)
        assert trace.steps[-1].case in ("interchange", "direct-adjacency")


class TestCaseBranches:
    def test_five_vertex_base(self):
        trace = replay_theorem2((4, 4, 3, 3, 2))
        check_trace((4, 4, 3, 3, 2), trace)
        assert [s.case for s in trace.steps] == ["q≥8 (n=5)"]

    def test_five_vertex_bowtie_read_off_without_a_search(self):
        # every labelled graph on 5 vertices with at least 8 edges (at
        # most 2 in the complement), the only ones the base case meets:
        # brute force finds a bowtie, and the construction reads off a
        # valid one, the one find_embedding finds
        pairs = list(combinations(range(5), 2))
        dense = 0
        for mask in range(1 << len(pairs)):
            if mask.bit_count() < 8:
                continue
            g = SmallGraph(5, [e for i, e in enumerate(pairs)
                               if (mask >> i) & 1])
            dense += 1
            assert brute_embedding_exists(g, BOWTIE), g.edges()
            emb = _base5_embedding(g)
            assert embedding_is_valid(g, BOWTIE, emb), (g.edges(), emb)
            # the pairing order keeps the base step's action text
            assert emb == find_embedding(g, BOWTIE)
        assert dense == 56

    def test_second_degree_3_forces_the_family(self):
        # least term at least 3 and d_2 = 3 leave 3^(n-1) after d_1, and
        # a sum of at least 4n - 4 then forces d_1 = n - 1: the family
        # case builds its witness for that one sequence
        found = [tuple(seq) for n in range(5, 11)
                 for seq in enumerate_graphical_sequences(n, 4 * n - 4)
                 if seq[-1] >= 3 and seq[1] == 3]
        assert found == [(n - 1,) + (3,) * (n - 1) for n in range(5, 11)]

    def test_single_deletion(self):
        trace = replay_theorem2((4, 4, 4, 4, 2, 2))
        check_trace((4, 4, 4, 4, 2, 2), trace)
        cases = [s.case for s in trace.steps]
        assert cases[0] == "d_n≤2 deletion"
        assert "q≥8 (n=5)" in cases
        assert lengths_visited(trace) == 2

    def test_deletion_chain_hits_depth_bound(self):
        seq = (7, 7, 4, 4, 4, 2, 2, 2)
        trace = replay_theorem2(seq)
        check_trace(seq, trace)
        cases = [s.case for s in trace.steps]
        assert cases[:3] == ["d_n≤2 deletion"] * 3
        assert lengths_visited(trace) == len(seq) - 4

    def test_deletion_step_builds_no_graph(self):
        # the lay-off works on degrees: only the re-attached graph is
        # recorded, and the action names the degrees laid off onto
        trace = replay_theorem2((5, 5, 4, 4, 2, 2, 2))
        check_trace((5, 5, 4, 4, 2, 2, 2), trace)
        first = trace.steps[0]
        assert first.graph6 is None
        assert first.action == ("laid a vertex of degree 2 off onto degrees "
                                "[5, 5]; residual (4,4,4,4,2,2) keeps the "
                                "threshold")
        assert trace.steps[-1].graph6 is not None

    def test_deletion_records_both_directions(self):
        # The peel and the re-attachment are separate recorded steps, so a
        # two-deletion trace mentions the full sequence twice.
        seq = (5, 5, 4, 4, 2, 2, 2)
        trace = replay_theorem2(seq)
        check_trace(seq, trace)
        full = [s for s in trace.steps if s.sequence == seq]
        assert len(full) == 2
        assert all(s.case == "d_n≤2 deletion" for s in full)

    @pytest.mark.parametrize("seq", list(FORMER_TABLE))
    def test_exceptional_sequences(self, seq):
        # Of the former table, only (4,4,3^4) has no K4 realization; the
        # others replay through the family case or complete on the K4
        # construction.
        trace = replay_theorem2(seq)
        check_trace(seq, trace)
        assert [s.case for s in trace.steps] == [FORMER_TABLE[seq]]

    @pytest.mark.parametrize("n", [8, 9])
    def test_second_degree_three_family(self, n):
        seq = (n - 1,) + (3,) * (n - 1)
        trace = replay_theorem2(seq)
        check_trace(seq, trace)
        assert [s.case for s in trace.steps] == ["d(v2)=3 sequence"]

    def test_direct_adjacency(self):
        trace = replay_theorem2((4, 4, 4, 4, 3, 3))
        check_trace((4, 4, 4, 4, 3, 3), trace)
        assert [s.case for s in trace.steps] == ["direct-adjacency"]

    def test_genuine_interchange(self):
        # The 4-regular sequence on eight vertices admits a realization with
        # a near-complete quadruple whose completion needs the edge trade.
        seq = (4,) * 8
        trace = replay_theorem2(seq)
        check_trace(seq, trace)
        step = trace.steps[0]
        assert step.case == "interchange"
        assert step.action.startswith("interchange on quadruple")

    @pytest.mark.parametrize("n", [6, 7])
    def test_regular_fallback_deviation(self, n):
        # The complement of a 4-regular graph on six or seven vertices is
        # a perfect matching or 2-regular on seven vertices, and neither
        # has four pairwise non-adjacent vertices. So no realization
        # contains a complete quadruple, the main case has nothing to
        # complete, and the sequence is an exceptional one instead.
        seq = (4,) * n
        assert _k4_on_top(DegreeSequence(seq)) is None
        trace = replay_theorem2(seq)
        check_trace(seq, trace)
        assert [s.case for s in trace.steps] == ["exceptional-sequence"]


def assert_no_search():
    """Nothing in the library searches for a subgraph: the replay and
    the decision only check the embeddings they build."""
    for module in (kmc4.graphs, kmc4.realizations, kmc4.proof_replay,
                   kmc4.extremal):
        assert not hasattr(module, "find_embedding"), module.__name__


def record_returns(monkeypatch, module, name):
    """Wrap module.name so that every value it returns is appended to
    the list returned here."""
    returned = []
    real = getattr(module, name)

    def recording(*args, **kwargs):
        out = real(*args, **kwargs)
        returned.append(out)
        return out

    monkeypatch.setattr(module, name, recording)
    return returned


def witness_error(case, seq):
    """The start of the ReplayError message of a level whose witness
    fails its check, as a pattern."""
    return re.escape(f"'{case}' witness for {tuple(seq)} does not realize")


class TestCarriedEmbedding:
    @pytest.mark.parametrize("seq", [
        (4, 4, 3, 3, 2), (7, 7, 4, 4, 4, 2, 2, 2), (5, 3, 3, 3, 3, 3),
        (8, 3, 3, 3, 3, 3, 3, 3, 3), (4, 4, 4, 4, 3, 3), (4,) * 8, (4,) * 6,
        (6, 6, 5, 5, 4, 3, 3, 2, 2)])
    def test_every_level_returns_a_valid_embedding(self, monkeypatch, seq):
        returned = record_returns(monkeypatch, kmc4.proof_replay, "_replay")
        trace = replay_theorem2(seq)
        check_trace(seq, trace)
        assert returned[-1][0] == trace.outcome
        for g, emb in returned:
            assert embedding_is_valid(g, BOWTIE, emb), (g, emb)

    def test_deletion_levels_do_not_search(self, monkeypatch):
        checked = record_returns(monkeypatch, kmc4.proof_replay,
                                 "_is_witness")
        trace = replay_theorem2((7, 7, 4, 4, 4, 2, 2, 2))
        assert [s.case for s in trace.steps].count("d_n≤2 deletion") == 6
        # the 5-vertex base case reads its bowtie off the degrees; its
        # level and the three re-attachments only check it, once each,
        # on the embedding the trace keeps
        assert_no_search()
        assert checked == [True] * 4
        assert embedding_is_valid(trace.outcome, BOWTIE, trace.embedding)

    def test_deletion_recurses_on_the_kleitman_wang_residual(self,
                                                             monkeypatch):
        called = []
        real = kmc4.proof_replay._replay

        def recording(seq, steps):
            called.append(tuple(seq))
            return real(seq, steps)

        monkeypatch.setattr(kmc4.proof_replay, "_replay", recording)
        deletions = 0
        for n in range(6, 10):
            for total in range(n * (n - 1), 4 * n - 5, -2):
                for seq in graphical_sequences_with_sum(n, total):
                    if seq[-1] > 2:
                        continue
                    # every level with n > 5 and least term <= 2 hands
                    # the next level its lay-off residual
                    chain = [tuple(seq)]
                    while len(chain[-1]) > 5 and chain[-1][-1] <= 2:
                        chain.append(kleitman_wang_residual(chain[-1]))
                        assert is_graphical_quadratic(chain[-1])
                    called.clear()
                    check_trace(tuple(seq), replay_theorem2(seq))
                    assert called == chain
                    deletions += len(chain) - 1
        assert deletions == 4631

    def test_family_embedding_is_built(self, monkeypatch):
        returned = record_returns(monkeypatch, kmc4.proof_replay, "_replay")
        trace = replay_theorem2((7,) + (3,) * 7)
        assert_no_search()
        assert returned[0][1] == trace.embedding == (1, 3, 2, 4, 0)

    def test_lost_embedding_edge_is_caught(self, monkeypatch):
        # re-attach as usual, then 2-switch away one edge of the carried
        # embedding: the degrees still match, and another bowtie may
        # remain, but the carried embedding is broken
        returned = record_returns(monkeypatch, kmc4.proof_replay, "_replay")
        real_attach = kmc4.proof_replay._attach_back
        switched = []

        def drop_embedded_edge(inner, seq, residual):
            out = real_attach(inner, seq, residual)
            emb = returned[-1][1]
            for a, b in BOWTIE.edges():
                x, y = emb[a], emb[b]
                for u, w in out.edges():
                    for c, d in ((u, w), (w, u)):
                        if ({c, d} & {x, y} or out.has_edge(x, c)
                                or out.has_edge(y, d)):
                            continue
                        switched.append(two_switch(out, x, y, c, d))
                        return switched[-1]
            raise AssertionError("no 2-switch removes an embedded edge")

        monkeypatch.setattr(kmc4.proof_replay, "_attach_back",
                            drop_embedded_edge)
        # the first re-attachment, on the residual, is caught at its
        # own level
        with pytest.raises(ReplayError, match=witness_error(
                "d_n≤2 deletion", (4, 4, 4, 4, 2, 2))):
            replay_theorem2((5, 5, 4, 4, 2, 2, 2))
        assert len(switched) == 1
        # a search would still have found a bowtie in the mutated graph
        assert find_embedding(switched[0], BOWTIE) is not None

    def test_misplaced_reattachment_is_caught(self, monkeypatch):
        # join the new vertex to 0 and 2 instead of 0 and 1: the degree
        # multiset and the carried embedding still hold, but vertex 1
        # no longer has degree seq[1]
        seq = (5, 5, 4, 4, 2, 2, 2)
        real_attach = kmc4.proof_replay._attach_back
        misplaced = []

        def join_0_and_2(inner, s, residual):
            out = real_attach(inner, s, residual)
            if s != seq:
                return out
            assert out.has_edge(6, 0) and out.has_edge(6, 1)
            rows = list(out.rows)
            for u in (1, 2):
                rows[u] ^= 1 << 6
                rows[6] ^= 1 << u
            misplaced.append(SmallGraph._from_rows(7, rows))
            return misplaced[-1]

        monkeypatch.setattr(kmc4.proof_replay, "_attach_back", join_0_and_2)
        with pytest.raises(ReplayError,
                           match=witness_error("d_n≤2 deletion", seq)):
            replay_theorem2(seq)
        assert len(misplaced) == 1
        assert DegreeSequence(misplaced[0].degrees()) == seq

    def test_broken_base_embedding_is_caught_at_its_level(self, monkeypatch):
        # swap the first two entries of the 5-vertex base's bowtie: the
        # base level's own check refuses it, before its step is recorded
        real = kmc4.proof_replay._base5_embedding

        def swap_first_two(g):
            p, r, *rest = real(g)
            return (r, p, *rest)

        monkeypatch.setattr(kmc4.proof_replay, "_base5_embedding",
                            swap_first_two)
        seq = (4, 4, 3, 3, 2)
        with pytest.raises(ReplayError,
                           match=witness_error("q≥8 (n=5)", seq)) as err:
            replay_theorem2(seq)
        assert err.value.steps == []

    def test_non_injective_table_embedding_is_caught(self, monkeypatch):
        # the table witness keeps its graph but maps two pattern
        # vertices to one host vertex
        real = kmc4.proof_replay._placement

        def collapse(*args):
            g, emb = real(*args)
            return g, (emb[0],) + emb[:-1]

        monkeypatch.setattr(kmc4.proof_replay, "_placement", collapse)
        seq = (4, 4, 3, 3, 3, 3)
        with pytest.raises(ReplayError, match=witness_error(
                "exceptional-sequence", seq)) as err:
            replay_theorem2(seq)
        assert err.value.steps == []


class TestConstructedCompletion:
    """The main case's bowtie comes from the completion that built it."""

    @pytest.mark.parametrize("seq,action", [
        ((4, 4, 4, 4, 3, 3), "complete quadruple"),
        ((7, 4) + (3,) * 7, "attachment path"),
        ((4,) * 8, "interchange on quadruple")])
    def test_each_completion_builds_a_valid_embedding(self, monkeypatch,
                                                      seq, action):
        returned = record_returns(monkeypatch, kmc4.proof_replay,
                                  "_complete_on_top")
        trace = replay_theorem2(seq)
        check_trace(seq, trace)
        [(witness, emb, case, text)] = returned
        assert text.startswith(action)
        assert (trace.steps[-1].case, trace.steps[-1].action) == (case, text)
        assert witness == trace.outcome
        assert embedding_is_valid(witness, BOWTIE, emb), emb
        assert trace.embedding == emb
        assert_no_search()

    def test_wrong_embedding_is_caught(self, monkeypatch):
        real = kmc4.proof_replay._complete_on_top

        def swap_v1_v2(g):
            witness, (v3, v1, v4, y1, v2), case, action = real(g)
            return witness, (v3, v2, v4, y1, v1), case, action

        monkeypatch.setattr(kmc4.proof_replay, "_complete_on_top",
                            swap_v1_v2)
        with pytest.raises(ReplayError,
                           match=witness_error("interchange", (4,) * 8)):
            replay_theorem2((4,) * 8)

    def test_wrong_interchange_is_caught(self, monkeypatch):
        # an interchange that toggles nothing leaves the K4 construction,
        # which misses the bowtie on the embedding the completion names;
        # the level's check is the interchange's only check, so the
        # replay fails and the range report counts it
        monkeypatch.setattr(kmc4.proof_replay, "_interchange",
                            lambda g, *vertices: g)
        seq = (4, 4, 4, 3, 3, 3, 3)
        with pytest.raises(ReplayError,
                           match=witness_error("interchange", seq)) as err:
            replay_theorem2(seq)
        assert err.value.steps == []
        entries = verify_theorem2_range(7)
        assert [e["replay_failures"] for e in entries] == [0, 0, 1]

    def test_only_the_k4_construction_is_built(self, monkeypatch):
        built = record_returns(monkeypatch, kmc4.proof_replay, "_k4_on_top")
        assert not hasattr(kmc4.proof_replay, "_greedy_realization")
        assert not hasattr(kmc4.realizations, "_greedy_realization")
        for seq in ((5, 5, 5, 5, 4, 4), (4,) * 8):
            built.clear()
            trace = replay_theorem2(seq)
            check_trace(seq, trace)
            [g] = built
            assert has_k4_on_top(g)
        # its graph is the one the interchange starts from
        assert trace.steps[0].action == ("interchange on quadruple 0,1,2,3 "
                                         "with y1=4, y2=5, y3=6")

    def test_no_class_search_for_6_to_9_vertices(self):
        # the library has no class search for the replay to fall back on
        for module in (kmc4.graphs, kmc4.realizations):
            for name in ("enumerate_realizations", "_switch_neighbors",
                         "two_switch", "_switched", "canonical_form",
                         "_refine_colors"):
                assert not hasattr(module, name), (module.__name__, name)
        count = 0
        for n in range(6, 10):
            for total in range(n * (n - 1), 4 * n - 5, -2):
                for seq in graphical_sequences_with_sum(n, total):
                    replay_theorem2(seq)
                    count += 1
        assert count == 3767

    def test_json_lines_frozen_for_6_to_8_vertices(self):
        # Frozen once the main case built its second realization with K4
        # on the four largest degrees instead of searching realization
        # classes; that changed the traces of (4^8), (5,5,5,3^5),
        # (4^6,3,3), (6,4,3^6) and (5,5,3^6). Re-frozen when (4^6) and
        # (4^7) joined the exceptional table, which changed the case and
        # action, not the graphs, of (4^6), (4^7), (4^6,0) and (4^7,0).
        # Re-frozen when the deletion case laid the least vertex off on
        # degrees (Kleitman-Wang) instead of deleting it from a greedy
        # realization: every trace with a deletion step changed (544 of
        # the 820 here), its action text and graph6 at least. Re-frozen
        # when the table case took its witness from the pairing-only
        # decision instead of the greedy realization: the 54 traces here
        # that reach an exceptional sequence changed their action text,
        # and 28 of them their graphs, every graph checked against
        # perfbench/checks.py and the brute-force bowtie search first.
        # Re-frozen when the main case stopped trying the greedy realization
        # first and completed only on vertices 0..3 of the K4 construction:
        # 100 of the 820 traces here changed their graphs, 54 of them their
        # action text too and 1 its case, each checked the same way and by
        # check_trace first. Re-frozen when the exceptional table shrank
        # to the three sequences with no K4 realization: the 27 traces
        # here that reached (5,3^5), (5^6), (6,3^6), (5,4,3^5) or
        # (4,4,4,3^4) changed their leaf case and action, and 13 of them
        # their graphs, each checked the same way first. Every case,
        # action and graph of every threshold sequence on 6 to 8 vertices
        # is pinned.
        assert trace_digest(range(6, 9)) == (820, (
            "73f21a2ee093a8bfc8c09ad073d4afc3d5777cdc3dac35720b015bc8810b315c"))

    def test_json_lines_frozen_for_9_vertices(self):
        # with the 6-8 digest this pins every trace the benchmark's
        # replay workload produces
        assert trace_digest([9]) == (2947, (
            "bf02d1863fdd924a69c300c5c4bd3e4b6bbc61267535c53aa1a6eaf380544c54"))


def trace_digest(ns):
    """(count, SHA-256 of the JSON lines) over every threshold sequence
    on n vertices for each n in ns, in enumeration order."""
    digest = hashlib.sha256()
    count = 0
    for n in ns:
        for total in range(n * (n - 1), 4 * n - 5, -2):
            for seq in graphical_sequences_with_sum(n, total):
                count += 1
                for line in replay_theorem2(seq).to_json_lines():
                    digest.update(line.encode() + b"\n")
    return count, digest.hexdigest()


def has_k4_on_top(g):
    """Are vertices 0..3 of g pairwise adjacent? Read off the rows."""
    return all((g.rows[u] >> v) & 1 for u, v in combinations(range(4), 2))


def has_k4(g):
    """Brute-force scan of every vertex quadruple for a 4-clique."""
    return any(all(g.has_edge(u, v) for u, v in combinations(quad, 2))
               for quad in combinations(range(g.n), 4))


def main_case_sequences(n_max):
    """Every graphical sequence the replay's main case could meet on 6 to
    n_max vertices: minimum degree at least 3, second degree at least 4,
    and not in the exceptional table."""
    for n in range(6, n_max + 1):
        for total in range(n * (n - 1), 3 * n - 1, -2):
            for seq in graphical_sequences_with_sum(n, total):
                if (seq[-1] >= 3 and seq[1] >= 4
                        and seq not in kmc4.proof_replay._EXCEPTIONAL_CASES):
                    yield seq


class TestK4OnTop:
    def test_exact_against_the_class_walk(self):
        # against the f-factor oracle's K4 mode, which replaced the
        # 2-switch class walk this test is named for
        count = 0
        missing = []
        for seq in main_case_sequences(9):
            count += 1
            g = _k4_on_top(seq)
            assert (g is not None) == has_k4_realization(seq), seq
            if g is None:
                missing.append(tuple(seq))
            else:
                assert g.degrees() == tuple(seq)
                assert has_k4_on_top(g)
        assert count == 1096
        assert missing == []

    def test_only_the_table_lacks_a_k4_at_6_and_7_vertices(self):
        # every sequence the main case can meet on 6 or 7 vertices, table
        # included: the three table sequences are the only ones with no
        # K4 realization, by the brute-force labeled walk as well
        missing = []
        count = 0
        for n in (6, 7):
            for total in range(n * (n - 1), 4 * n - 5, -2):
                for seq in graphical_sequences_with_sum(n, total):
                    if seq[-1] >= 3 and seq[1] >= 4:
                        count += 1
                        if _k4_on_top(seq) is None:
                            missing.append(tuple(seq))
        assert count == 62
        assert missing == [(4,) * 6, (4, 4, 3, 3, 3, 3), (4,) * 7]
        assert set(missing) == set(kmc4.proof_replay._EXCEPTIONAL_CASES)
        for seq in missing:
            assert not any(has_k4(g) for g in labeled_realizations(seq)), seq
            assert not has_k4_realization(seq), seq


class TestDegreeCondition:
    """The r = 3 case of Yin and Li's (2005) condition: a graphical
    sequence with d_4 >= 3 and d_8 >= 2 has a realization containing
    K4. Every main-case sequence on 8 or more vertices meets it, since
    its least term is at least 3."""

    @staticmethod
    def meets(seq):
        return seq[3] >= 3 and seq[7] >= 2

    def test_k4_construction_through_10_vertices(self):
        count = 0
        for n in (8, 9, 10):
            for total in range(n * (n - 1), -1, -2):
                for seq in graphical_sequences_with_sum(n, total):
                    if self.meets(seq):
                        count += 1
                        g = _k4_on_top(seq)
                        assert g is not None, seq
                        assert g.degrees() == tuple(seq)
                        assert has_k4_on_top(g)
        assert count == 17022

    def test_against_labeled_realizations_at_8_vertices(self):
        # sequences and realizations both found by brute force
        count = 0
        for seq in nonincreasing_tuples(8, 7):
            if is_graphical_quadratic(seq) and self.meets(seq):
                count += 1
                assert any(has_k4(g) for g in labeled_realizations(seq)), seq
                assert _k4_on_top(DegreeSequence(seq)) is not None, seq
        assert count == 458


class TestMainCase:
    """The main case builds one realization, with K4 on vertices 0..3,
    and completes on that quadruple."""

    def test_one_realization_and_the_top_quadruple(self, monkeypatch):
        built = record_returns(monkeypatch, kmc4.proof_replay, "_k4_on_top")
        real = kmc4.proof_replay._complete_on_top
        given = []

        def recording(g):
            given.append(g)
            return real(g)

        monkeypatch.setattr(kmc4.proof_replay, "_complete_on_top", recording)
        kinds = {}
        count = 0
        for seq in main_case_sequences(9):
            count += 1
            built.clear()
            given.clear()
            steps = []
            g, emb = kmc4.proof_replay._replay(seq, steps)
            [k4] = built
            assert given == [k4] and has_k4_on_top(k4), seq
            assert g.degrees() == tuple(seq)
            assert embedding_is_valid(g, BOWTIE, emb), seq
            [step] = steps
            assert step.graph6 == encode_graph6(g)
            kind = re.match(r"complete quadruple 0,1,2,3 and vertex \d+ "
                            r"|attachment path 0-\d+-\d+ returns to the "
                            r"quadruple at 0,|interchange on quadruple "
                            r"0,1,2,3 with ", step.action)
            assert kind, (seq, step.action)
            kind = kind.group().split()[0]
            kinds[kind] = kinds.get(kind, 0) + 1
        assert count == 1096
        # (5^6), (5,4,3^5) and (4,4,4,3^4) left the exceptional table and
        # took one of each kind
        assert kinds == {"complete": 1080, "attachment": 9, "interchange": 7}

    def test_seeded_sample_of_14_to_32_vertices(self):
        # degree sequences of random graphs with 2n - 2 to 3n - 2 edges:
        # at or just above the threshold 4n - 4
        rng = Random(2026)
        for _ in range(300):
            n = rng.randint(14, 32)
            pairs = list(combinations(range(n), 2))
            g = SmallGraph(n, rng.sample(pairs, 2 * n - 2 + rng.randint(0, n)))
            seq = tuple(DegreeSequence(g.degrees()))
            trace = replay_theorem2(seq)
            check_trace(seq, trace)
            assert {"interchange", "direct-adjacency"} & {
                s.case for s in trace.steps}, seq

    def test_seeded_sample_of_33_to_80_vertices(self):
        # the same kind of sample past 32 vertices, where graph6 takes
        # its long size header from 63 on
        rng = Random(3380)
        for _ in range(30):
            n = rng.randint(33, 80)
            pairs = list(combinations(range(n), 2))
            g = SmallGraph(n, rng.sample(pairs, 2 * n - 2 + rng.randint(0, n)))
            seq = tuple(DegreeSequence(g.degrees()))
            trace = replay_theorem2(seq)
            check_trace(seq, trace)


class TestChangedTraces:
    def test_which_traces_use_the_k4_construction(self, monkeypatch):
        # Every main case completes from the K4 construction: of the
        # 3,771 threshold sequences on 5 to 9 vertices, the 3,490 whose
        # deletion chain ends in the main case, 21 of them by the
        # interchange. 60 of them, 12 by the interchange, ended in the
        # exceptional table while it held eight sequences.
        k4_graphs = record_returns(monkeypatch, kmc4.proof_replay,
                                   "_k4_on_top")
        returned = record_returns(monkeypatch, kmc4.proof_replay, "_replay")
        real = kmc4.proof_replay._complete_on_top
        completed_from = []

        def recording(g):
            completed_from.append(g)
            return real(g)

        monkeypatch.setattr(kmc4.proof_replay, "_complete_on_top", recording)
        served = set()
        main_case = set()
        interchanged = 0
        count = 0
        for n in range(5, 10):
            for total in range(n * (n - 1), 4 * n - 5, -2):
                for seq in graphical_sequences_with_sum(n, total):
                    count += 1
                    for log in (k4_graphs, completed_from, returned):
                        log.clear()
                    trace = replay_theorem2(seq)
                    seq = tuple(seq)
                    cases = {s.case for s in trace.steps}
                    if cases & {"interchange", "direct-adjacency"}:
                        main_case.add(seq)
                    interchanged += "interchange" in cases
                    if any(g in k4_graphs for g in completed_from):
                        served.add(seq)
                        check_trace(seq, trace)
                        for g, emb in returned:
                            assert embedding_is_valid(g, BOWTIE, emb), seq
                    assert not any(s.action.startswith("deviation:")
                                   for s in trace.steps), seq
        assert count == 3771
        assert served == main_case
        assert (len(main_case), interchanged) == (3490, 21)


class TestTraceFormats:
    def test_json_lines_shape(self):
        trace = replay_theorem2((5, 5, 4, 4, 2, 2, 2))
        lines = trace.to_json_lines()
        assert len(lines) == len(trace.steps)
        for line in lines:
            rec = json.loads(line)
            assert set(rec) == {"action", "case", "graph6", "sequence"}

    def test_text_rendering(self):
        trace = replay_theorem2((4, 4, 4, 4, 2, 2))
        text = trace.to_text()
        lines = text.splitlines()
        assert len(lines) == len(trace.steps)
        assert lines[0].startswith("1.")

    def test_step_json_dict(self):
        step = ProofStep(
            case="q≥8 (n=5)",
            sequence=(4, 4, 3, 3, 2),
            action="base case",
            graph6="D{c",
        )
        rec = step.to_json_dict()
        assert rec["sequence"] == [4, 4, 3, 3, 2]
        assert rec["graph6"] == "D{c"

    def test_replay_error_carries_steps(self):
        err = ReplayError("stuck", steps=[ProofStep("interchange", (4,) * 6, "x")])
        assert isinstance(err, RuntimeError)
        assert err.steps[0].case == "interchange"

    def test_trace_is_dataclass_like(self):
        trace = replay_theorem2((4, 4, 3, 3, 2))
        assert isinstance(trace, ProofTrace)
        assert lengths_visited(trace) == 1


class TestFullAgreement:
    @pytest.mark.parametrize("n,expected", [(6, 26), (7, 135)])
    def test_every_threshold_sequence_replays(self, n, expected):
        """Replay succeeds, and agrees with the search verdict, for every
        graphical sequence at or above the guarantee line."""
        checked = 0
        level = n * (n - 1)
        while level >= 4 * n - 4:
            for seq in graphical_sequences_with_sum(n, level):
                trace = replay_theorem2(seq)
                check_trace(tuple(seq), trace)
                result = is_potentially(seq, BOWTIE)
                assert result.verdict is True
                checked += 1
            level -= 2
        assert checked == expected


class TestVerifyTheorem2Range:
    def test_report_through_seven(self):
        entries = verify_theorem2_range(7)
        assert [entry["n"] for entry in entries] == [5, 6, 7]
        for entry in entries:
            assert entry["exact"] == 4 * entry["n"] - 4
            assert entry["exact_ok"] is True
            assert entry["replay_failures"] == 0
            assert entry["sequences_checked"] > 0

    @pytest.mark.parametrize("corrupt", ["degrees", "embedding"])
    def test_wrong_outcome_counts_as_a_replay_failure(self, monkeypatch,
                                                      corrupt):
        # each level's check lives in _replay, which raises ReplayError
        # on a wrong witness; the range counts that error
        real = kmc4.proof_replay._complete_on_top
        target = (5, 5, 4, 4, 3, 3)
        corrupted = []

        def wrong_outcome(g):
            out, emb, case, action = real(g)
            seq = g.degrees()
            if seq != target:
                return out, emb, case, action
            if corrupt == "degrees":
                out = SmallGraph(out.n, list(out.edges())[1:])
            else:
                emb = (emb[0],) * len(emb)
            corrupted.append(seq)
            return out, emb, case, action

        monkeypatch.setattr(kmc4.proof_replay, "_complete_on_top",
                            wrong_outcome)
        entries = verify_theorem2_range(6)
        assert corrupted == [target]
        assert [e["replay_failures"] for e in entries] == [0, 1]

    def test_range_too_small(self):
        with pytest.raises(InputError):
            verify_theorem2_range(4)

    def test_json_dict(self):
        # the entries are plain JSON values, printed as they are
        entries = verify_theorem2_range(5)
        assert json.loads(json.dumps(entries)) == entries
        assert entries[0]["n"] == 5
