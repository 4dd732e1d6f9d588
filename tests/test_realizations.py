from __future__ import annotations

import ast
import json
from itertools import combinations, permutations
from pathlib import Path
from random import Random

import pytest
from ffactor import potentially
from helpers import (brute_isomorphic, embedding_is_valid,
                     encode_graph6_by_bits, enumerate_graphical_sequences,
                     find_embedding, gray_code_degree_map,
                     greedy_realization_by_scan, pairing_decision,
                     random_graph, relabel, row_by_row_placement, top_layouts,
                     two_switch)

import kmc4.cli
import kmc4.realizations
import kmc4.sequences
from kmc4 import (InputError, DegreeSequence, SmallGraph, WitnessResult,
                  complete_graph, empty_graph, encode_graph6,
                  extremal_witness, havel_hakimi_realize, is_potentially,
                  join, km_minus_c4, replay_theorem2)
from kmc4.graphs import _bits
from kmc4.proof_replay import _interchange

BOWTIE = km_minus_c4(5)
# passes the necessary condition for m = 5 and has two distinct pairings;
# no realization holds the bowtie in the first, and one holds it in the
# second (``pairing_decision`` checks both by brute force)
SECOND_PAIRING = (4, 4, 3, 2, 2, 1)


BUDGET_NOTICE = "kmc4: --budget is ignored; every verdict is exact\n"


def report_under_budget(capsys, seq, m: int, budget) -> tuple:
    """(verdict, explored) from ``kmc4 --json [--budget K] potential``,
    after checking that the report marks exactly a negative exhausted,
    that the exit code follows the verdict, and that stderr holds only
    the notice an ignored --budget prints."""
    argv = ["--json", "potential", ",".join(map(str, seq)), "--m", str(m)]
    if budget is not None:
        argv[1:1] = ["--budget", str(budget)]
    code = kmc4.cli.main(argv)
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert report["exhausted"] is not report["verdict"]
    assert code == (0 if report["verdict"] else 1)
    assert err == ("" if budget is None else BUDGET_NOTICE)
    return report["verdict"], report["explored"]


def two_k4_matching() -> SmallGraph:
    """Two complete quadruples joined by a perfect matching; 4-regular."""
    edges = list(combinations(range(4), 2))
    edges += [(u + 4, v + 4) for u, v in combinations(range(4), 2)]
    edges += [(i, i + 4) for i in range(4)]
    return SmallGraph(8, edges)


class TestHavelHakimi:
    def test_bowtie_sequence(self):
        g = havel_hakimi_realize((4, 2, 2, 2, 2))
        assert brute_isomorphic(g, BOWTIE)

    def test_two_triangles(self):
        g = havel_hakimi_realize((2,) * 6)
        want = SmallGraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        assert g == want

    def test_double_hub(self):
        g = havel_hakimi_realize((5, 5, 2, 2, 2, 2))
        assert g == join(complete_graph(2), empty_graph(4))

    def test_vertex_i_gets_degree_i(self):
        rng = Random(31)
        for _ in range(120):
            base = random_graph(rng.randint(1, 9), rng.random(), rng)
            seq = DegreeSequence(base.degrees())
            g = havel_hakimi_realize(seq)
            assert g.degrees() == tuple(seq)

    def test_rejects_non_graphical(self):
        with pytest.raises(InputError):
            havel_hakimi_realize((3, 3, 1, 1))

    def test_same_graph_as_the_scanning_layoff(self):
        count = 0
        for n in range(1, 10):
            for seq in enumerate_graphical_sequences(n):
                assert havel_hakimi_realize(seq) == \
                    greedy_realization_by_scan(seq), seq
                count += 1
        assert count == 6067


@pytest.mark.parametrize("call", [
    havel_hakimi_realize,
    lambda seq: is_potentially(seq, BOWTIE),
    replay_theorem2,
], ids=["havel_hakimi_realize", "is_potentially", "replay_theorem2"])
def test_more_terms_than_the_bitmask_width(call):
    # rows are as wide as the graph, so 33 and 64 terms are answered
    for n in (33, 64):
        out = call((4,) * n)
        if isinstance(out, SmallGraph):
            g, emb = out, None
        elif isinstance(out, WitnessResult):
            assert out.verdict
            g, emb = out.witness, out.embedding
        else:
            g, emb = out.outcome, out.embedding
        assert g.degrees() == (4,) * n
        assert encode_graph6_by_bits(g) == encode_graph6(g)
        if emb is not None:
            assert embedding_is_valid(g, BOWTIE, emb)


class TestPastThirtyTwoVertices:
    """Degree sequences of seeded random graphs on 33 to 80 vertices."""

    @staticmethod
    def graphs(count):
        rng = Random(3380)
        for _ in range(count):
            n = rng.randint(33, 80)
            yield random_graph(n, rng.uniform(0.02, 0.5), rng)

    def test_havel_hakimi_realizes_the_sequence(self):
        for base in self.graphs(40):
            seq = DegreeSequence(base.degrees())
            g = havel_hakimi_realize(seq)
            assert g.degrees() == tuple(seq)
            assert g == greedy_realization_by_scan(seq)

    def test_witnesses_for_m_4_to_8(self):
        # each graph realizes its own sequence, so an F_m found in it by
        # the test-only search makes the verdict positive
        verdicts = set()
        for base in self.graphs(20):
            seq = DegreeSequence(base.degrees())
            for m in range(4, 9):
                target = km_minus_c4(m)
                res = is_potentially(seq, target)
                verdicts.add(res.verdict)
                if res.verdict:
                    assert res.witness.degrees() == tuple(seq)
                    assert embedding_is_valid(res.witness, target,
                                              res.embedding)
                else:
                    assert find_embedding(base, target) is None, (seq, m)
        assert verdicts == {True, False}


class TestTwoSwitch:
    def test_moves_the_edges(self):
        g = SmallGraph(4, [(0, 1), (2, 3)])
        h = two_switch(g, 0, 1, 2, 3)
        assert h == SmallGraph(4, [(0, 2), (1, 3)])

    def test_preserves_sorted_degrees_seeded(self):
        rng = Random(37)
        done = 0
        while done < 1000:
            g = random_graph(8, 0.5, rng)
            edges = g.edges()
            if len(edges) < 2:
                continue
            (a, b), (c, d) = rng.sample(edges, 2)
            if len({a, b, c, d}) < 4:
                continue
            if g.has_edge(a, c) or g.has_edge(b, d):
                continue
            h = two_switch(g, a, b, c, d)
            assert sorted(h.degrees()) == sorted(g.degrees())
            assert h.edge_count == g.edge_count
            done += 1

    def test_rejects_duplicate_vertices(self):
        g = complete_graph(4)
        with pytest.raises(InputError):
            two_switch(g, 0, 1, 1, 2)

    def test_rejects_missing_edge(self):
        g = SmallGraph(4, [(0, 1), (2, 3)])
        with pytest.raises(InputError, match="required edge"):
            two_switch(g, 0, 2, 1, 3)

    def test_rejects_present_non_edge(self):
        with pytest.raises(InputError, match="non-edge"):
            two_switch(complete_graph(4), 0, 1, 2, 3)

    def test_rejects_out_of_range(self):
        g = SmallGraph(4, [(0, 1), (2, 3)])
        with pytest.raises(InputError):
            two_switch(g, 0, 1, 2, 4)


class TestIsPotentially:
    def test_witness_and_embedding_are_consistent(self):
        res = is_potentially((4, 2, 2, 2, 2), BOWTIE)
        assert res.verdict and res.explored == 1
        assert DegreeSequence(res.witness.degrees()) == (4, 2, 2, 2, 2)
        assert len(set(res.embedding)) == 5
        for a, b in BOWTIE.edges():
            assert res.witness.has_edge(res.embedding[a], res.embedding[b])
        res = is_potentially((5, 4, 4, 3, 3, 3, 2, 2, 2), BOWTIE)
        assert res.verdict and res.explored == 1
        assert embedding_is_valid(res.witness, BOWTIE, res.embedding)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_bowtie_against_labeled_census(self, n):
        # some realization has a bowtie exactly when some labeled graph
        # with those sorted degrees does
        for seq, has in gray_code_degree_map(n).items():
            res = is_potentially(seq, BOWTIE)
            assert res.verdict == has, seq

    def test_too_few_terms_is_authoritative_no(self):
        res = is_potentially((3, 3, 3, 3), BOWTIE)
        assert res == WitnessResult(False, None, None, 0)

    def test_negative_without_budget_is_exhausted(self, capsys):
        # the one distinct pairing is tried, and the JSON report marks
        # the negative exhausted
        res = is_potentially((5, 5, 2, 2, 2, 2), BOWTIE)
        assert res == WitnessResult(False, None, None, 1)
        assert report_under_budget(capsys, (5, 5, 2, 2, 2, 2), 5, None) == \
            (False, 1)

    def test_zero_budget(self, capsys):
        # --budget 0 reaches the library as no cap at all: the report is
        # the positive the decision finds at its second pairing
        res = is_potentially(SECOND_PAIRING, BOWTIE)
        assert (res.verdict, res.explored) == (True, 2)
        assert report_under_budget(capsys, SECOND_PAIRING, 5, 0) == (True, 2)

    @pytest.mark.parametrize("seq", [(4, 2, 2, 2, 2), (1, 1)])
    def test_negative_budget_is_refused(self, seq):
        # the library takes no budget at all, negative or not
        with pytest.raises(TypeError, match="budget"):
            is_potentially(seq, BOWTIE, budget=-1)

    @pytest.mark.parametrize("n", range(13, 33))
    def test_beyond_the_enumeration_limit(self, n):
        # the extremal sequence is an authoritative negative for every m
        for m in (4, n // 2, n):
            _, seq = extremal_witness(m, n)
            res = is_potentially(seq, km_minus_c4(m))
            assert not res.verdict, (m, seq)
        # one more edge inside the independent set makes it positive: the
        # edge and a clique vertex with an independent neighbour are the
        # two diagonals
        m = 4 + n % 5
        seq = (n - 1,) * (m - 3) + (m - 2,) * 2 + (m - 3,) * (n - m + 1)
        res = is_potentially(seq, km_minus_c4(m))
        assert res.verdict
        assert res.witness.degrees() == seq
        assert find_embedding(res.witness, km_minus_c4(m)) is not None

    def test_order_seed_does_not_change_verdict(self, monkeypatch):
        # the pairings tried in a seeded random order instead of the
        # fixed one
        for seq in [(4, 4, 3, 3, 2, 2), (5, 5, 2, 2, 2, 2), (3, 3, 3, 3, 3, 3),
                    SECOND_PAIRING]:
            base = is_potentially(seq, BOWTIE).verdict
            for seed in (1, 5):
                with monkeypatch.context() as mp:
                    shuffle_pairings(mp, seed)
                    assert is_potentially(seq, BOWTIE).verdict == base


class TestExactDecision:
    @pytest.mark.parametrize("m,n", [(m, n) for m in range(4, 8)
                                     for n in range(m, 8)]
                             + [(4, 8), (5, 8), (5, 9)])
    def test_agrees_with_class_search(self, capsys, m, n):
        # against the f-factor oracle, which replaced the 2-switch class
        # walk this test is named for; and the JSON report marks exactly
        # the negatives exhausted
        target = km_minus_c4(m)
        for seq in enumerate_graphical_sequences(n):
            res = is_potentially(seq, target)
            assert res.verdict == potentially(seq, m), seq
            assert report_under_budget(capsys, seq, m, None) == \
                (res.verdict, res.explored), seq
            assert res.explored <= 3

    def test_universal_vertex_lemma(self):
        # F_m is one vertex joined to F_{m-1}. A sequence s with
        # d1 = n - 1 has vertex 1 universal in every realization, and
        # deleting it realizes s' = (d2 - 1, ..., dn - 1); so s is
        # potentially F_m-graphic exactly when s' is potentially
        # F_{m-1}-graphic, by either decider
        count = positive = 0
        for m in (5, 6, 7):
            for n in range(m, 9):
                for seq in enumerate_graphical_sequences(n):
                    if seq[0] != n - 1:
                        continue
                    rest = tuple(t - 1 for t in seq[1:])
                    want = is_potentially(rest, km_minus_c4(m - 1)).verdict
                    assert potentially(rest, m - 1) == want, (rest, m - 1)
                    assert is_potentially(seq, km_minus_c4(m)).verdict \
                        == want, (seq, m)
                    assert potentially(seq, m) == want, (seq, m)
                    count += 1
                    positive += want
        assert (count, positive) == (1405, 838)

    @pytest.mark.parametrize("n", range(4, 8))
    def test_explored_pairings_agree_with_brute_force(self, n):
        # every graphical sequence and every m: the verdict and the
        # pairings counted are those of the brute-force placement oracle
        # over every labeled realization
        for seq in enumerate_graphical_sequences(n):
            for m in range(4, n + 1):
                res = is_potentially(seq, km_minus_c4(m))
                assert (res.verdict, res.explored) == \
                    pairing_decision(seq, m), (seq, m)

    @pytest.mark.parametrize("m", [4, 5, 6, 7])
    def test_placement_witnesses(self, m):
        # every pairing is_potentially may try, and every cycle-edge
        # subset that fits on degrees, not only the first one it reaches
        target = km_minus_c4(m)
        built = 0
        for n in range(m, 9):
            for seq in enumerate_graphical_sequences(n):
                out = kmc4.realizations._core_residual(seq, m)
                if out is None:
                    continue
                for diagonals in kmc4.realizations._distinct_pairings(seq, m):
                    for used in range(16):
                        if kmc4.realizations._first_fit(
                                seq, m, out, diagonals, (used,)) is None:
                            continue
                        g, emb = kmc4.realizations._placement(
                            seq, m, diagonals, used)
                        built += 1
                        assert g.degrees() == tuple(seq), seq
                        assert sorted(emb) == list(range(m)), seq
                        assert embedding_is_valid(g, target, emb), seq
        assert built > 0

    def test_placement_witness_is_returned(self):
        res = is_potentially(SECOND_PAIRING, BOWTIE)
        assert (res.verdict, res.explored) == (True, 2)
        assert res.witness.degrees() == SECOND_PAIRING
        for a, b in BOWTIE.edges():
            assert res.witness.has_edge(res.embedding[a], res.embedding[b])

    @pytest.mark.parametrize("seq,m,budget,want", [
        # fewer terms than m, or the necessary condition fails: no pairing
        ((3, 3, 3, 3), 5, 0, (False, 0)),
        ((3,) * 6, 5, 0, (False, 0)),
        ((3,) * 6, 5, None, (False, 0)),
        # one pairing up to equal degrees, and it fits
        ((4, 2, 2, 2, 2), 5, 0, (True, 1)),
        ((4, 2, 2, 2, 2), 5, 1, (True, 1)),
        ((4, 2, 2, 2, 2), 5, None, (True, 1)),
        # two pairings; the first misses and the second fits
        (SECOND_PAIRING, 5, 0, (True, 2)),
        (SECOND_PAIRING, 5, 1, (True, 2)),
        (SECOND_PAIRING, 5, 2, (True, 2)),
        (SECOND_PAIRING, 5, None, (True, 2)),
        # one pairing up to equal degrees, and it misses
        ((5, 5, 2, 2, 2, 2), 5, 1, (False, 1)),
        ((5, 5, 2, 2, 2, 2), 5, 2, (False, 1)),
        ((5, 5, 2, 2, 2, 2), 5, None, (False, 1)),
        # two pairings, both miss
        ((5, 5, 5, 4, 3, 3, 3), 6, 2, (False, 2)),
        ((5, 5, 5, 4, 3, 3, 3), 6, 3, (False, 2)),
        ((5, 5, 5, 4, 3, 3, 3), 6, None, (False, 2)),
    ])
    def test_budget_counts_candidates(self, capsys, seq, m, budget, want):
        # the candidates counted are the exact decision's under any
        # --budget K, which caps nothing
        assert pairing_decision(seq, m) == want
        res = is_potentially(seq, km_minus_c4(m))
        assert (res.verdict, res.explored) == want
        assert report_under_budget(capsys, seq, m, budget) == want

    @pytest.mark.parametrize("m", [4, 5, 6])
    def test_seed_does_not_change_the_verdict(self, m, monkeypatch):
        # the pairings tried in a seeded random order instead of the
        # fixed one
        target = km_minus_c4(m)
        for n in range(m, 8):
            for seq in enumerate_graphical_sequences(n):
                want = potentially(seq, m)
                for seed in (1, 2, 3):
                    with monkeypatch.context() as mp:
                        shuffle_pairings(mp, seed)
                        res = is_potentially(seq, target)
                    assert res.verdict == want, (seq, seed)

    def test_seed_orders_the_pairings(self, monkeypatch):
        # only the second pairing in the fixed order fits; a seed that
        # puts it first finds it at once
        _, _, held = top_layouts(SECOND_PAIRING, 5)
        assert held == {((1, 3), (2, 4)), ((1, 4), (2, 3))}
        assert is_potentially(SECOND_PAIRING, BOWTIE).explored == 2
        shuffle_pairings(monkeypatch, 1)
        res = is_potentially(SECOND_PAIRING, BOWTIE)
        assert (res.verdict, res.explored) == (True, 1)
        assert res.embedding[:4] == (1, 2, 3, 4)

    @pytest.mark.parametrize("target", [
        complete_graph(5),
        complete_graph(3),
        relabel(BOWTIE, [4, 0, 1, 2, 3]),
        # the bowtie and an isolated vertex: order 6, but not F_6 (its
        # join with one vertex would be F_6 itself)
        SmallGraph(6, BOWTIE.edges()),
        5,
        (5, km_minus_c4(5)),
    ])
    def test_rejects_foreign_targets(self, target):
        with pytest.raises(InputError, match="4-cycle"):
            is_potentially((4, 2, 2, 2, 2), target)



class TestDecideSequence:
    """The verdict-only decision the threshold sweep runs on degrees."""

    @pytest.mark.parametrize("m", [4, 5, 6, 7, 8])
    def test_complete_graph_fits_at_once(self, m):
        # K_m is the only realization of (m-1)^m: the first pairing with
        # subset 15, every cycle edge
        assert kmc4.realizations._decide_sequence(
            DegreeSequence([m - 1] * m), m) == \
            (True, 1, kmc4.realizations._pairings(m)[0], 15)

    @pytest.mark.parametrize("seq,m,budget,want", [
        # the necessary condition fails: no pairing
        ((3,) * 6, 5, 0, (False, 0)),
        ((3,) * 6, 5, None, (False, 0)),
        # three pairings; the first fails and the second fits
        ((4, 3, 2, 1, 1, 1), 4, 0, (True, 2)),
        ((4, 3, 2, 1, 1, 1), 4, 1, (True, 2)),
        ((4, 3, 2, 1, 1, 1), 4, 2, (True, 2)),
        ((4, 3, 2, 1, 1, 1), 4, 3, (True, 2)),
        ((4, 3, 2, 1, 1, 1), 4, None, (True, 2)),
        # two pairings, both fail
        ((5, 5, 5, 4, 3, 3, 3), 6, 0, (False, 2)),
        ((5, 5, 5, 4, 3, 3, 3), 6, 1, (False, 2)),
        ((5, 5, 5, 4, 3, 3, 3), 6, 2, (False, 2)),
        ((5, 5, 5, 4, 3, 3, 3), 6, 3, (False, 2)),
        ((5, 5, 5, 4, 3, 3, 3), 6, None, (False, 2)),
    ])
    def test_budget_counts_pairings(self, capsys, seq, m, budget, want):
        # the decision counts every pairing it tries, and --budget K
        # cuts none of them
        assert kmc4.realizations._decide_sequence(
            DegreeSequence(seq), m)[:2] == want
        assert report_under_budget(capsys, seq, m, budget) == want

    @pytest.mark.parametrize("m", [4, 5, 6, 7])
    def test_first_fit_matches_the_row_by_row_reference(self, m):
        # skipping the subsets that degree arithmetic rules out changes
        # no decision: the same pairings are counted, and the same first
        # subset fits, as when the row-by-row build tries every subset
        for n in range(m, 9):
            for seq in enumerate_graphical_sequences(n):
                assert kmc4.realizations._decide_sequence(seq, m) == \
                    first_fit_by_rows(seq, m), seq

    @pytest.mark.parametrize("needs", [(-1,), (2, -1), (0, -2, 1),
                                       (1, 1, 0, -1)])
    def test_negative_demand_is_refused(self, needs):
        # wherever it sits among demands that fit on their own
        out = [3, 3, 2, 2, 1]
        assert kmc4.realizations._lay_off_degrees(
            out, [max(k, 0) for k in needs]) is not None
        assert kmc4.realizations._lay_off_degrees(out, needs) is None

    def test_core_always_lays_off(self):
        # Erdos-Gallai at each k <= m - 4 gives Gale and Ryser's condition
        # for the core's outside demands (``_core_residual``), so once the
        # top m degrees carry F_m's own the core fits, and a negative has
        # tried every distinct pairing
        checks = negatives = 0
        for n in range(4, 11):
            for seq in enumerate_graphical_sequences(n):
                for m in range(4, n + 1):
                    fm = [m - 1] * (m - 4) + [m - 3] * 4
                    if any(seq[i] < fm[i] for i in range(m)):
                        continue
                    checks += 1
                    assert kmc4.realizations._core_residual(seq, m) \
                        is not None, (seq, m)
                    verdict, explored, _, _ = \
                        kmc4.realizations._decide_sequence(seq, m)
                    if not verdict:
                        negatives += 1
                        assert explored == len(list(
                            kmc4.realizations._distinct_pairings(seq, m))), \
                            (seq, m)
        assert (checks, negatives) == (71496, 1271)

    @pytest.mark.parametrize("seq,m", [((3,) * 6, 5), ((4,) * 7, 6),
                                       ((5, 4, 4, 4, 3, 3, 3), 6)])
    def test_core_below_m_minus_1_has_no_residual(self, seq, m):
        # a core vertex joined to the other m - 1 placed vertices needs
        # degree m - 1; the last case fails on its second core vertex
        assert kmc4.realizations._core_residual(DegreeSequence(seq), m) is None

    @pytest.mark.parametrize("m", [4, 5, 6])
    def test_placement_matches_the_row_by_row_build(self, m):
        # a subset fits on degrees exactly when the row-by-row build goes
        # through, and then both builds give the same graph
        compared = built = 0
        for n in range(m, 9):
            for seq in enumerate_graphical_sequences(n):
                out = kmc4.realizations._core_residual(seq, m)
                for diagonals in kmc4.realizations._pairings(m):
                    for used in range(16):
                        want_g, want_emb = row_by_row_placement(
                            seq, m, diagonals, used)
                        fits = out is not None and kmc4.realizations._first_fit(
                            seq, m, out, diagonals, (used,)) is not None
                        assert fits == (want_g is not None), (seq, diagonals, used)
                        compared += 1
                        if fits:
                            g, emb = kmc4.realizations._placement(
                                seq, m, diagonals, used)
                            assert (g.rows, emb) == (want_g.rows, want_emb), \
                                (seq, diagonals, used)
                            built += 1
        assert 0 < built < compared


def first_fit_by_rows(seq, m: int) -> tuple:
    """Reference for ``_decide_sequence``: on each distinct pairing, the
    first subset of ``_MOST_EDGES`` (of ``_MOST_EDGES[1:]`` after the
    first pairing) that ``row_by_row_placement`` builds, with every
    subset tried."""
    if (m > 4 and seq[m - 5] < m - 1) or seq[m - 1] < m - 3:
        return False, 0, None, None
    order = kmc4.realizations._MOST_EDGES
    explored = 0
    for diagonals in kmc4.realizations._distinct_pairings(seq, m):
        explored += 1
        for used in order:
            if row_by_row_placement(seq, m, diagonals, used)[0] is not None:
                return True, explored, diagonals, used
        order = kmc4.realizations._MOST_EDGES[1:]
    return False, explored, None, None


class TestRealizeAround:
    @pytest.mark.parametrize("seq,built", [
        ((4, 4, 4, 4, 2, 2), True),
        # vertex 3 finds only zero residuals outside
        ((5, 5, 5, 5, 2, 2, 1, 1), False),
        # vertex 0 needs more outside vertices than there are
        ((5, 5, 5, 5, 1), False),
        # the placed vertices fit; Havel-Hakimi outside runs short
        ((4, 4, 4, 4, 4, 4), False)])
    def test_short_lay_off_gives_none(self, seq, built):
        rows = [0b1111 ^ (1 << v) for v in range(4)] + [0] * (len(seq) - 4)
        g = kmc4.realizations._realize_around(DegreeSequence(seq), rows, 4)
        assert (g is not None) == built
        if built:
            assert g.degrees() == seq


def fm_sequence(m: int, extra=()) -> DegreeSequence:
    """The degrees of F_m alone, (m-1)^(m-4) and (m-3)^4, then ``extra``
    outside terms."""
    return DegreeSequence([m - 1] * (m - 4) + [m - 3] * 4 + list(extra))


class TestTopEmbedding:
    """F_m sits on vertices 0..m-1 of a witness, in the layout its
    pairing fixes."""

    @pytest.mark.parametrize("m", [4, 5, 8])
    def test_each_pairing_gives_its_tuple(self, m):
        a, b, c, d = range(m - 4, m)
        core = tuple(range(m - 4))
        for diagonals, want in [
                (((a, b), (c, d)), (a, c, b, d)),
                (((a, c), (b, d)), (a, b, c, d)),
                (((a, d), (b, c)), (a, b, d, c))]:
            for extra in ((), (1, 1)):
                seq = fm_sequence(m, extra)
                g, emb = kmc4.realizations._placement(seq, m, diagonals, 0)
                assert emb == want + core, (diagonals, extra)
                assert g.degrees() == tuple(seq)
                assert embedding_is_valid(g, km_minus_c4(m), emb)

    @pytest.mark.parametrize("m", [4, 8])
    def test_first_complete_pairing_wins(self, m):
        # K_m holds every pairing; the first is the one returned
        a, b, c, d = range(m - 4, m)
        res = is_potentially([m - 1] * m, km_minus_c4(m))
        assert res.witness == complete_graph(m)
        assert res.embedding == (a, c, b, d) + tuple(range(m - 4))

    @pytest.mark.parametrize("m,core_vertex,top", [
        (5, 0, 4), (8, 0, 7), (8, 3, 1), (8, 2, 5)])
    def test_core_vertex_missing_one_top_vertex(self, m, core_vertex, top):
        # a 2-switch with the outside edge keeps every degree but takes
        # the core vertex off one top vertex; the witness check refuses it
        a, b, c, d = range(m - 4, m)
        seq = fm_sequence(m, (1, 1))
        target = km_minus_c4(m)
        g, emb = kmc4.realizations._placement(seq, m, ((a, b), (c, d)), 0)
        assert kmc4.realizations._is_witness(seq, target, g, emb)
        edges = set(g.edges()) - {tuple(sorted((core_vertex, top))), (m, m + 1)}
        edges |= {(core_vertex, m), (top, m + 1)}
        bad = SmallGraph(m + 2, sorted(edges))
        assert bad.degrees() == tuple(seq)
        assert not embedding_is_valid(bad, target, emb)
        assert not kmc4.realizations._is_witness(seq, target, bad, emb)

    @pytest.mark.parametrize("m", [4, 8])
    def test_no_complete_pairing(self, m):
        # some realization holds the core, none holds F_m on the top
        # degrees in any pairing: every distinct pairing is tried
        seq = {4: (3, 1, 1, 1), 8: (8, 8, 7, 7, 7, 6, 5, 5, 5)}[m]
        _, core_held, held = top_layouts(seq, m)
        assert core_held and held == set()
        tried = len(list(kmc4.realizations._distinct_pairings(
            DegreeSequence(seq), m)))
        assert tried == {4: 1, 8: 2}[m]
        assert is_potentially(seq, km_minus_c4(m)) == \
            WitnessResult(False, None, None, tried)

    def test_positive_needs_no_search(self):
        for module in (kmc4.graphs, kmc4.realizations, kmc4.extremal,
                       kmc4.proof_replay):
            assert not hasattr(module, "find_embedding"), module.__name__
        res = is_potentially((4, 2, 2, 2, 2), BOWTIE)
        assert (res.verdict, res.explored, res.embedding) == \
            (True, 1, (1, 3, 2, 4, 0))
        assert embedding_is_valid(res.witness, BOWTIE, res.embedding)


def shuffle_pairings(monkeypatch, seed):
    """Make the decision try its distinct pairings in an order shuffled
    by ``seed``."""
    real = kmc4.realizations._distinct_pairings

    def shuffled(seq, m):
        pairings = list(real(seq, m))
        Random(seed).shuffle(pairings)
        return iter(pairings)

    monkeypatch.setattr(kmc4.realizations, "_distinct_pairings", shuffled)


def count_calls(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call; returns
    the list the calls are appended to."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestGraphicalityCheckedOnce:
    NOT_GRAPHICAL = "^sequence 3,3,1,1 is not graphical$"

    @pytest.mark.parametrize("run", [
        lambda: havel_hakimi_realize((4, 4, 3, 3, 2, 2)),
        lambda: is_potentially((4, 4, 3, 3, 2, 2), km_minus_c4(5)),
        lambda: is_potentially((4, 4, 3, 3, 2, 2), km_minus_c4(6)),
    ])
    def test_library_entry_points(self, monkeypatch, run):
        calls = count_calls(monkeypatch, kmc4.sequences, "is_graphical")
        run()
        assert len(calls) == 1

    def test_cli_realize(self, monkeypatch, capsys):
        in_library = count_calls(monkeypatch, kmc4.sequences, "is_graphical")
        in_cli = count_calls(monkeypatch, kmc4.cli, "is_graphical")
        assert kmc4.cli.main(["realize", "4,4,3,3,2,2"]) == 0
        assert capsys.readouterr().out == "E~`G\n"
        assert len(in_library) + len(in_cli) == 1

    @pytest.mark.parametrize("run", [
        lambda: havel_hakimi_realize((3, 3, 1, 1)),
        lambda: is_potentially((3, 3, 1, 1), km_minus_c4(4)),
        lambda: is_potentially((3, 3, 1, 1), km_minus_c4(5)),
    ])
    def test_library_errors_unchanged(self, run):
        with pytest.raises(InputError, match=self.NOT_GRAPHICAL):
            run()

    def test_one_message_from_every_entry_point(self):
        seq = (6, 6, 6, 6, 2, 2, 2, 2)
        messages = []
        for run in (havel_hakimi_realize, replay_theorem2,
                    lambda seq: is_potentially(seq, BOWTIE)):
            with pytest.raises(InputError) as err:
                run(seq)
            messages.append(str(err.value))
        assert messages == ["sequence 6,6,6,6,2,2,2,2 is not graphical"] * 3

    def test_one_raise_site(self):
        # every entry point that needs a realization goes through one gate
        sites = []
        for path in sorted(Path(kmc4.__file__).parent.glob("*.py")):
            for func in ast.walk(ast.parse(path.read_text("utf-8"))):
                if isinstance(func, ast.FunctionDef):
                    sites += [func.name for node in ast.walk(func)
                              if isinstance(node, ast.Raise)
                              and "is not graphical" in ast.unparse(node)]
        assert sites == ["_graphical"]

    def test_cli_bad_m_on_graphical_sequence(self, capsys):
        assert kmc4.cli.main(["potential", "4,2,2,2,2", "--m", "3"]) == 2
        assert capsys.readouterr() == (
            "", "error: pattern needs m >= 4, got 3\n")

    @pytest.mark.parametrize("argv", [
        ["realize", "3,3,1,1"], ["potential", "3,3,1,1", "--m", "4"],
        ["replay", "6,6,6,6,2,2,2,2"]])
    def test_cli_errors_unchanged(self, capsys, argv):
        assert kmc4.cli.main(argv) == 2
        assert capsys.readouterr().err == \
            f"error: sequence {argv[1]} is not graphical\n"

    @pytest.mark.parametrize("argv", [
        ["potential", "3,3,1,1"],
        ["--json", "--budget", "8", "potential", "3,3,1,1", "--m", "5"],
        ["potential", "5,1,1,1", "--m", "6"],
        ["--json", "potential", "3,3,3,3,3,1,1", "--m", "4"],
        ["potential", "3,3,1,1", "--m", "3"],
        ["potential", "3,3,1,1", "--m", "40"]])
    def test_cli_potential_errors_unchanged(self, capsys, argv):
        # fewer terms than m too, and ahead of a bad --m: a non-graphical
        # query is reported as such, after the notice an ignored --budget
        # prints
        text = argv[argv.index("potential") + 1]
        notice = BUDGET_NOTICE if "--budget" in argv else ""
        assert kmc4.cli.main(argv) == 2
        assert capsys.readouterr() == (
            "", f"{notice}error: sequence {text} is not graphical\n")

    @pytest.mark.parametrize("argv,code", [
        (["potential", "4,4,3,3,2,2", "--m", "5"], 0),
        (["--json", "--budget", "8", "potential", "4,4,3,3,2,2", "--m", "6"],
         1),
        (["potential", "2,2,2", "--m", "5"], 1)])
    def test_cli_potential(self, monkeypatch, capsys, argv, code):
        in_library = count_calls(monkeypatch, kmc4.sequences, "is_graphical")
        in_cli = count_calls(monkeypatch, kmc4.cli, "is_graphical")
        assert kmc4.cli.main(argv) == code
        assert len(in_library) + len(in_cli) == 1


class TestBrokenInvariant:
    """A check that fails only on a bug in the library raises
    AssertionError, which the command line does not turn into exit 2."""

    @pytest.mark.parametrize("name,fake,message", [
        ("_realize_around", lambda *args: None, "ran out of layoff targets"),
        ("_is_witness", lambda *args: False, "fails its check")],
        ids=["_realize_around", "_is_witness"])
    def test_raises_assertion_error(self, monkeypatch, name, fake, message):
        monkeypatch.setattr(kmc4.realizations, name, fake)
        with pytest.raises(AssertionError, match=message):
            is_potentially((4, 2, 2, 2, 2), BOWTIE)
        with pytest.raises(AssertionError, match=message):
            kmc4.cli.main(["potential", "4,2,2,2,2"])


class TestInterchange:
    def test_known_instance(self):
        g = two_k4_matching()
        h = _interchange(g, 0, 1, 3, 4, 5, 6)
        assert sorted(h.degrees()) == sorted(g.degrees())
        # the move trades exactly three edges for three others
        assert h.edge_count == g.edge_count
        assert not h.has_edge(4, 6) and not h.has_edge(0, 3)
        assert not h.has_edge(1, 5)
        assert h.has_edge(4, 1) and h.has_edge(6, 0) and h.has_edge(5, 3)
        assert find_embedding(h, BOWTIE) is not None

    def test_source_graph_untouched(self):
        g = two_k4_matching()
        _interchange(g, 0, 1, 3, 4, 5, 6)
        assert g == two_k4_matching()

    def test_seeded_valid_instances_preserve_degrees(self):
        rng = Random(41)
        done = 0
        while done < 60:
            g = random_graph(8, rng.uniform(0.4, 0.7), rng)
            picked = None
            for quad in combinations(range(8), 4):
                if not all(g.has_edge(a, b) for a, b in combinations(quad, 2)):
                    continue
                for v1, v2, v3, v4 in permutations(quad):
                    ok = False
                    for y1 in (set(_bits(g.rows[v1])) - set(quad)):
                        if g.has_edge(y1, v2):
                            continue
                        for y2 in (set(_bits(g.rows[v2])) - set(quad) - {y1}):
                            if g.has_edge(y2, v4):
                                continue
                            for y3 in set(_bits(g.rows[y1])) - {v1, y2}:
                                if y3 in quad or y3 == y1 or g.has_edge(y3, v1):
                                    continue
                                picked = (v1, v2, v3, v4, y1, y2, y3)
                                ok = True
                                break
                            if ok:
                                break
                        if ok:
                            break
                    if ok:
                        break
                if picked:
                    break
            if not picked:
                continue
            v1, v2, _, v4, y1, y2, y3 = picked
            h = _interchange(g, v1, v2, v4, y1, y2, y3)
            assert sorted(h.degrees()) == sorted(g.degrees())
            assert find_embedding(h, BOWTIE) is not None
            done += 1
