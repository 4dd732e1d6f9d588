from __future__ import annotations

import copy
import pickle
import re
from itertools import islice

import pytest
from helpers import (enumerate_graphical_sequences,
                     graphical_sequences_by_filter, gray_code_degree_map,
                     is_graphical_quadratic, labeled_realizations,
                     nonincreasing_tuples)

import kmc4.sequences
from kmc4 import (DegreeSequence, InputError, graphical_sequences_with_sum,
                  havel_hakimi_realize, is_graphical, is_potentially,
                  km_minus_c4, replay_theorem2)
from kmc4.sequences import _is_threshold


class TestDegreeSequence:
    def test_sorts_descending(self):
        assert DegreeSequence((1, 3, 2)) == (3, 2, 1)

    def test_n(self):
        assert DegreeSequence((2, 2, 2)).n == 3

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            DegreeSequence(())

    def test_rejects_negative(self):
        with pytest.raises(InputError):
            DegreeSequence((2, -1))

    def test_rejects_non_integer(self):
        with pytest.raises(InputError):
            DegreeSequence((2.5, 1))

    def test_degree_sequence_returned_unchanged(self):
        ds = DegreeSequence((1, 3, 2))
        assert DegreeSequence(ds) is ds

    def test_other_iterables_still_normalized(self):
        class Terms(tuple):
            pass

        for raw in ([1, 3, 2], (1, 3, 2), Terms((1, 3, 2))):
            ds = DegreeSequence(raw)
            assert type(ds) is DegreeSequence
            assert ds == (3, 2, 1) and ds is not raw
        for bad in ([2, -1], (2.5, 1), Terms((2, -1)), Terms(())):
            with pytest.raises(InputError):
                DegreeSequence(bad)


class TestTermRule:
    """A term is an int, not a bool, checked before the terms are sorted;
    every entry point applies the one rule and raises InputError."""

    # each malformed term first in input order, with the sequence
    MALFORMED = [
        (True, (True, True, 1, 1)), (True, (True, True)),
        (True, (4, 2, 2, 2, True, True)),  # graphical, read as 1s
        (1.0, (1.0, 1.0)), (2.0, (4, 2, 2, 2, 2.0)),
        ("a", ("a",)), ("a", ["a", 1]), ("2", [4, 2, 2, "2", 2]),
        (None, (3, None, 1)),
    ]
    ENTRY_POINTS = {
        "DegreeSequence": DegreeSequence,
        "is_graphical": is_graphical,
        "havel_hakimi_realize": havel_hakimi_realize,
        "is_potentially": lambda seq: is_potentially(seq, km_minus_c4(5)),
        "replay_theorem2": replay_theorem2,
    }

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    @pytest.mark.parametrize("term,seq", MALFORMED)
    def test_malformed_term_raises_input_error(self, name, term, seq):
        message = f"^degree {re.escape(repr(term))} is not an integer$"
        with pytest.raises(InputError, match=message):
            self.ENTRY_POINTS[name](seq)

    def test_is_graphical_answers_false_on_out_of_range_terms(self):
        for bad in ((2, -1), [-1], (1, 1, -2, 0), (3, 1, 1), [5, 1, 1, 1, 1],
                    (1, 4, 2, 1)):
            assert is_graphical(bad) is False, bad

    def test_degree_sequence_read_without_a_second_sort(self, monkeypatch):
        yes, no = DegreeSequence((1, 3, 2, 2, 2)), DegreeSequence((3, 3, 1, 1))

        def refuse(values):
            raise AssertionError(f"terms of {values} checked again")

        monkeypatch.setattr(kmc4.sequences, "_sorted_terms", refuse)
        assert is_graphical(yes) is True
        assert is_graphical(no) is False


class TestPickle:
    def test_round_trip_keeps_type_and_value(self):
        ds = DegreeSequence((1, 3, 2, 2))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(ds, protocol))
            assert type(back) is DegreeSequence, protocol
            assert back == ds == (3, 2, 2, 1), protocol
        for back in (copy.copy(ds), copy.deepcopy(ds)):
            assert type(back) is DegreeSequence and back == ds

    def test_round_trip_inside_containers(self):
        seqs = [DegreeSequence((3, 3, 2, 2, 1, 1)), DegreeSequence((0,))]
        back = pickle.loads(pickle.dumps(seqs))
        assert back == seqs
        assert [type(s) for s in back] == [DegreeSequence] * 2
        assert [s.n for s in back] == [6, 1]


class TestTextForms:
    def test_comma_form(self):
        assert DegreeSequence.from_text("4,2,2,2,2") == (4, 2, 2, 2, 2)

    def test_power_form(self):
        assert DegreeSequence.from_text("5,3^5") == (5, 3, 3, 3, 3, 3)

    def test_mixed_form(self):
        assert DegreeSequence.from_text("5^2,2^3,1") == (5, 5, 2, 2, 2, 1)

    def test_whitespace_tolerated(self):
        assert DegreeSequence.from_text(" 3, 2 ,1 ") == (3, 2, 1)

    @pytest.mark.parametrize("bad", ["", "a,b", "3^0", "3^-1", "2^x", "^4"])
    def test_bad_text(self, bad):
        with pytest.raises(InputError):
            DegreeSequence.from_text(bad)

    def test_to_text_plain(self):
        assert DegreeSequence((4, 2, 2)).to_text() == "4,2,2"

    def test_text_round_trip(self):
        seq = DegreeSequence((7, 7, 2, 2, 2, 2, 2, 2))
        assert DegreeSequence.from_text("7^2,2^6") == seq
        assert DegreeSequence.from_text(seq.to_text()) == seq


class TestIsGraphical:
    def test_known_negative(self):
        # the two 3s would each need the other plus both 1s
        assert not is_graphical((3, 3, 1, 1))

    def test_known_positive(self):
        assert is_graphical((2, 1, 1))
        assert is_graphical((3, 3, 3, 3))

    def test_single_vertex(self):
        assert is_graphical((0,))
        assert not is_graphical((1,))

    def test_odd_sum(self):
        assert not is_graphical((2, 2, 1))

    def test_degree_too_large(self):
        assert not is_graphical((3, 1, 1))

    def test_empty_raises(self):
        with pytest.raises(InputError):
            is_graphical(())

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_agrees_with_exhaustive_realization_search(self, n):
        # ground truth: the set of degree tuples that actually occur over
        # every labeled graph on n vertices
        realizable = set(gray_code_degree_map(n))
        for t in nonincreasing_tuples(n, n):
            assert is_graphical(t) == (t in realizable), t

    def test_agrees_with_quadratic_form(self):
        checked = 0
        for n in range(1, 9):
            for t in nonincreasing_tuples(n, n - 1):
                assert is_graphical(t) == is_graphical_quadratic(t), t
                checked += 1
                # a term out of range, and a negative term
                for bad in ((n,) + t[1:], t[:-1] + (-1,)):
                    assert is_graphical(bad) == is_graphical_quadratic(bad)
                    assert not is_graphical(bad)
        assert checked == 8788


class TestIsThreshold:
    def test_unique_realization_exactly_when_no_switch(self):
        # A sequence is a threshold sequence exactly when it has one
        # labeled realization; they are counted by brute force, up to two.
        checked = 0
        threshold = 0
        for n in range(1, 10):
            for seq in enumerate_graphical_sequences(n):
                unique = len(list(islice(labeled_realizations(seq), 2))) == 1
                assert _is_threshold(seq) == unique, seq
                checked += 1
                threshold += unique
        assert (checked, threshold) == (6067, 511)


class TestEnumerationBySum:
    def test_two_vertices_all_levels(self):
        seqs = {tuple(s) for s in enumerate_graphical_sequences(2)}
        assert seqs == {(0, 0), (1, 1)}

    def test_three_vertices_min_sum_four(self):
        seqs = {tuple(s) for s in enumerate_graphical_sequences(3, min_sum=4)}
        assert seqs == {(2, 2, 2), (2, 1, 1)}

    def test_min_sum_is_inclusive(self):
        seqs = {tuple(s) for s in enumerate_graphical_sequences(2, min_sum=2)}
        assert seqs == {(1, 1)}

    def test_sum_major_descending_then_lex_descending(self):
        out = [tuple(s) for s in enumerate_graphical_sequences(4, min_sum=8)]
        sums = [sum(s) for s in out]
        assert sums == sorted(sums, reverse=True)
        for level in set(sums):
            block = [s for s in out if sum(s) == level]
            assert block == sorted(block, reverse=True)

    def test_single_level(self):
        seqs = [tuple(s) for s in graphical_sequences_with_sum(4, 6)]
        assert seqs == sorted(seqs, reverse=True)
        assert (2, 2, 1, 1) in seqs and (3, 1, 1, 1) in seqs

    def test_odd_sum_is_empty(self):
        assert list(graphical_sequences_with_sum(4, 5)) == []

    def test_sum_out_of_range(self):
        with pytest.raises(InputError):
            list(graphical_sequences_with_sum(4, 14))
        with pytest.raises(InputError):
            list(graphical_sequences_with_sum(4, -2))

    def test_vertex_guard(self):
        # the walk refuses no length: the threshold drivers' sweep checks
        # their length cap before any walk starts; a third positional
        # argument, once the cap, is refused rather than read as a floor
        assert (list(graphical_sequences_with_sum(13, 13 * 12))
                == [(12,) * 13])
        with pytest.raises(TypeError):
            graphical_sequences_with_sum(13, 0, 12)

    def test_every_level_complete_against_oracle(self):
        # per-level slices must partition the realizable tuples
        realizable = set(gray_code_degree_map(5))
        for total in range(0, 21, 2):
            got = {tuple(s) for s in graphical_sequences_with_sum(5, total)}
            want = {t for t in realizable if sum(t) == total}
            assert got == want, total


class TestPrunedWalk:
    """The prefix-pruned walk against the partition-and-filter reference."""

    def test_same_order_as_filter_to_n10(self):
        for n in range(1, 11):
            for total in range(0, n * (n - 1) + 1, 2):
                got = list(graphical_sequences_with_sum(n, total))
                assert got == list(graphical_sequences_by_filter(n, total)), (n, total)
                assert all(type(s) is DegreeSequence for s in got)

    def test_same_order_as_filter_n11_high_sums(self):
        for total in range(40, 111, 2):
            assert (list(graphical_sequences_with_sum(11, total))
                    == list(graphical_sequences_by_filter(11, total))), total

    def test_floor_filters_the_walk_in_order(self):
        for n in range(1, 10):
            for total in range(0, n * (n - 1) + 1, 2):
                full = list(graphical_sequences_by_filter(n, total))
                for floor in range(n + 1):
                    got = list(graphical_sequences_with_sum(
                        n, total, min_term=floor))
                    assert got == [s for s in full if s[-1] >= floor], (
                        n, total, floor)

    def test_negative_floor_rejected(self):
        with pytest.raises(InputError, match="negative term floor -1"):
            list(graphical_sequences_with_sum(4, 6, min_term=-1))

    def test_odd_sums_yield_nothing(self):
        for n in range(2, 11):
            for total in range(1, n * (n - 1), 2):
                assert list(graphical_sequences_with_sum(n, total)) == []

    @pytest.mark.parametrize("n,total", [
        (0, 0), (-1, 0), (4, -2), (4, 14), (1, 2)])
    def test_same_errors_as_filter(self, n, total):
        with pytest.raises(InputError) as want:
            list(graphical_sequences_by_filter(n, total))
        with pytest.raises(InputError,
                           match=f"^{re.escape(str(want.value))}$"):
            list(graphical_sequences_with_sum(n, total))


class TestOpenInequalityLeafCheck:
    """Each leaf checks only the Erdos-Gallai inequalities the prune left
    open: the run ends d_k > d_{k+1} among the terms d_k > k."""

    def test_accepts_exactly_the_graphical_tuples_to_n8(self):
        for n in range(1, 9):
            walked = {s for total in range(0, n * (n - 1) + 1, 2)
                      for s in graphical_sequences_with_sum(n, total)}
            for t in nonincreasing_tuples(n, n - 1):
                assert (t in walked) == is_graphical(t), t

    def test_walk_runs_no_full_test(self, monkeypatch):
        def refuse(seq):
            raise AssertionError(f"full test run on {seq}")

        monkeypatch.setattr(kmc4.sequences, "is_graphical", refuse)
        assert len(list(enumerate_graphical_sequences(9, 40))) > 0
