from __future__ import annotations

import re

import pytest
from ffactor import potentially
from helpers import (decode_graph6, encode_graph6_by_bits, find_embedding,
                     graphical_sequences_by_filter, is_graphical_quadratic,
                     labeled_realizations, nonincreasing_tuples,
                     sigma_by_full_sweep, uplifts_by_positions)

import kmc4.extremal
import kmc4.proof_replay
import kmc4.realizations
from kmc4 import (DegreeSequence, InputError, SmallGraph, extremal_witness,
                  graphical_sequences_with_sum, is_potentially, km_minus_c4,
                  sigma_exact, sigma_lower_bound, verify_conjecture,
                  verify_theorem1, verify_theorem2_range)
from kmc4.extremal import _clique_covers_edges, _uplifts
from kmc4.realizations import _decide_sequence

# Exact thresholds confirmed by the exhaustive sweep, frozen here so a
# regression in any underlying layer trips loudly. The failing sequences
# at threshold minus two are pinned as well.
EXACT_TABLE = {
    (4, 4): (8, ((3, 1, 1, 1), (2, 2, 2, 0))),
    (4, 5): (10, ((4, 1, 1, 1, 1),)),
    (4, 6): (12, ((5, 1, 1, 1, 1, 1),)),
    (4, 7): (14, ((6, 1, 1, 1, 1, 1, 1),)),
    (4, 8): (16, ((7, 1, 1, 1, 1, 1, 1, 1),)),
    (5, 5): (16, ((4, 4, 2, 2, 2), (4, 3, 3, 3, 1), (3, 3, 3, 3, 2))),
    (5, 6): (20, ((5, 5, 2, 2, 2, 2), (3, 3, 3, 3, 3, 3))),
    (5, 7): (24, ((6, 6, 2, 2, 2, 2, 2),)),
    (5, 8): (28, ((7, 7, 2, 2, 2, 2, 2, 2),)),
    (6, 6): (26, ((5, 5, 5, 3, 3, 3), (5, 5, 4, 4, 4, 2),
                  (5, 4, 4, 4, 4, 3), (4, 4, 4, 4, 4, 4))),
    (6, 7): (32, ((6, 6, 6, 3, 3, 3, 3), (6, 4, 4, 4, 4, 4, 4))),
    (6, 8): (38, ((7, 7, 7, 3, 3, 3, 3, 3),)),
}

# m = 7 and 8, from the same sweep: the threshold exceeds the formula at
# every n here except (7, 11), where it matches.
TABLE_M7_M8 = {
    (7, 8): (50, ((6,) * 8,)),
    (7, 9): (56, ((6,) * 9,)),
    (7, 10): (64, ((8,) + (6,) * 9, (7, 7) + (6,) * 8)),
    (7, 11): (70, ((10,) * 4 + (4,) * 7, (8,) + (6,) * 10,
                   (7, 7) + (6,) * 9)),
    (8, 9): (66, ((8,) + (7,) * 8,)),
    (8, 10): (82, ((8,) * 10,)),
    (8, 11): (90, ((8,) * 11,)),
}

# Beyond the default limit, from the sweep by induction on n; each
# matches the formula, and its one failing sequence is the witness's.
TABLE_PAST_LIMIT = {
    (5, 16): (60, ((15,) * 2 + (2,) * 14,)),
    (6, 16): (86, ((15,) * 3 + (3,) * 13,)),
    (7, 16): (110, ((15,) * 4 + (4,) * 12,)),
    (5, 24): (92, ((23,) * 2 + (2,) * 22,)),
    (6, 20): (110, ((19,) * 3 + (3,) * 17,)),
    (7, 18): (126, ((17,) * 4 + (4,) * 14,)),
    (5, 34): (132, ((33,) * 2 + (2,) * 32,)),
}


class TestLowerBound:
    @pytest.mark.parametrize("m,n,want", [
        (5, 5, 16), (5, 6, 20), (5, 7, 24), (5, 8, 28),
        (4, 4, 8), (4, 8, 16), (6, 6, 26), (6, 7, 32), (6, 8, 38),
        (7, 7, 38),
    ])
    def test_values(self, m, n, want):
        assert sigma_lower_bound(m, n) == want

    # extremal_witness, verify_theorem1 and sigma_exact check m and n
    # through sigma_lower_bound, by the count rule: an int, not a bool,
    # m at least 4 and n at least m
    THROUGH_THE_BOUND = (sigma_lower_bound, extremal_witness,
                         verify_theorem1, sigma_exact)

    def test_rejects_small_m(self):
        for f in self.THROUGH_THE_BOUND:
            for m in (3, 4.5, 5.0, True, "5"):
                with pytest.raises(InputError, match="^m must be an integer "
                                   rf">= 4, got {re.escape(repr(m))}$"):
                    f(m, 9)

    def test_rejects_n_below_m(self):
        for f in self.THROUGH_THE_BOUND:
            for n in (4, 9.0, True, "9"):
                with pytest.raises(InputError, match="^n must be an integer "
                                   rf">= 5, got {re.escape(repr(n))}$"):
                    f(5, n)


class TestExtremalWitness:
    def test_shape(self):
        g, seq = extremal_witness(5, 8)
        assert seq == (7, 7) + (2,) * 6
        assert DegreeSequence(g.degrees()) == seq

    def test_sum_two_below_bound(self):
        for m in range(4, 8):
            for n in range(m, 10):
                _, seq = extremal_witness(m, n)
                assert sum(seq) == sigma_lower_bound(m, n) - 2

    def test_avoids_pattern(self):
        for m, n in [(4, 6), (5, 7), (6, 8)]:
            g, _ = extremal_witness(m, n)
            assert find_embedding(g, km_minus_c4(m)) is None


class TestVerifyTheorem1:
    def test_passes_at_sample_points(self):
        for m, n in [(4, 4), (5, 6), (6, 9), (9, 9)]:
            report = verify_theorem1(m, n)
            assert report.passed
            assert report.realization_classes == 1
            assert report.pattern_free
            assert report.sum_is_bound_minus_two

    def test_full_grid_to_default_limit(self):
        # n = 12 is the default limit.
        for m in range(4, 9):
            for n in range(m, 13):
                report = verify_theorem1(m, n)
                assert report.passed, (m, n)

    def test_classes_match_the_class_walk(self):
        # one class because one labeled realization, by brute force; the
        # 2-switch class walk the name recalls is retired
        for m in range(4, 10):
            for n in range(m, 10):
                report = verify_theorem1(m, n)
                labeled = sum(1 for _ in labeled_realizations(report.sequence))
                assert report.realization_classes == labeled == 1, (m, n)

    def test_every_point_up_to_the_bitmask_width(self):
        # nothing is searched, so no enumeration limit applies; 64
        # vertices take graph6's long size header
        for m in range(4, 65):
            for n in range(m, 65):
                assert verify_theorem1(m, n).passed, (m, n)

    def test_vertex_limit(self):
        # no length is refused: the witness at 33 and 64 vertices is the
        # construction, and holds no F_5
        for n in (33, 64):
            report = verify_theorem1(5, n)
            assert report.passed
            g = decode_graph6(report.witness_graph6)
            assert encode_graph6_by_bits(g) == report.witness_graph6
            assert g.degrees() == (n - 1, n - 1) + (2,) * (n - 2)
            assert find_embedding(g, km_minus_c4(5)) is None

    def test_cover_check_agrees_with_the_embedding_search(self):
        for m in range(4, 10):
            for n in range(m, 10):
                g, _ = extremal_witness(m, n)
                assert _clique_covers_edges(g, m) == (
                    find_embedding(g, km_minus_c4(m)) is None), (m, n)

    def test_cover_check_fails_on_a_mutated_witness(self):
        # one edge between two vertices of the independent side
        for m in range(4, 10):
            for n in range(m, 10):
                g, _ = extremal_witness(m, n)
                bad = SmallGraph(n, list(g.edges()) + [(m - 3, m - 2)])
                assert not _clique_covers_edges(bad, m), (m, n)
                assert find_embedding(bad, km_minus_c4(m)) is not None, (m, n)

    def test_json_dict_fields(self):
        d = verify_theorem1(5, 6).to_json_dict()
        assert d["passed"] is True
        assert d["sequence"] == [5, 5, 2, 2, 2, 2]
        assert isinstance(d["witness"], str)


class TestSigmaExact:
    @pytest.mark.parametrize("m,n", sorted(EXACT_TABLE))
    def test_frozen_table(self, m, n):
        want_exact, want_extremal = EXACT_TABLE[(m, n)]
        report = sigma_exact(m, n)
        assert report.exact == want_exact
        assert report.verdict == "matches"
        assert tuple(tuple(s) for s in report.extremal_sequences) == want_extremal
        assert len(report.witnesses) == len(want_extremal)

    @pytest.mark.parametrize("m,n", sorted(TABLE_M7_M8))
    def test_frozen_table_m7_m8(self, m, n):
        want_exact, want_extremal = TABLE_M7_M8[(m, n)]
        report = sigma_exact(m, n)
        assert report.exact == want_exact
        assert report.verdict == ("matches" if want_exact == report.lower_bound
                                  else "exceeds")
        assert tuple(tuple(s) for s in report.extremal_sequences) == want_extremal

    def test_extremal_sequences_sit_two_below(self):
        report = sigma_exact(5, 6)
        for s in report.extremal_sequences:
            assert sum(s) == report.exact - 2

    def test_vertex_limit(self):
        with pytest.raises(InputError, match=re.escape(
                "exact threshold limited to 12 vertices (got 13)")):
            sigma_exact(5, 13, limit=12)

    def test_progress_callback(self):
        lines = []
        sigma_exact(5, 5, progress=lines.append)
        assert lines and all("m=5 n=5" in ln for ln in lines)

    def test_progress_shows_every_length_and_its_floor(self):
        lines = []
        sigma_exact(5, 7, progress=lines.append)
        parsed = [re.fullmatch(r"m=5 n=(\d+) sum=(\d+) floor=(\d+): \d+ "
                               r"sequences, (\d+) failing, \d+ placements, "
                               r"(\d+) uplifts", ln)
                  for ln in lines]
        assert all(parsed)
        ns = [int(p[1]) for p in parsed]
        assert ns == sorted(ns) and set(ns) == {5, 6, 7}
        assert all(p[3] == "0" and p[5] == "0" for p in parsed if p[1] == "5")
        # sigma(5, 5) = 16, so level 18 at n = 6 walks least terms from
        # (18 - 16) / 2 + 2 = 3 and finds (3^6); least term 2 is left to
        # the 3 uplifts of the failing list at n = 5, of which
        # (5, 5, 2, 2, 2, 2) fails
        last_n6 = lines[len(ns) - ns[::-1].index(6) - 1]
        assert last_n6.startswith("m=5 n=6 sum=18 floor=3: 1 sequences, ")
        assert ", 2 failing, " in last_n6
        assert last_n6.endswith(", 3 uplifts")

    def test_json_dict(self):
        d = sigma_exact(5, 5).to_json_dict()
        assert d["exact"] == 16 and d["formula"] == 16
        assert d["verdict"] == "matches"
        assert [4, 4, 2, 2, 2] in d["extremal_sequences"]


class TestSweepByInduction:
    @pytest.mark.parametrize("m,n", [(m, n) for m in range(4, 9)
                                     for n in range(m, 11)])
    def test_same_report_as_the_full_sweep(self, m, n):
        assert sigma_exact(m, n) == sigma_by_full_sweep(m, n)

    @pytest.mark.parametrize("n", range(5, 10))
    def test_deletion_lemma(self, n):
        # least term d with S - 2d >= sigma(m, n - 1): always potential
        below = {m: sigma_by_full_sweep(m, n - 1).exact for m in range(4, n)}
        for total in range(min(below.values()), n * (n - 1) + 1, 2):
            for seq in graphical_sequences_by_filter(n, total):
                for m, s in below.items():
                    if 2 * seq[-1] <= total - s:
                        assert _decide_sequence(seq, m)[0], (m, seq)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_uplifts_match_the_position_oracle(self, k):
        # every graphical r with k terms and every least term d
        for r in nonincreasing_tuples(k, k - 1):
            if not is_graphical_quadratic(r):
                continue
            for d in range(k + 1):
                got = list(_uplifts(r, d))
                assert len(got) == len(set(got)), (r, d)
                assert set(got) == uplifts_by_positions(r, d), (r, d)

    @pytest.mark.parametrize("m,n", sorted(TABLE_PAST_LIMIT))
    def test_frozen_rows_beyond_the_default_limit(self, m, n):
        want_exact, want_extremal = TABLE_PAST_LIMIT[(m, n)]
        report = sigma_exact(m, n, limit=n)
        assert report.exact == want_exact
        assert report.verdict == "matches"
        assert report.extremal_sequences == want_extremal
        assert want_extremal == (extremal_witness(m, n)[1],)


class TestAgainstTheFFactorOracle:
    """Thresholds checked by ``ffactor``, which shares no code with kmc4
    and runs no sweep."""

    @pytest.mark.parametrize("m,n,failing", [
        (m, n, seq) for (m, n), (_, failures)
        in sorted(TABLE_PAST_LIMIT.items()) for seq in failures]
        + [(10, 18, (12,) * 18)]
        + [(m, n, seq) for (m, n), (_, failures)
           in sorted(TABLE_M7_M8.items()) if (m, n) != (7, 10)
           for seq in failures])
    def test_failing_sequence_past_the_limit(self, m, n, failing):
        # (12^18) is the one failing sequence of sigma(10, 18) = 218; the
        # rows after it are TABLE_M7_M8's, inside the limit, all but
        # (7, 10), which test_both_threshold_levels covers
        assert len(failing) == n
        assert not potentially(failing, m)

    @pytest.mark.parametrize("m,n,exact", [(7, 10, 64), (8, 12, 100)])
    def test_both_threshold_levels(self, m, n, exact):
        # every sequence on the levels exact - 2 and exact: the oracle
        # agrees with the decision, fails some on the lower level, and
        # passes the whole upper one
        target = km_minus_c4(m)
        failing = {}
        for level in (exact - 2, exact):
            failing[level] = []
            for seq in graphical_sequences_with_sum(n, level):
                verdict = potentially(seq, m)
                assert is_potentially(seq, target).verdict == verdict, seq
                if not verdict:
                    failing[level].append(seq)
        assert failing[exact - 2] and not failing[exact]
        if (m, n) in TABLE_M7_M8:
            assert tuple(failing[exact - 2]) == TABLE_M7_M8[(m, n)][1]


class TestSweepSkipsWhatDegreesRuleOut:
    def test_counts_of_the_sweep_workload(self, monkeypatch):
        # sigma_exact(m, 9) for m = 4, 5, 6: no cycle-edge subset that
        # degree arithmetic rules out reaches a lay-off, none of those
        # that do gets a negative demand, and no level that can hold
        # nothing is scanned
        demands = []
        real = kmc4.realizations._lay_off_degrees

        def counted(out, needs):
            demands.append(tuple(needs))
            return real(out, needs)

        monkeypatch.setattr(kmc4.realizations, "_lay_off_degrees", counted)
        lines = []
        for m in (4, 5, 6):
            sigma_exact(m, 9, progress=lines.append)
        assert len(demands) == 111
        assert all(k >= 0 for needs in demands for k in needs)
        assert len(lines) == 38

    @pytest.mark.parametrize("m", range(4, 9))
    def test_no_level_above_the_start(self, m):
        # a level S at n > m holds something only when the least term d
        # it would lift, (S - sigma(n - 1) + 2) / 2, has d * n <= S
        lines = []
        exact = {r.n: r.exact for r in
                 verify_conjecture(m, 11, progress=lines.append)}
        for line in lines:
            n, level = map(int, re.match(r"m=\d+ n=(\d+) sum=(\d+) ",
                                         line).groups())
            if n > m:
                assert level * (n - 2) <= n * (exact[n - 1] - 2), line


class TestVerifyConjecture:
    def test_m4_range(self):
        reports = verify_conjecture(4, 6)
        assert [r.n for r in reports] == [4, 5, 6]
        assert all(r.verdict == "matches" for r in reports)
        assert all(r.exact == 2 * r.n for r in reports)

    def test_empty_below_m(self):
        # the reports start at n = m; an n_max below it leaves none, but
        # m is checked first, so a bad m raises whatever n_max is
        assert verify_conjecture(5, 4) == []
        assert verify_conjecture(5, 0) == []
        for n_max in (2, 5):
            with pytest.raises(InputError,
                               match="^m must be an integer >= 4, got 3$"):
                verify_conjecture(3, n_max)

    def test_vertex_limit(self):
        with pytest.raises(InputError, match=re.escape(
                "exact threshold limited to 12 vertices (got 13)")):
            verify_conjecture(4, 13, limit=12)


class TestOneLimitGuard:
    """The sweep is the one place the vertex limit is checked: every
    threshold driver raises its InputError before a level is walked."""

    @pytest.mark.parametrize("driver", [
        lambda: sigma_exact(4, 13, limit=12),
        lambda: verify_conjecture(4, 13, limit=12),
        lambda: verify_theorem2_range(13, limit=12)],
        ids=["sigma_exact", "verify_conjecture", "verify_theorem2_range"])
    def test_raised_before_the_walk(self, monkeypatch, driver):
        def walk(*args, **kwargs):
            raise AssertionError("a sequence walk started")

        for module in (kmc4.extremal, kmc4.proof_replay):
            monkeypatch.setattr(module, "graphical_sequences_with_sum", walk)
        with pytest.raises(InputError, match=re.escape(
                "exact threshold limited to 12 vertices (got 13)")):
            driver()
