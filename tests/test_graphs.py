from __future__ import annotations

import re
from itertools import combinations
from random import Random

import networkx
import pytest
from helpers import (brute_embedding_exists, brute_isomorphic, decode_graph6,
                     embedding_is_valid, encode_graph6_by_bits,
                     find_embedding, random_graph)

from kmc4 import (DegreeSequence, InputError, SmallGraph, encode_graph6,
                  extremal_witness, havel_hakimi_realize, km_minus_c4)
from kmc4.graphs import _bits, is_embedding


def two_independent_edges() -> SmallGraph:
    return SmallGraph(4, [(0, 1), (2, 3)])


class TestSmallGraph:
    def test_basic_accessors(self):
        g = SmallGraph(4, [(0, 1), (1, 2)])
        assert g.n == 4
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 2)
        assert g.rows[1].bit_count() == 2
        assert tuple(g.degrees()) == (1, 2, 1, 0)
        assert g.edge_count == 2
        assert g.edges() == [(0, 1), (1, 2)]
        assert list(_bits(g.rows[1])) == [0, 2]

    def test_equality_and_hash(self):
        a = SmallGraph(3, [(0, 1)])
        b = SmallGraph(3, [(1, 0)])
        assert a == b and hash(a) == hash(b)
        assert a != SmallGraph(3, [(0, 2)])

    def test_repr_names_the_order_and_the_edges(self):
        g = SmallGraph(4, [(2, 1), (0, 3)])
        assert repr(g) == "SmallGraph(4, [(0, 3), (1, 2)])"
        assert eval(repr(g), {"SmallGraph": SmallGraph}) == g

    def test_rejects_self_loop(self):
        with pytest.raises(InputError):
            SmallGraph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            SmallGraph(3, [(0, 3)])

    @pytest.mark.parametrize("edge", [(0, 1, 2), (0,), 5, None])
    def test_rejects_an_edge_that_is_not_a_pair(self, edge):
        with pytest.raises(InputError, match=(
                rf"^edge {re.escape(repr(edge))} is not a pair$")):
            SmallGraph(3, [(1, 2), edge])

    def test_rejects_oversize(self):
        # rows are as wide as the graph: 33 and 64 vertices are accepted
        for n in (33, 64):
            edges = [(0, n - 1), (5, 32), (n - 3, n - 2)]
            g = SmallGraph(n, edges)
            assert g.n == n and g.edges() == edges
            assert g.has_edge(n - 1, 0) and not g.has_edge(0, 5)
            assert encode_graph6_by_bits(g) == encode_graph6(g)


class TestTargetPattern:
    def test_m4_is_two_independent_edges(self):
        t = km_minus_c4(4)
        assert t.n == 4
        assert t.edge_count == 2
        assert DegreeSequence(t.degrees()) == (1, 1, 1, 1)
        assert brute_isomorphic(t, two_independent_edges())

    def test_m5_is_bowtie(self):
        t = km_minus_c4(5)
        assert t.n == 5
        assert DegreeSequence(t.degrees()) == (4, 2, 2, 2, 2)
        assert t.edge_count == 6
        # removing the cycle edges leaves the diagonals
        assert not t.has_edge(0, 1)
        assert t.has_edge(0, 2) and t.has_edge(1, 3)

    def test_m6_shape(self):
        t = km_minus_c4(6)
        assert t.n == 6
        assert DegreeSequence(t.degrees()) == (5, 5, 3, 3, 3, 3)
        assert t.edge_count == 11

    @pytest.mark.parametrize("m", range(4, 10))
    def test_join_characterization(self, m):
        # F_m is K_{m-4} joined with two independent edges
        built = networkx.full_join(
            networkx.complete_graph(m - 4),
            networkx.Graph([(0, 1), (2, 3)]), rename=("k", "e"))
        t = km_minus_c4(m)
        got = networkx.Graph(t.edges())
        got.add_nodes_from(range(t.n))
        assert networkx.is_isomorphic(got, built)

    def test_witness_matches_independent_build(self):
        # the extremal witness is K_{m-3} joined with n-m+3 isolated
        # vertices, the clique first; comparing whole graphs checks the
        # rows below the diagonal too, which edges() does not read
        for n in range(4, 13):
            for m in range(4, n + 1):
                g, _ = extremal_witness(m, n)
                want = {(u, v) for u, v in combinations(range(n), 2)
                        if u < m - 3}
                assert set(g.edges()) == want
                assert g == SmallGraph(n, want)

    def test_rejects_small_m(self):
        with pytest.raises(InputError):
            km_minus_c4(3)

    def test_is_the_same_graph_of_order_m_on_each_call(self):
        for m in (4, 5, 9):
            t = km_minus_c4(m)
            assert type(t) is SmallGraph
            assert t.n == m and t.edge_count == m * (m - 1) // 2 - 4
            assert km_minus_c4(m) is t


class TestFindEmbedding:
    def test_embedding_is_valid_when_found(self):
        rng = Random(11)
        bow = km_minus_c4(5)
        found = 0
        for _ in range(200):
            host = random_graph(7, rng.uniform(0.3, 0.9), rng)
            emb = find_embedding(host, bow)
            if emb is not None:
                found += 1
                assert len(set(emb)) == bow.n
                for a, b in bow.edges():
                    assert host.has_edge(emb[a], emb[b])
        assert found > 20

    def test_agrees_with_brute_force(self):
        rng = Random(13)
        for _ in range(150):
            pn = rng.randint(2, 5)
            hn = rng.randint(pn, 7)
            pattern = random_graph(pn, rng.uniform(0.2, 0.9), rng)
            host = random_graph(hn, rng.uniform(0.2, 0.9), rng)
            got = find_embedding(host, pattern) is not None
            assert got == brute_embedding_exists(host, pattern)

    def test_no_room(self):
        k4 = SmallGraph(4, combinations(range(4), 2))
        assert find_embedding(k4, km_minus_c4(5)) is None
        # one vertex more and it fits
        k5 = SmallGraph(5, combinations(range(5), 2))
        assert find_embedding(k5, km_minus_c4(5)) is not None


class TestIsEmbedding:
    BOW = km_minus_c4(5)
    K5 = SmallGraph(5, combinations(range(5), 2))

    def test_accepts_what_find_embedding_returns(self):
        rng = Random(37)
        found = 0
        for _ in range(200):
            host = random_graph(rng.randint(5, 9), rng.uniform(0.4, 0.95), rng)
            for m in (4, 5, 6):
                emb = find_embedding(host, km_minus_c4(m))
                if emb is not None:
                    found += 1
                    assert is_embedding(host, km_minus_c4(m), emb)
        assert found > 100

    def test_agrees_with_independent_check_on_random_maps(self):
        rng = Random(41)
        accepted = 0
        for _ in range(2000):
            host = random_graph(rng.randint(5, 8), rng.uniform(0.5, 1.0), rng)
            emb = tuple(rng.randrange(host.n) for _ in range(5))
            got = is_embedding(host, self.BOW, emb)
            assert got == embedding_is_valid(host, self.BOW, emb), (host, emb)
            accepted += got
        assert accepted > 20

    def test_rejects_a_non_injective_map(self):
        # every pattern edge lands on a host edge, but two pattern
        # vertices share a host vertex
        host = SmallGraph(6, combinations(range(6), 2))
        assert is_embedding(host, self.BOW, (0, 1, 2, 3, 4))
        assert not is_embedding(host, self.BOW, (0, 1, 2, 3, 0))
        assert not is_embedding(host, self.BOW, (0, 1, 0, 3, 4))

    def test_rejects_a_missing_edge(self):
        rows = list(self.K5.rows)
        # pattern vertex 4 is the centre; drop its edge to pattern vertex 0
        rows[4] ^= 1 << 0
        rows[0] ^= 1 << 4
        host = SmallGraph._from_rows(5, rows)
        assert not is_embedding(host, self.BOW, (0, 1, 2, 3, 4))
        # the bowtie still sits there with its centre on host vertex 1
        # and 0, 4 on different independent edges
        assert is_embedding(host, self.BOW, (0, 3, 2, 4, 1))

    @pytest.mark.parametrize("emb", [(0, 1, 2, 3), (0, 1, 2, 3, 4, 5),
                                     (0, 1, 2, 3, 5), (0, 1, 2, 3, -1)])
    def test_rejects_wrong_length_and_out_of_range(self, emb):
        assert not is_embedding(self.K5, self.BOW, emb)


class TestKmMinusC4Cache:
    def test_one_pattern_per_m(self):
        assert km_minus_c4(6) is km_minus_c4(6)
        assert km_minus_c4(6) is not km_minus_c4(7)

    @pytest.mark.parametrize("bad", [[5], 3, 5.0, "5", True])
    def test_bad_argument_is_an_input_error(self, bad):
        with pytest.raises(InputError, match="^m must be an integer >= 4, "
                           rf"got {re.escape(repr(bad))}$"):
            km_minus_c4(bad)


class TestGraph6:
    """The encoder against the bit-by-bit one and, past the exhaustive
    sizes, against networkx's reader."""

    def test_known_encodings(self):
        assert encode_graph6(SmallGraph(0)) == "?"
        assert encode_graph6(SmallGraph(1)) == "@"
        assert encode_graph6(SmallGraph(2, [(0, 1)])) == "A_"
        assert encode_graph6(SmallGraph(2)) == "A?"
        k5 = SmallGraph(5, combinations(range(5), 2))
        assert encode_graph6(k5) == "D~{"

    def test_every_graph_to_six_vertices_matches_bitwise_encoder(self):
        for n in range(7):
            pairs = [(i, j) for j in range(1, n) for i in range(j)]
            for mask in range(1 << len(pairs)):
                g = SmallGraph(n, [e for k, e in enumerate(pairs)
                                   if (mask >> k) & 1])
                assert encode_graph6(g) == encode_graph6_by_bits(g), g

    def test_seeded_graphs_to_32_vertices_match_bitwise_encoder(self):
        rng = Random(61)
        for n in range(33):
            for _ in range(50):
                g = random_graph(n, rng.random(), rng)
                text = encode_graph6(g)
                assert text == encode_graph6_by_bits(g), g
                assert decode_graph6(text) == g

    @pytest.mark.parametrize("n", [33, 62, 63, 64, 100])
    def test_seeded_graphs_past_32_vertices_match_bitwise_encoder(self, n):
        rng = Random(n)
        for _ in range(10):
            g = random_graph(n, rng.random(), rng)
            text = encode_graph6(g)
            assert text == encode_graph6_by_bits(g), g
            assert text.startswith("~") == (n >= 63)
            assert decode_graph6(text) == g

    def test_round_trip_of_600_vertices(self):
        # the encoder reads the body off one integer in linear time
        for n in (600, 2000):
            g = havel_hakimi_realize((4,) * n)
            text = encode_graph6(g)
            assert text == encode_graph6_by_bits(g)
            assert decode_graph6(text) == g

    def test_round_trip_seeded(self):
        rng = Random(23)
        for _ in range(300):
            n = rng.randint(0, 12)
            g = random_graph(n, rng.random(), rng)
            assert decode_graph6(encode_graph6(g)) == g

    def test_oversize_count(self):
        # 33 vertices fit the one-byte header, 64 take the long one
        rng = Random(33)
        for n in (33, 64):
            g = random_graph(n, 0.5, rng)
            assert decode_graph6(encode_graph6_by_bits(g)) == g

