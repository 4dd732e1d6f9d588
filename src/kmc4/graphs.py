"""Labeled simple graphs.

Adjacency is stored as one integer bitmask per vertex, bit v for an edge
to vertex v, which makes neighborhood intersection, degree counts, and
edge toggles cheap; a row is as wide as the graph, so nothing caps the
order. On top of the type live the pattern
constructions (complete and empty graphs, joins, the complete graph
minus a 4-cycle), the check of a subgraph embedding, and the graph6
text writer. Nothing here reads graph6 back; networkx and nauty do.
"""

from __future__ import annotations

from binascii import b2a_base64
from functools import cache, lru_cache

from .errors import InputError


def _bits(mask: int):
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class SmallGraph:
    """Immutable simple graph with vertices 0..n-1 and bitmask rows."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, edges=()):
        if not isinstance(n, int) or n < 0:
            raise InputError(f"vertex count must be a nonnegative integer, got {n!r}")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.n = n
        self.rows = tuple(rows)

    @classmethod
    def _from_rows(cls, n: int, rows) -> "SmallGraph":
        # Internal fast path; callers guarantee symmetry and an empty diagonal.
        g = object.__new__(cls)
        g.n = n
        g.rows = tuple(rows)
        return g

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    def degrees(self) -> tuple[int, ...]:
        return tuple(map(int.bit_count, self.rows))

    @property
    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            row = self.rows[u] >> (u + 1)
            for off in _bits(row):
                out.append((u, u + 1 + off))
        return out

    def __eq__(self, other):
        return (isinstance(other, SmallGraph)
                and self.n == other.n and self.rows == other.rows)

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        return f"SmallGraph({self.n}, {self.edges()})"


def complete_graph(k: int) -> SmallGraph:
    if not isinstance(k, int) or k < 0:
        raise InputError(f"order must be a nonnegative integer, got {k!r}")
    full = (1 << k) - 1
    return SmallGraph._from_rows(k, [full ^ (1 << v) for v in range(k)])


def empty_graph(k: int) -> SmallGraph:
    if not isinstance(k, int) or k < 0:
        raise InputError(f"order must be a nonnegative integer, got {k!r}")
    return SmallGraph._from_rows(k, [0] * k)


def join(g1: SmallGraph, g2: SmallGraph) -> SmallGraph:
    """Disjoint union plus all cross edges; g1's vertices come first."""
    n = g1.n + g2.n
    high = ((1 << g2.n) - 1) << g1.n
    low = (1 << g1.n) - 1
    rows = [row | high for row in g1.rows]
    rows += [(row << g1.n) | low for row in g2.rows]
    return SmallGraph._from_rows(n, rows)


def km_minus_c4(m: int) -> SmallGraph:
    """Complete graph on m vertices with the four edges of a 4-cycle removed.

    The cycle runs through vertices 0,1,2,3, so those keep only their
    diagonal partner plus everything outside the cycle. Isomorphic to the
    join of a complete graph on m-4 vertices with two independent edges.
    The graph is built once per m, and every call returns that object.
    """
    if not isinstance(m, int) or m < 4:
        raise InputError(f"pattern needs m >= 4, got {m!r}")
    return _km_minus_c4(m)


@cache
def _km_minus_c4(m: int) -> SmallGraph:
    g = complete_graph(m)
    rows = list(g.rows)
    for u, v in ((0, 1), (1, 2), (2, 3), (3, 0)):
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
    return SmallGraph._from_rows(m, rows)


# ----------------------------------------------------------------------
# Embedding check
# ----------------------------------------------------------------------

def is_embedding(host: SmallGraph, pattern: SmallGraph, emb) -> bool:
    """Is emb (host vertex per pattern vertex) an injective map sending
    every pattern edge onto a host edge?"""
    if len(emb) != pattern.n or len(set(emb)) != pattern.n:
        return False
    if emb and (min(emb) < 0 or max(emb) >= host.n):
        return False
    rows = host.rows
    for a, b in _pattern_edges(pattern):
        if not (rows[emb[a]] >> emb[b]) & 1:
            return False
    return True


@lru_cache(maxsize=64)
def _pattern_edges(pattern: SmallGraph) -> tuple[tuple[int, int], ...]:
    return tuple(pattern.edges())


# ----------------------------------------------------------------------
# graph6 codec
# ----------------------------------------------------------------------

# _REV6[x] is the 6-bit value x with its bits in reverse order.
_REV6 = tuple(int(f"{x:06b}"[::-1], 2) for x in range(64))

# Each base64 digit byte, for value v, to the graph6 byte 63 + v.
_BASE64_TO_GRAPH6 = bytes.maketrans(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/",
    bytes(range(63, 127)))


def _graph6_size(n: int) -> str:
    """The graph6 size header: one byte up to 62 vertices, ``~`` and 18
    bits up to 258,047, ``~~`` and 36 bits beyond, six bits a byte."""
    if n < 63:
        return chr(63 + n)
    prefix, width = ("~", 18) if n < 258048 else ("~~", 36)
    return prefix + "".join([chr(63 + ((n >> s) & 63))
                             for s in range(width - 6, -1, -6)])


def encode_graph6(g: SmallGraph) -> str:
    """Standard graph6 text, without the optional ``>>graph6<<`` prefix,
    in time linear in its length."""
    n = g.n
    rows = g.rows
    # Column j is the pairs (0, j), ..., (j - 1, j) in that order: the
    # low j bits of row j reversed. The body is the columns in turn.
    if n <= 13:
        # every column fits two lookups in the table, six bits each
        rev = _REV6
        acc = 0
        for j in range(1, n):
            x = rows[j] & ((1 << j) - 1)
            if j <= 6:
                col = rev[x] >> (6 - j)
            else:
                col = (rev[x & 63] << (j - 6)) | (rev[x >> 6] >> (12 - j))
            acc = (acc << j) | col
    else:
        # shifting one integer per column would copy it n times
        acc = int("".join([format(rows[j] & ((1 << j) - 1), f"0{j}b")[::-1]
                           for j in range(1, n)]), 2)
    # Base64 reads the same 6-bit groups, high bits first, in time
    # linear in the bits; padded to whole 24-bit groups it writes no
    # "=", and its alphabet maps onto graph6's bytes 63..126.
    nbits = n * (n - 1) // 2
    pad = -nbits % 24
    body = b2a_base64((acc << pad).to_bytes((nbits + pad) // 8, "big"),
                      newline=False)
    return (_graph6_size(n)
            + body[:-(-nbits // 6)].translate(_BASE64_TO_GRAPH6).decode())
