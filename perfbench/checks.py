"""Output checks and input enumeration that share no code with kmc4.

Graphs here are lists of neighbour sets, decoded from the graph6 text
the program prints. ``F_m`` is the complete graph on m vertices minus
the edges of the 4-cycle 0-1-2-3-0, the same labelling the program uses
for the embeddings it reports.
"""

from __future__ import annotations

from itertools import combinations

CYCLE_PAIRS = frozenset({(0, 1), (1, 2), (2, 3), (0, 3)})


def lower_bound(m: int, n: int) -> int:
    """Closed-form threshold lower bound (2m-6)n - (m-3)(m-2) + 2."""
    return (2 * m - 6) * n - (m - 3) * (m - 2) + 2


def decode_graph6(text: str) -> list[set[int]]:
    """Neighbour sets of a graph6 string on at most 62 vertices.

    Raises ValueError on a malformed string, including nonzero padding.
    """
    if not text or not 63 <= ord(text[0]) <= 125:
        raise ValueError(f"bad graph6 size byte in {text!r}")
    n = ord(text[0]) - 63
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    bits = []
    for ch in text[1:]:
        value = ord(ch) - 63
        if not 0 <= value < 64:
            raise ValueError(f"bad graph6 data byte {ch!r}")
        bits.extend((value >> shift) & 1 for shift in range(5, -1, -1))
    if len(bits) != 6 * ((len(pairs) + 5) // 6) or any(bits[len(pairs):]):
        raise ValueError(f"bad graph6 length or padding in {text!r}")
    adj: list[set[int]] = [set() for _ in range(n)]
    for (i, j), bit in zip(pairs, bits):
        if bit:
            adj[i].add(j)
            adj[j].add(i)
    return adj


def degree_sequence(adj: list[set[int]]) -> tuple[int, ...]:
    """Degrees of the graph, nonincreasing."""
    return tuple(sorted((len(nbrs) for nbrs in adj), reverse=True))


def is_fm_embedding(adj: list[set[int]], m: int, emb) -> bool:
    """Does ``emb`` (host vertex per pattern vertex) map F_m into the host?"""
    if len(emb) != m or len(set(emb)) != m:
        return False
    if not all(isinstance(v, int) and 0 <= v < len(adj) for v in emb):
        return False
    return all(emb[j] in adj[emb[i]]
               for i, j in combinations(range(m), 2)
               if (i, j) not in CYCLE_PAIRS)


def find_fm(adj: list[set[int]], m: int):
    """Some embedding of F_m into the host, or None, by trying vertex sets.

    A set of m host vertices carries F_m exactly when its missing edges fit
    on one 4-cycle, so sets missing more than four edges are skipped.
    """
    for sub in combinations(range(len(adj)), m):
        missing = sum(1 for u, v in combinations(sub, 2) if v not in adj[u])
        if missing > 4:
            continue
        for quad in combinations(sub, 4):
            rest = tuple(v for v in sub if v not in quad)
            a, b, c, d = quad
            for cycle in ((a, b, c, d), (a, b, d, c), (a, c, b, d)):
                if is_fm_embedding(adj, m, cycle + rest):
                    return cycle + rest
    return None


def is_graphical(seq) -> bool:
    """Erdos-Gallai test on a nonincreasing sequence of nonnegative terms."""
    if sum(seq) % 2:
        return False
    for k in range(1, len(seq) + 1):
        if sum(seq[:k]) > k * (k - 1) + sum(min(d, k) for d in seq[k:]):
            return False
    return True


def graphical_sequences(n: int, min_sum: int) -> list[tuple[int, ...]]:
    """Every graphical nonincreasing n-term sequence with sum >= min_sum."""
    out = []

    def extend(prefix: list[int], cap: int) -> None:
        if len(prefix) == n:
            if sum(prefix) >= min_sum and is_graphical(prefix):
                out.append(tuple(prefix))
            return
        for d in range(cap, -1, -1):
            prefix.append(d)
            extend(prefix, d)
            prefix.pop()

    extend([], n - 1)
    return out
