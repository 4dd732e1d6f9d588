"""Oracles for the tests, built from first principles.

Most recompute ground truth without the library's decision machinery,
so the two can be compared honestly:

- brute force over raw edge sets and bitmasks: ``gray_code_degree_map``
  visits every labeled graph on n vertices, ``labeled_realizations``
  every labeled realization of a sequence, and ``top_layouts`` and
  ``pairing_decision`` read off them what the pairing-only decision may
  answer;
- ``brute_embedding_exists`` and ``brute_isomorphic``, which try every
  vertex map, and ``find_embedding``, a backtracking subgraph search
  checked against the first: the fast oracle where trying every map
  is too slow;
- ``sigma_by_full_sweep``, the exact-threshold sweep without the
  induction on n (it decides with the library's ``_decide_sequence``),
  the reference for the one that skips what the deletion lemma proves,
  and ``uplifts_by_positions``, which inverts the
  Kleitman-Wang lay-off by trying every set of raised positions, the
  reference for the sweep's uplifts;
- second implementations of the primitives (Havel-Hakimi by scanning,
  Erdos-Gallai summed afresh, graph6 bit by bit, the row-by-row
  placement), ``two_switch``, which the replay tests use as a
  mutation, and ``relabel`` and ``random_graph``, constructors the
  library has no use for;
- ``decode_graph6``, which reads graph6 with networkx: kmc4 only
  writes the format.

The exact "potentially F_m-graphic" oracle for sequences past brute
force's reach is ``ffactor``, which imports nothing from kmc4.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache
from itertools import combinations, permutations
from random import Random

import networkx

from kmc4 import (DegreeSequence, InputError, SigmaReport, SmallGraph,
                  encode_graph6, graphical_sequences_with_sum,
                  havel_hakimi_realize, is_graphical, sigma_lower_bound)
from kmc4.graphs import _bits
from kmc4.realizations import _decide_sequence


def find_embedding(host: SmallGraph, pattern) -> tuple[int, ...] | None:
    """First injective map sending pattern edges onto host edges.

    Pattern vertices are placed in decreasing-degree order with degree
    feasibility pruning; host candidates are tried in ascending index, so
    the embedding found is deterministic. Returns a tuple indexed by
    pattern vertex, or None.
    """
    pn, hn = pattern.n, host.n
    if pn > hn:
        return None
    if pn == 0:
        return ()
    pdegs = pattern.degrees()
    order = sorted(range(pn), key=lambda v: (-pdegs[v], v))
    pdeg = [pdegs[v] for v in order]
    # for each pattern vertex, those placed before it that it is adjacent to
    placed_nbrs = [[u for u in order[:k] if pattern.has_edge(pv, u)]
                   for k, pv in enumerate(order)]
    hdeg = host.degrees()
    hrows = host.rows
    full = (1 << hn) - 1
    assign = [-1] * pn

    def place(k: int, used: int) -> bool:
        if k == pn:
            return True
        cand = full & ~used
        for pv in placed_nbrs[k]:
            cand &= hrows[assign[pv]]
        need = pdeg[k]
        for hv in _bits(cand):
            if hdeg[hv] >= need:
                assign[order[k]] = hv
                if place(k + 1, used | (1 << hv)):
                    return True
        return False

    if place(0, 0):
        return tuple(assign)
    return None


def enumerate_graphical_sequences(n: int,
                                  min_sum: int = 0) -> Iterator[DegreeSequence]:
    """Every graphical n-term sequence with degree sum >= min_sum, once each.

    Zero terms are allowed. Order is deterministic: degree sum descending,
    then descending lexicographic within a sum level, so threshold sweeps
    can stop at the first interesting level.
    """
    if n < 1:
        raise InputError(f"need at least one term, got n={n}")
    if min_sum < 0 or min_sum > n * (n - 1):
        raise InputError(f"min_sum {min_sum} out of range for n={n}")
    total = n * (n - 1)
    while total >= min_sum:
        yield from graphical_sequences_with_sum(n, total)
        total -= 2


def two_switch(g: SmallGraph, a: int, b: int, c: int, d: int) -> SmallGraph:
    """Replace edges a-b and c-d with a-c and b-d.

    Degrees are untouched. Preconditions are checked and violations name
    the failing pair.
    """
    if len({a, b, c, d}) != 4:
        raise InputError(f"switch vertices ({a},{b},{c},{d}) are not distinct")
    for u, v in ((a, b), (c, d)):
        if not (0 <= u < g.n and 0 <= v < g.n):
            raise InputError(f"vertex pair ({u},{v}) out of range for n={g.n}")
        if not g.has_edge(u, v):
            raise InputError(f"required edge {u}-{v} is absent")
    for u, v in ((a, c), (b, d)):
        if g.has_edge(u, v):
            raise InputError(f"required non-edge {u}-{v} is present")
    return _switched(g, a, b, c, d)


def _switched(g: SmallGraph, a: int, b: int, c: int, d: int) -> SmallGraph:
    rows = list(g.rows)
    rows[a] ^= (1 << b) | (1 << c)
    rows[b] ^= (1 << a) | (1 << d)
    rows[c] ^= (1 << d) | (1 << a)
    rows[d] ^= (1 << c) | (1 << b)
    return SmallGraph._from_rows(g.n, rows)


@lru_cache(maxsize=None)
def gray_code_degree_map(n: int) -> dict[tuple[int, ...], bool]:
    """Visit every labeled graph on n vertices once.

    Walks the 2^C(n,2) edge subsets in Gray-code order, flipping a
    single edge per step. Returns, for each sorted degree tuple that
    occurs, whether any graph with that tuple contains a bowtie: a
    vertex of degree >= 4 whose neighborhood spans two disjoint edges.
    The key set is therefore exactly the graphical tuples of length n.
    """
    edge_list = list(combinations(range(n), 2))
    rows = [0] * n
    degs = [0] * n
    state: dict[tuple[int, ...], bool] = {tuple(degs): False}

    def has_bowtie() -> bool:
        for v in range(n):
            if degs[v] < 4:
                continue
            nb = rows[v]
            inner = []
            m = nb
            while m:
                b = m & -m
                u = b.bit_length() - 1
                m ^= b
                w = rows[u] & nb & ~((1 << (u + 1)) - 1)
                while w:
                    c = w & -w
                    inner.append(b | c)
                    w ^= c
            for i in range(len(inner)):
                for j in range(i + 1, len(inner)):
                    if not inner[i] & inner[j]:
                        return True
        return False

    for i in range(1, 1 << len(edge_list)):
        bit = (i & -i).bit_length() - 1
        u, v = edge_list[bit]
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
        d = 1 if (rows[u] >> v) & 1 else -1
        degs[u] += d
        degs[v] += d
        t = tuple(sorted(degs, reverse=True))
        cur = state.get(t)
        if cur is not True:
            if has_bowtie():
                state[t] = True
            elif cur is None:
                state[t] = False
    return state


def brute_embedding_exists(host: SmallGraph, pattern: SmallGraph) -> bool:
    """Subgraph test by trying every injective vertex map."""
    p_edges = pattern.edges()
    for image in permutations(range(host.n), pattern.n):
        if all(host.has_edge(image[a], image[b]) for a, b in p_edges):
            return True
    return False


def brute_isomorphic(a: SmallGraph, b: SmallGraph) -> bool:
    """Isomorphism test by trying every vertex permutation."""
    if a.n != b.n or a.edge_count != b.edge_count:
        return False
    eb = set(b.edges())
    for perm in permutations(range(a.n)):
        if all((min(perm[u], perm[v]), max(perm[u], perm[v])) in eb
               for u, v in a.edges()):
            return True
    return False


def random_graph(n: int, p: float, rng: Random) -> SmallGraph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return SmallGraph(n, edges)


def relabel(g: SmallGraph, perm: list[int]) -> SmallGraph:
    """Image of g under vertex permutation (perm[v] is v's new name)."""
    edges = [(perm[u], perm[v]) for u, v in g.edges()]
    return SmallGraph(g.n, edges)


def nonincreasing_tuples(length: int, bound: int):
    """Every non-increasing tuple of the given length with entries in
    [0, bound], enumerated directly."""
    def rec(slots: int, hi: int):
        if slots == 0:
            yield ()
            return
        for first in range(hi, -1, -1):
            for rest in rec(slots - 1, first):
                yield (first,) + rest
    yield from rec(length, bound)


def is_graphical_quadratic(seq) -> bool:
    """Erdos-Gallai exactly as the inequalities read: every right-hand
    side summed afresh, O(n^2) per call."""
    d = sorted(seq, reverse=True)
    n = len(d)
    if d[-1] < 0 or d[0] > n - 1 or sum(d) % 2:
        return False
    prefix = 0
    for k in range(1, n + 1):
        prefix += d[k - 1]
        if prefix > k * (k - 1) + sum(min(x, k) for x in d[k:]):
            return False
    return True


def greedy_realization_by_scan(seq) -> SmallGraph:
    """Havel-Hakimi that scans every vertex for the largest residual and
    sorts the positive residuals again on each layoff step; ties go to
    the lowest index."""
    n = len(seq)
    residual = list(seq)
    rows = [0] * n
    while True:
        u = max(range(n), key=lambda v: (residual[v], -v))
        k = residual[u]
        if k == 0:
            break
        targets = sorted((v for v in range(n) if v != u and residual[v] > 0),
                         key=lambda v: (-residual[v], v))[:k]
        if len(targets) < k:
            raise ValueError(f"layoff of vertex {u} ran out of targets")
        residual[u] = 0
        for v in targets:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            residual[v] -= 1
    return SmallGraph._from_rows(n, rows)


def graphical_sequences_by_filter(n: int, total: int):
    """Graphical n-term sequences with the given degree sum, by building
    every nonincreasing sequence with parts <= n-1 and that sum, in
    descending lexicographic order, and keeping the graphical ones."""
    if n < 1:
        raise InputError(f"need at least one term, got n={n}")
    if total < 0 or total > n * (n - 1):
        raise InputError(f"degree sum {total} out of range for n={n}")
    if total % 2:
        return

    def bounded(slots: int, rest: int, bound: int):
        if slots == 0:
            if rest == 0:
                yield ()
            return
        for v in range(min(bound, rest), -(-rest // slots) - 1, -1):
            for tail in bounded(slots - 1, rest - v, v):
                yield (v,) + tail

    for terms in bounded(n, total, n - 1):
        if is_graphical(terms):
            yield DegreeSequence(terms)


def encode_graph6_by_bits(g: SmallGraph) -> str:
    """graph6 text built one bit at a time, in the order the format
    lists the pairs: (0,1), then (0,2), (1,2), then (0,3), ...; the
    size header is n itself up to 62, else ``~`` and n in 18 bits up to
    258,047, else ``~~`` and n in 36 bits, each cut into 6-bit bytes."""
    n = g.n
    if n <= 62:
        out = [chr(63 + n)]
    else:
        width = 18 if n <= 258047 else 36
        bits = [(n >> (width - 1 - i)) & 1 for i in range(width)]
        out = ["~" * (width // 18)]
        for i in range(0, width, 6):
            out.append(chr(63 + int("".join(map(str, bits[i:i + 6])), 2)))
    acc = 0
    nbits = 0
    for j in range(1, n):
        col = g.rows[j]
        for i in range(j):
            acc = (acc << 1) | ((col >> i) & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(63 + acc))
                acc = 0
                nbits = 0
    if nbits:
        out.append(chr(63 + (acc << (6 - nbits))))
    return "".join(out)


def decode_graph6(text: str) -> SmallGraph:
    """The graph networkx reads from graph6 text, vertices in its order."""
    g = networkx.from_graph6_bytes(text.encode())
    return SmallGraph(g.number_of_nodes(), g.edges())


def kleitman_wang_residual(seq) -> tuple[int, ...]:
    """Lay a vertex of least degree d off onto d vertices of largest
    degree among the others (Kleitman and Wang 1973): those lose one
    each, the laid-off vertex goes, and the rest stay. Vertices carry
    explicit labels, so which ones are chosen is read off directly."""
    vertices = sorted(enumerate(seq), key=lambda lv: (lv[1], -lv[0]))
    _, d = vertices[0]
    others = sorted(vertices[1:], key=lambda lv: (-lv[1], lv[0]))
    hit = {label for label, _ in others[:d]}
    degrees = [deg - (label in hit) for label, deg in others]
    return tuple(sorted(degrees, reverse=True))


def uplifts_by_positions(r, d: int) -> set[tuple[int, ...]]:
    """Every sequence with least term d whose Kleitman-Wang residual is r.

    Such a sequence is r with some d terms raised by one and d appended,
    so every set of d positions is raised in turn, and a candidate is kept
    when its least term is d and ``kleitman_wang_residual`` gives r back.
    """
    found = set()
    for raised in combinations(range(len(r)), d):
        s = [x + (i in raised) for i, x in enumerate(r)] + [d]
        if min(s) == d and kleitman_wang_residual(s) == tuple(r):
            found.add(tuple(sorted(s, reverse=True)))
    return found


def embedding_is_valid(host: SmallGraph, pattern, emb) -> bool:
    """Is emb an injective map into host's vertices under which every
    pattern edge is a host edge? Read straight off the bitmask rows."""
    if len(emb) != pattern.n or len(set(emb)) != len(emb):
        return False
    if any(not 0 <= v < host.n for v in emb):
        return False
    for a in range(pattern.n):
        for b in range(a + 1, pattern.n):
            if (pattern.rows[a] >> b) & 1 and not (host.rows[emb[a]] >> emb[b]) & 1:
                return False
    return True



def row_by_row_placement(seq, m: int, diagonals, used: int):
    """Reference for ``kmc4.realizations._placement``: F_m on vertices
    0..m-1 with the given diagonals and the cycle edges in ``used`` (bit
    i for edge i of the cycle p-r-q-s-p of diagonals (p, q), (r, s)),
    built row by row and finished by laying each placed vertex off onto
    the largest outside residuals, then by Havel-Hakimi on the outside
    vertices, ties to the lowest index; (None, None) when a lay-off runs
    short. Residuals are kept per vertex and ordered as (residual,
    index) pairs, with no packed sort keys."""
    n = len(seq)
    (p, q), (r, s) = diagonals
    core = (1 << (m - 4)) - 1
    placed = (1 << m) - 1
    rows = [0] * n
    for v in range(m - 4):
        rows[v] = placed ^ (1 << v)
    for u, v in diagonals:
        rows[u] = core | (1 << v)
        rows[v] = core | (1 << u)
    for bit, (u, v) in enumerate(((p, r), (r, q), (q, s), (s, p))):
        if (used >> bit) & 1:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    residual = {w: seq[w] for w in range(m, n)}

    def join_largest(u, k):
        # the k outside vertices other than u with the largest positive
        # residuals, lowest index first among equals
        targets = sorted(((-d, w) for w, d in residual.items()
                          if d > 0 and w != u))[:k]
        if len(targets) < k:
            return False
        for _, w in targets:
            rows[u] |= 1 << w
            rows[w] |= 1 << u
            residual[w] -= 1
        return True

    for v in range(m):
        need = seq[v] - rows[v].bit_count()
        if need < 0 or not join_largest(v, need):
            return None, None
    while any(residual.values()):
        u = max(residual, key=lambda w: (residual[w], -w))
        need, residual[u] = residual[u], 0
        if not join_largest(u, need):
            return None, None
    return SmallGraph._from_rows(n, rows), (p, r, q, s) + tuple(range(m - 4))


def labeled_realizations(seq):
    """Every graph on vertices 0..n-1 in which vertex i has degree
    seq[i], by backtracking: vertex v takes its remaining demand from the
    higher vertices that still have some."""
    n = len(seq)
    rows = [0] * n
    rem = list(seq)

    def fill(v):
        if v == n:
            yield SmallGraph._from_rows(n, rows)
            return
        need = rem[v]
        rem[v] = 0
        for chosen in combinations([w for w in range(v + 1, n) if rem[w]], need):
            for w in chosen:
                rows[v] |= 1 << w
                rows[w] |= 1 << v
                rem[w] -= 1
            yield from fill(v + 1)
            for w in chosen:
                rows[v] ^= 1 << w
                rows[w] ^= 1 << v
                rem[w] += 1
        rem[v] = need

    yield from fill(0)


def top_layouts(seq, m: int):
    """Brute force over ``labeled_realizations``: the three diagonal
    pairings of the cycle vertices m-4..m-1, in the order
    ((a,b),(c,d)), ((a,c),(b,d)), ((a,d),(b,c)); whether some realization
    joins each of 0..m-5 to every other vertex of 0..m-1 (the core); and
    the set of pairings some such realization also holds as edges, that
    is, F_m on 0..m-1 in that layout."""
    a, b, c, d = range(m - 4, m)
    pairings = (((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c)))
    placed = (1 << m) - 1
    core_held = False
    held = set()
    for g in labeled_realizations(seq):
        if any((g.rows[v] | (1 << v)) & placed != placed for v in range(m - 4)):
            continue
        core_held = True
        for pairing in pairings:
            if all(g.has_edge(u, v) for u, v in pairing):
                held.add(pairing)
    return pairings, core_held, held


def pairing_decision(seq, m: int) -> tuple[bool, int]:
    """What the pairing-only decision answers, from ``top_layouts``:
    (verdict, pairings explored).

    Pairings equal up to swapping vertices of equal degree ask the same
    question, so the first of each degree pattern is tried, in order. A
    positive stops at the first pairing some realization holds. A
    negative tries none when there are fewer than m terms or the top m
    degrees cannot carry F_m's own degrees, (m-1)^(m-4) and (m-3)^4;
    otherwise it tries every distinct pairing, even when no realization
    holds the core.
    """
    fm = [m - 1] * (m - 4) + [m - 3] * 4
    if len(seq) < m or any(seq[i] < fm[i] for i in range(m)):
        return False, 0
    pairings, _, held = top_layouts(seq, m)
    distinct, patterns = [], set()
    for pairing in pairings:
        key = tuple(sorted((seq[x], seq[y]) for x, y in pairing))
        if key not in patterns:
            patterns.add(key)
            distinct.append(pairing)
    for i, pairing in enumerate(distinct, 1):
        if pairing in held:
            return True, i
    return False, len(distinct)


def sigma_by_full_sweep(m: int, n: int) -> SigmaReport:
    """The exact threshold with no induction on n: every graphical
    sequence at every level is decided, from the top level down, and
    the first level with a failing sequence fixes the report."""
    bound = sigma_lower_bound(m, n)
    level = n * (n - 1)
    while level >= 0:
        failures = [s for s in graphical_sequences_with_sum(n, level)
                    if not _decide_sequence(s, m)[0]]
        if failures:
            exact = level + 2
            verdict = ("matches" if exact == bound
                       else "exceeds" if exact > bound else "below")
            witnesses = tuple(encode_graph6(havel_hakimi_realize(s))
                              for s in failures)
            return SigmaReport(m=m, n=n, lower_bound=bound, exact=exact,
                               verdict=verdict,
                               extremal_sequences=tuple(failures),
                               witnesses=witnesses)
        level -= 2
    raise AssertionError("sweep hit level 0 with no failing sequence")


ACCEPTANCE_LINES: list[str] = []


def record_acceptance(name: str, ok: bool) -> None:
    """Queue one pass/fail line for the end-of-run acceptance section."""
    ACCEPTANCE_LINES.append(f"{'PASS' if ok else 'FAIL'} {name}")
