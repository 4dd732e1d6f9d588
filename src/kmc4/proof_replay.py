"""Constructive replay of the m=5 threshold equality.

For every graphical sequence with degree sum at least 4n-4 the replay
builds a realization containing the bowtie (complete graph on five
vertices minus a 4-cycle) by walking the cases of the inductive
argument: deletion of low-degree vertices down to a leaf, which is a
direct 5-vertex base, a small table of exceptional sequences, the
hub-plus-cycle family forced when the second degree is 3, or a complete
quadruple completed through a neighbor or a three-edge interchange.
Each decision is recorded in a trace. Every level's witness, leaves
included, is checked once before its step is recorded, by the predicate
``is_potentially`` uses: it must realize the level's sequence vertex by
vertex and hold the bowtie at the embedding the level carries.

The main case builds one realization, with K4 on the four largest
degrees, and completes the bowtie on that quadruple: through an outside
vertex touching two of it, along an attachment path back to the
largest, or by the three-edge interchange ``_interchange``, which only
toggles edges: the level's check is its only check. Some realization
holds a complete quadruple exactly when this one exists (the clique
case of the placement argument in ``realizations``), so nothing is
searched for, and once it exists the completion always succeeds. Every
main-case sequence has least term at least 3. For n >= 8 it therefore
meets d_4 >= 3 and d_8 >= 2, the r = 3 case of the condition of Yin and
Li (2005) for a realization containing K_{r+1}: d_{r+1} >= r and
d_{2r+2} >= r - 1. So a complete quadruple exists: cited (Yin and Li
2005), and checked through n = 12. At n = 6 and 7 the only main-case
sequences without one are (4,4,3,3,3,3), (4^6) and (4^7), an exhaustive
check in the tests; these three make up the table. A main-case sequence
without a K4 realization would raise ``ReplayError`` (exit 1 on the
command line). The replay never yields a wrong witness, since every
level's witness is checked before it is recorded.

The deletion case works on degrees alone. A vertex of least degree
d <= 2 is laid off onto the d largest other terms (Kleitman and Wang),
which leaves a graphical residual with n - 1 terms and sum at least
4(n - 1) - 4: the deletion lemma the threshold sweep in ``extremal``
uses. The replay lays such vertices off in a loop down to a leaf, then
goes back out level by level, joining a new vertex to the positions
that level's lay-off lowered, which realizes its sequence again; only
that graph is recorded, and only memory bounds the chain. Every witness
realizes its sequence vertex by vertex (vertex i has degree seq[i]),
and each level's check confirms that it does.

Each leaf case yields its witness together with the bowtie's position
in it: the 5-vertex base reads it off a vertex of degree 4 and a
pairing of the other four, the table case takes it from the top-degree
placement ``is_potentially`` builds, and the hub-plus-cycle family and
the quadruple completions have it by construction. Re-attaching a
vertex only appends a vertex and adds edges, so that position carries
up unchanged; each level's check tests it edge by edge instead of
searching.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .errors import InputError, ReplayError, _count
from .graphs import SmallGraph, encode_graph6, km_minus_c4
from .extremal import DEFAULT_VERTEX_LIMIT, _sigma_upward, sigma_lower_bound
from .realizations import (_decide_sequence, _is_witness, _k4_on_top,
                           _lay_off_degrees, _placement, _realize_around,
                           is_potentially)
from .sequences import (DegreeSequence, _graphical,
                        graphical_sequences_with_sum)

CASE_BASE5 = "q≥8 (n=5)"
CASE_DELETION = "d_n≤2 deletion"
CASE_EXCEPTIONAL = "exceptional-sequence"
CASE_FAMILY = "d(v2)=3 sequence"
CASE_INTERCHANGE = "interchange"
CASE_DIRECT = "direct-adjacency"

_BOWTIE = km_minus_c4(5)

# The main-case sequences with no K4 realization, so with nothing for
# the main case to complete, decided and placed as ``is_potentially``
# does instead; in the order ``verify base-cases`` reports them.
_EXCEPTIONAL_CASES = (DegreeSequence((4, 4, 3, 3, 3, 3)),
                      DegreeSequence((4,) * 6), DegreeSequence((4,) * 7))


class ProofStep(NamedTuple):
    """One case decision of a replay, on that level's sequence."""

    case: str
    sequence: DegreeSequence
    action: str
    graph6: str | None = None

    def to_json_dict(self) -> dict:
        return {"case": self.case, "sequence": list(self.sequence),
                "action": self.action, "graph6": self.graph6}


class ProofTrace(NamedTuple):
    """Ordered case decisions ending in a validated witness, with the
    bowtie's embedding in it (host vertex per pattern vertex)."""

    steps: list[ProofStep]
    outcome: SmallGraph
    embedding: tuple[int, ...]

    def to_json_lines(self) -> list[str]:
        return [json.dumps(s.to_json_dict(), sort_keys=True) for s in self.steps]

    def to_text(self) -> str:
        lines = []
        for i, s in enumerate(self.steps, 1):
            tail = f"  [{s.graph6}]" if s.graph6 else ""
            lines.append(f"{i}. [{s.case}] ({s.sequence.to_text()}) "
                         f"{s.action}{tail}")
        return "\n".join(lines)


def verify_base_cases(family_ns=(8,)) -> list[dict]:
    """Decide with ``is_potentially`` whether each base-case sequence is
    potentially bowtie-graphic: one entry per sequence, with its verdict
    under "potential" and its witness in graph6, or None.

    The base cases are the fixed table sequences the induction bottoms
    out on, then the hub-plus-cycle family ((n-1), 3^(n-1)) at each n of
    ``family_ns`` in turn, each sequence listed once. Each such n
    follows the count rule (``errors._count``), at least 5. The claim
    holds when every entry is potential; ``kmc4 verify base-cases``
    applies that rule.
    """
    cases = list(_EXCEPTIONAL_CASES)
    for fn in family_ns:
        _count(fn, 5, "family_ns entry")
        seq = DegreeSequence((fn - 1,) + (3,) * (fn - 1))
        if seq not in cases:
            cases.append(seq)
    entries = []
    for seq in cases:
        res = is_potentially(seq, _BOWTIE)
        entries.append({
            "n": seq.n,
            "sequence": list(seq),
            "potential": res.verdict,
            "witness": encode_graph6(res.witness) if res.witness else None,
            "explored": res.explored,
        })
    return entries


def _base5_embedding(g: SmallGraph) -> tuple[int, ...]:
    """The bowtie in a 5-vertex graph with at least 8 edges, read off
    without a search.

    The centre is the lowest-index vertex of degree 4; the two
    independent edges are the first of the three pairings of the other
    four vertices, in the order below, whose two pairs are both edges.
    Both always exist: the complement has at most 2 edges, so some
    vertex misses all of them, and they rule out at most two of the
    three disjoint pairings. Returns the embedding in the layout
    (p, r, q, s, centre) with independent edges p-q and r-s.
    """
    rows = g.rows
    c = next(v for v in range(5) if rows[v].bit_count() == 4)
    a, b, x, y = (v for v in range(5) if v != c)
    return next((p, r, q, s, c)
                for p, q, r, s in ((a, x, b, y), (a, y, b, x), (a, b, x, y))
                if (rows[p] >> q) & 1 and (rows[r] >> s) & 1)


def _interchange(g: SmallGraph, v1: int, v2: int, v4: int,
                 y1: int, y2: int, y3: int) -> SmallGraph:
    """The main case's three-edge interchange: removes y1-y3, v1-v4 and
    v2-y2 and inserts y1-v2, y3-v1 and y2-v4. On the vertices
    ``_complete_on_top`` finds, this keeps every degree and completes a
    bowtie on the quadruple v1..v4 and y1 (centre v2, independent edges
    v3-v4 and v1-y1); v3 keeps its edges, so it is not an argument. It
    only toggles the six edges.
    """
    rows = list(g.rows)
    for u, v in ((y1, y3), (v1, v4), (v2, y2), (y1, v2), (y3, v1), (y2, v4)):
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
    return SmallGraph._from_rows(g.n, rows)


def _complete_on_top(g: SmallGraph):
    """Finish the main case from a realization with K4 on vertices 0..3.

    The vertices are v1..v4 = 0, 1, 2, 3, in nonincreasing order of
    degree. An outside vertex touching two of them closes the target
    directly. Otherwise the attachments y1 of v1 and y2 of v2, and a
    neighbor y3 of y1 other than v1 and y2, are located; y3 adjacent to
    v1 closes the target along that path, and otherwise the three-edge
    interchange ``_interchange`` applies. Returns (witness, embedding,
    case, action); the embedding is the bowtie each completion builds,
    in the layout (p, r, q, s, centre) with independent edges p-q and
    r-s.

    In the main case (second degree at least 4, least degree at least 3)
    the attachments always exist, and the seven vertices are distinct:
    v1 and v2 have a neighbor outside the quadruple, no outside vertex
    is joined to both, and y1, joined to v1 alone there, has two more
    neighbors outside it. So the interchange's edges and non-edges are
    in place by construction; ``_interchange`` checks none of them, and
    the level's check of its result is the only check.
    """
    rows = g.rows
    quad = 0b1111
    for y in range(4, g.n):
        if (rows[y] & quad).bit_count() >= 2:
            # a and b are joined to y: centre a, independent edges y-b
            # and c-d
            a, b, c, d = sorted(range(4), key=lambda v: not (rows[y] >> v) & 1)
            return (g, (y, c, b, d, a), CASE_DIRECT,
                    f"complete quadruple 0,1,2,3 and vertex {y} "
                    f"adjacent to two of it close the target in place")
    # every outside vertex touches at most one quad vertex
    y1_mask = rows[0] & ~quad
    y2_mask = rows[1] & ~quad
    y1 = (y1_mask & -y1_mask).bit_length() - 1
    y2 = (y2_mask & -y2_mask).bit_length() - 1
    y3_mask = rows[y1] & ~1 & ~(1 << y2)
    y3 = (y3_mask & -y3_mask).bit_length() - 1
    if rows[y3] & 1:
        return (g, (y1, 1, y3, 2, 0), CASE_DIRECT,
                f"attachment path 0-{y1}-{y3} returns to the quadruple "
                f"at 0, closing the target in place")
    g2 = _interchange(g, 0, 1, 3, y1, y2, y3)
    return (g2, (2, 0, 3, y1, 1), CASE_INTERCHANGE,
            f"interchange on quadruple 0,1,2,3 with "
            f"y1={y1}, y2={y2}, y3={y3}")


def _attach_back(inner: SmallGraph, seq: DegreeSequence,
                 residual: DegreeSequence) -> SmallGraph:
    """Undo the lay-off of seq's last vertex: a new vertex joined to each
    position u with ``seq[u] != residual[u]``.

    ``inner`` realizes ``residual`` vertex by vertex, and ``residual``
    is seq[:-1] with its first d = seq[-1] terms lowered by one and
    re-sorted (``_lay_off_degrees``). Re-sorting moves each lowered term
    to the end of its block of ties, so exactly d positions differ, each
    by one, and the result realizes seq vertex by vertex. Adding edges
    cannot destroy an embedded subgraph. The replay checks both facts
    on the result before recording it.
    """
    new_v = inner.n
    rows = list(inner.rows) + [0]
    for u in range(new_v):
        if seq[u] != residual[u]:
            rows[u] |= 1 << new_v
            rows[new_v] |= 1 << u
    return SmallGraph._from_rows(new_v + 1, rows)


def _replay(seq: DegreeSequence,
            steps: list[ProofStep]) -> tuple[SmallGraph, tuple[int, ...]]:
    """The witness for seq and the bowtie's embedding in it. Vertices
    are laid off down to a leaf case, which builds both; on the way back
    out each level is checked once, recorded, then re-attached."""
    # seq is graphical: replay_theorem2 checked it, and each lay-off
    # leaves a Kleitman-Wang residual, graphical by their lemma.
    above = []
    while seq.n > 5 and seq[-1] <= 2:
        # the residual sums to sum(seq) - 2d >= 4n - 8 = 4(n - 1) - 4
        d = seq[-1]
        residual = tuple.__new__(DegreeSequence,
                                 _lay_off_degrees(seq[:-1], (d,)))
        steps.append(ProofStep(
            CASE_DELETION, seq,
            f"laid a vertex of degree {d} off onto degrees "
            f"{list(seq[:d])}; residual ({residual.to_text()}) keeps the "
            f"threshold"))
        above.append(seq)
        seq = residual

    if seq.n == 5:
        # the sum is at least 16, so g has at least 8 edges, and
        # _base5_embedding always finds the bowtie in such a graph
        g = _realize_around(seq, [0] * 5, 0)
        emb = _base5_embedding(g)
        case = CASE_BASE5
        action = (f"greedy realization has {g.edge_count} >= 8 edges; "
                  f"target embedded at {list(emb)}")

    elif seq in _EXCEPTIONAL_CASES:
        # each table sequence is potential, as verify_base_cases checks
        g, emb = _placement(seq, 5, _decide_sequence(seq, 5)[2])
        case = CASE_EXCEPTIONAL
        action = "table sequence; the top-degree placement holds the target"

    elif seq[1] == 3:
        # least term at least 3 and d_2 = 3 force 3^(n-1) after d_1, and
        # then a sum of at least 4n - 4 forces d_1 = n - 1: hub 0 joined
        # to every vertex of the rim, the cycle 1, 2, ..., n - 1
        n = seq.n
        g = SmallGraph._from_rows(n, [(1 << n) - 2] + [
            1 | 1 << (u % (n - 1) + 1) | 1 << ((u - 2) % (n - 1) + 1)
            for u in range(1, n)])
        # the hub is the bowtie's center; rim edges 1-2 and 3-4 its two
        # independent edges
        emb = (1, 3, 2, 4, 0)
        case = CASE_FAMILY
        action = ("hub joined to a cycle realizes the forced sequence and "
                  "contains the target")

    else:
        # Main case: d(v2) >= 4 and minimum degree >= 3. The realization
        # with K4 on the four largest degrees exists whenever any
        # realization holds a complete quadruple, and the completion
        # works on that one.
        g = _k4_on_top(seq)
        if g is None:
            raise ReplayError(
                f"main-case sequence {tuple(seq)} has no realization "
                f"containing K4, against the cited condition of Yin and "
                f"Li (2005)", steps)
        g, emb, case, action = _complete_on_top(g)

    while True:
        if not _is_witness(seq, _BOWTIE, g, emb):
            raise ReplayError(f"'{case}' witness for {tuple(seq)} does not "
                              f"realize it with the target embedded", steps)
        steps.append(ProofStep(case, seq, action, encode_graph6(g)))
        if not above:
            return g, emb
        residual, seq = seq, above.pop()
        g = _attach_back(g, seq, residual)
        case = CASE_DELETION
        action = (f"re-attached the deleted vertex to degrees "
                  f"{[t - 1 for t in seq[:seq[-1]]]}")


def replay_theorem2(seq) -> ProofTrace:
    """Constructive witness for a sequence meeting the m=5 threshold.

    Preconditions: graphical, n >= 5, degree sum >= 4n-4. The returned
    trace ends in a graph that realizes the input sequence and contains
    the bowtie. Every level's witness, leaves included, was checked
    once before its step was recorded, by the predicate
    ``is_potentially`` uses, on the embedding the replay carried, which
    the trace keeps.
    """
    seq = DegreeSequence(seq)
    n = seq.n
    if n < 5:
        raise InputError(f"replay needs n >= 5, got n={n}")
    _graphical(seq)
    threshold = sigma_lower_bound(5, n)
    if sum(seq) < threshold:
        raise InputError(f"degree sum {sum(seq)} below threshold {threshold}")
    steps: list[ProofStep] = []
    return ProofTrace(steps, *_replay(seq, steps))


def verify_theorem2_range(n_max: int, limit: int = DEFAULT_VERTEX_LIMIT,
                          progress=None) -> list[dict]:
    """Exhaustively check the m=5 equality for 5 <= n <= n_max: one
    entry per n, in order.

    Each entry holds the exact threshold, the expected 4n-4 and whether
    they agree ("exact_ok"), and how many graphical sequences at or
    above 4n-4 were replayed and how many of those replays failed. The
    equality holds at n when "exact_ok" is true and "replay_failures" is
    0; ``kmc4 verify theorem2`` applies that rule to every entry.

    ``replay_theorem2`` checks every level's witness, leaves included,
    once before recording its step, with the predicate
    ``is_potentially`` uses: its degrees vertex by vertex, and its
    bowtie edge by edge on the embedding the level carries. It raises
    ReplayError on a wrong one; each such error counts as a replay
    failure. The thresholds come from one upward sweep over n;
    nothing is decided again here, since a threshold above 4n-4 already
    fails the entry. Each length is replayed only after that sweep has
    reached it, so the sweep's ``limit`` guard covers the replay too:
    n_max above ``limit`` raises InputError before anything is walked,
    as does an n_max breaking the count rule (at least 5).
    """
    _count(n_max, 5, "n_max")
    entries = []
    for n, exact, _ in _sigma_upward(5, n_max, limit, progress):
        expected = sigma_lower_bound(5, n)
        checked = replay_failures = 0
        for level in range(n * (n - 1), expected - 1, -2):
            for seq in graphical_sequences_with_sum(n, level):
                checked += 1
                try:
                    replay_theorem2(seq)
                except ReplayError:
                    replay_failures += 1
        if progress is not None:
            progress(f"n={n}: exact={exact}, {checked} sequences "
                     f"replayed, {replay_failures} replay failures")
        entries.append({
            "n": n,
            "exact": exact,
            "expected": expected,
            "exact_ok": exact == expected,
            "sequences_checked": checked,
            "replay_failures": replay_failures,
        })
    return entries
