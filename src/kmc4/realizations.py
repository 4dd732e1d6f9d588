"""Realizations of degree sequences and search over them.

The greedy construction gives one realization; every other realization
is reachable from it by 2-switches (remove two disjoint edges, reconnect
the four endpoints the other way), and that classical fact is what makes
the breadth-first closure below an exhaustive enumeration of realization
classes. Negative answers to "does some realization contain this
pattern" are only trusted when that closure ran to completion.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from random import Random

from .errors import ContractError, LimitError
from .graphs import (DEFAULT_VERTEX_LIMIT, SmallGraph, TargetPattern,
                     canonical_form, find_embedding)
from .sequences import DegreeSequence, is_graphical


@dataclass
class WitnessResult:
    """Outcome of a potential-subgraph search.

    ``verdict`` True comes with the witness realization and the embedding
    (host vertex per pattern vertex). ``exhausted`` records whether the
    whole realization space was enumerated; a False verdict is
    authoritative only when it is set.
    """

    verdict: bool
    witness: SmallGraph | None
    embedding: tuple[int, ...] | None
    explored: int
    exhausted: bool


def havel_hakimi_realize(seq) -> SmallGraph:
    """Deterministic greedy realization.

    Repeatedly connects the vertex with the largest remaining demand to
    the next-largest remaining vertices, ties broken by original index.
    Vertex i of the result has degree seq[i] exactly.
    """
    seq = DegreeSequence(seq)
    if not is_graphical(seq):
        raise ContractError(f"sequence {tuple(seq)} is not graphical")
    return _greedy_realization(seq)


def _greedy_realization(seq: DegreeSequence) -> SmallGraph:
    """Havel-Hakimi layoff for a sequence the caller has already found
    graphical; the body of ``havel_hakimi_realize`` without its check."""
    n = seq.n
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
            raise ContractError(f"layoff of vertex {u} ran out of targets")
        residual[u] = 0
        for v in targets:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            residual[v] -= 1
    return SmallGraph._from_rows(n, rows)


def two_switch(g: SmallGraph, a: int, b: int, c: int, d: int) -> SmallGraph:
    """Replace edges a-b and c-d with a-c and b-d.

    Degrees are untouched. Preconditions are checked and violations name
    the failing pair.
    """
    if len({a, b, c, d}) != 4:
        raise ContractError(f"switch vertices ({a},{b},{c},{d}) are not distinct")
    for u, v in ((a, b), (c, d)):
        if not (0 <= u < g.n and 0 <= v < g.n):
            raise ContractError(f"vertex pair ({u},{v}) out of range for n={g.n}")
        if not g.has_edge(u, v):
            raise ContractError(f"required edge {u}-{v} is absent")
    for u, v in ((a, c), (b, d)):
        if g.has_edge(u, v):
            raise ContractError(f"required non-edge {u}-{v} is present")
    return _switched(g, a, b, c, d)


def _switched(g: SmallGraph, a: int, b: int, c: int, d: int) -> SmallGraph:
    rows = list(g.rows)
    rows[a] ^= (1 << b) | (1 << c)
    rows[b] ^= (1 << a) | (1 << d)
    rows[c] ^= (1 << d) | (1 << a)
    rows[d] ^= (1 << c) | (1 << b)
    return SmallGraph._from_rows(g.n, rows)


def _switch_neighbors(g: SmallGraph) -> list[SmallGraph]:
    """All graphs one valid 2-switch away, in a fixed order, deduplicated."""
    rows = g.rows
    edges = g.edges()
    out = []
    seen = set()
    for i in range(len(edges)):
        a, b = edges[i]
        for j in range(i + 1, len(edges)):
            c, d = edges[j]
            if c == a or c == b or d == a or d == b:
                continue
            if not ((rows[a] >> c) & 1) and not ((rows[b] >> d) & 1):
                h = _switched(g, a, b, c, d)
                if h.rows not in seen:
                    seen.add(h.rows)
                    out.append(h)
            if not ((rows[a] >> d) & 1) and not ((rows[b] >> c) & 1):
                h = _switched(g, a, b, d, c)
                if h.rows not in seen:
                    seen.add(h.rows)
                    out.append(h)
    return out


def enumerate_realizations(seq, limit: int = DEFAULT_VERTEX_LIMIT,
                           max_classes: int | None = None,
                           order_seed: int | None = None):
    """One representative per isomorphism class of realizations.

    Breadth-first closure of the greedy realization under 2-switches,
    deduplicated by canonical form. Classes are yielded in discovery
    order: the greedy start first, then each neighbour as soon as its
    key turns out to be new, so the queue holds classes already yielded
    but not yet expanded. A caller that stops early has keyed only the
    neighbours scanned before it stopped; the start itself is keyed
    when expansion begins. ``order_seed`` shuffles expansion order (the
    class set must not depend on it). ``max_classes`` is a guard: the
    generator yields that many classes, and on finding one more raises
    with the partial count.
    """
    seq = DegreeSequence(seq)
    if not is_graphical(seq):
        raise ContractError(f"sequence {tuple(seq)} is not graphical")
    if seq.n > limit:
        raise LimitError(f"realization search limited to {limit} vertices (got {seq.n})")
    rng = Random(order_seed) if order_seed is not None else None
    g = _greedy_realization(seq)
    yield g
    seen = {canonical_form(g, limit)}
    queue = deque([g])
    while queue:
        nbrs = _switch_neighbors(queue.popleft())
        if rng is not None:
            rng.shuffle(nbrs)
        for h in nbrs:
            key = canonical_form(h, limit)
            if key not in seen:
                if max_classes is not None and len(seen) >= max_classes:
                    raise LimitError(
                        f"realization classes exceed cap {max_classes}",
                        partial=len(seen))
                seen.add(key)
                queue.append(h)
                yield h


def is_potentially(seq, target: TargetPattern,
                   limit: int = DEFAULT_VERTEX_LIMIT,
                   budget: int | None = None,
                   order_seed: int | None = None) -> WitnessResult:
    """Does some realization of seq contain the target as a subgraph?

    Walks the realization classes and stops at the first witness. With
    fewer terms than the target has vertices the answer is immediately
    no. ``budget`` caps the number of classes examined; when it runs out
    the negative verdict is marked non-authoritative (exhausted False).
    """
    seq = DegreeSequence(seq)
    if seq.n < target.m:
        return WitnessResult(False, None, None, 0, True)
    explored = 0
    for g in enumerate_realizations(seq, limit=limit, order_seed=order_seed):
        if budget is not None and explored >= budget:
            return WitnessResult(False, None, None, explored, False)
        explored += 1
        emb = find_embedding(g, target)
        if emb is not None:
            return WitnessResult(True, g, emb, explored, False)
    return WitnessResult(False, None, None, explored, True)


def theorem2_interchange(g: SmallGraph, v1: int, v2: int, v3: int, v4: int,
                         y1: int, y2: int, y3: int) -> SmallGraph:
    """Three-edge interchange used in the inductive step for the m=5 target.

    Requires a complete quadruple v1..v4, the attachments v1-y1 and
    v2-y2, the outside edge y1-y3, and the non-edges y1-v2, y3-v1,
    y2-v4. Removes y1-y3, v1-v4, v2-y2 and inserts y1-v2, y3-v1, y2-v4,
    which preserves every degree and completes a bowtie on
    {v1,v2,v3,v4,y1} (center v2, independent edges v3-v4 and v1-y1).
    """
    names = {"v1": v1, "v2": v2, "v3": v3, "v4": v4,
             "y1": y1, "y2": y2, "y3": y3}
    for label, v in names.items():
        if not (0 <= v < g.n):
            raise ContractError(f"vertex {label}={v} out of range for n={g.n}")
    if len(set(names.values())) != 7:
        raise ContractError(f"the seven vertices are not distinct: {names}")
    quad = (v1, v2, v3, v4)
    for i in range(4):
        for j in range(i + 1, 4):
            if not g.has_edge(quad[i], quad[j]):
                raise ContractError(
                    f"v1..v4 do not induce a complete quadruple: "
                    f"missing edge {quad[i]}-{quad[j]}")
    for label, (u, v) in (("v1-y1", (v1, y1)), ("v2-y2", (v2, y2)),
                          ("y1-y3", (y1, y3))):
        if not g.has_edge(u, v):
            raise ContractError(f"required edge {label} ({u}-{v}) is absent")
    for label, (u, v) in (("y1-v2", (y1, v2)), ("y3-v1", (y3, v1)),
                          ("y2-v4", (y2, v4))):
        if g.has_edge(u, v):
            raise ContractError(f"required non-edge {label} ({u}-{v}) is present")
    rows = list(g.rows)

    def toggle(u, v):
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u

    toggle(y1, y3)
    toggle(v1, v4)
    toggle(v2, y2)
    toggle(y1, v2)
    toggle(y3, v1)
    toggle(y2, v4)
    return SmallGraph._from_rows(g.n, rows)
