"""Realizations of degree sequences and the F_m decision.

The greedy construction (Havel-Hakimi) gives one realization. Any two
realizations of a sequence are joined by 2-switches: remove two disjoint
edges and reconnect the four endpoints the other way, which keeps every
degree. Nothing here walks those switches; they are the argument that
makes a few built realizations enough.

``is_potentially`` asks whether some realization contains F_m, the
complete graph K_m minus a 4-cycle: a core of m-4 vertices joined to
everything, and four cycle vertices that keep only their two diagonals.
The 2-switch settles where F_m may sit:

- F_m can sit on the m largest degrees. Suppose F_m sits on S, u is in
  S, w is not, and d(w) >= d(u). Pair each a in N(u) minus N[w] with a
  distinct b in N(w) minus N[u]; there are at least as many b as a. The
  2-switches ua, wb -> wa, ub let w play u's role.
- The core can take the largest m-4 of those degrees. The same switch
  moves a core role onto a cycle vertex of higher degree; its partners b
  lie outside S, because a core vertex is adjacent to all of S.
- The cycle vertices a, b, c, d, at positions m-4..m-1 and so with
  d(a) >= d(b) >= d(c) >= d(d), can take the diagonals ad and bc.
  Suppose F_m sits there with diagonals ab, cd or ac, bd. When ad and
  bc are both non-edges, the 2-switch of the two old diagonals makes
  them edges. Otherwise exactly one is missing; take (u, w) from the
  table. The named vertex lies in N(w) minus N[u], and d(u) >= d(w)
  gives N(u) minus N[w] at least as many vertices, so it holds some z.
  N[w] holds the core and every cycle vertex but u, so z lies outside,
  and the switch removes only an old diagonal:

  ======== ======= ====== ===== ===================
  old      missing (u, w) named switch
  ======== ======= ====== ===== ===================
  ab, cd   bc      (b, d) c     bz, dc -> bc, dz
  ab, cd   ad      (a, c) d     az, cd -> ad, cz
  ac, bd   bc      (c, d) b     cz, db -> cb, dz
  ac, bd   ad      (a, b) d     az, bd -> ad, bz
  ======== ======= ====== ===== ===================

- What remains is which of the 4 cycle edges ab, bd, dc and ca the rest
  of the graph uses (16 subsets, fewer once degree arithmetic rules
  some out).
- Everything else is an exact lay-off (Kleitman and Wang, 1973). Every
  other edge of a placed vertex goes outside. Outside vertices may be
  joined to anything, so laying each placed vertex off onto the largest
  outside residuals loses no realization. Havel-Hakimi then realizes the
  outside residual exactly.

So after a top-degree necessary condition, the decision tries one
placement on degrees alone, with no adjacency rows. A cycle-edge
subset fits when, after the inside degrees are subtracted, each placed
vertex can be laid off onto the largest outside degrees and the sorted
outside residual passes Erdos-Gallai. A cycle vertex x has spare degree
seq[x] - (m - 3) once the core and its diagonal are placed. A subset is
skipped before any lay-off when it gives some x more cycle edges than
that, or when the outside residual it leaves would sum below 0 or above
what the outside vertices can carry among themselves; neither can fit
(``_first_fit``). The subsets are tried most edges first, K_m first of
all. The core's lay-off before them always fits (``_core_residual``),
so a negative comes only after every subset failed, and every verdict
is exact. A positive names the subset that fit, and ``_placement``
builds the rows of that one placement into the witness, with its
embedding.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InputError
from .graphs import SmallGraph, is_embedding, km_minus_c4
from .sequences import DegreeSequence, _erdos_gallai, _graphical


class WitnessResult(NamedTuple):
    """Outcome of a potential-subgraph decision.

    ``verdict`` True comes with the witness realization and the embedding
    (host vertex per pattern vertex). ``explored`` counts the
    placements tried: 0 when the necessary condition rules F_m out, and
    otherwise 1. Every verdict, False as well as True, is exact.
    """

    verdict: bool
    witness: SmallGraph | None
    embedding: tuple[int, ...] | None
    explored: int


def havel_hakimi_realize(seq) -> SmallGraph:
    """Deterministic greedy realization.

    Repeatedly connects the vertex with the largest remaining demand to
    the next-largest remaining vertices, ties broken by original index.
    Vertex i of the result has degree seq[i] exactly. A sequence that
    is not graphical raises InputError.
    """
    seq = _graphical(seq)
    return _realize_around(seq, [0] * seq.n, 0)


def is_potentially(seq, target: SmallGraph) -> WitnessResult:
    """Does some realization of seq contain the target F_m as a subgraph?

    A sequence that is not graphical raises InputError, whatever its
    length. With fewer terms than m, or when the top degrees fail the
    necessary condition (the m-4 largest at least m-1, the m-th largest
    at least m-3), the answer is an immediate no. Otherwise the one
    top-degree placement, with diagonals ad and bc, is tried on degrees
    (module docstring); ``explored`` is 0 or 1, and every verdict is
    exact. A positive's witness is the placement that fit, checked edge
    by edge before it is returned. The target must be ``km_minus_c4(m)``,
    the SmallGraph F_m of order m; anything else raises InputError. The
    work is polynomial in the length, and no length is refused. A witness
    that fails its check is a bug in this module and raises
    AssertionError.
    """
    if not (isinstance(target, SmallGraph) and target.n >= 4
            and target == km_minus_c4(target.n)):
        raise InputError("target is not K_m minus a 4-cycle")
    m = target.n
    seq = _graphical(seq)
    if seq.n < m:
        return WitnessResult(False, None, None, 0)
    verdict, explored, used = _decide_sequence(seq, m)
    if not verdict:
        return WitnessResult(False, None, None, explored)
    g, emb = _placement(seq, m, used)
    if not _is_witness(seq, target, g, emb):
        raise AssertionError(f"placement witness for {tuple(seq)} "
                             f"fails its check")
    return WitnessResult(True, g, emb, explored)


def _decide_sequence(seq: DegreeSequence, m: int):
    """The decision on degrees alone: (verdict, placements explored,
    used), where a positive names the cycle-edge subset that fit and a
    negative has None.

    seq must be a graphical DegreeSequence with at least m terms. After
    the necessary condition, the core is laid off, and that lay-off
    always fits (``_core_residual``). The one placement then tries its
    cycle-edge subsets, most edges first. A negative has explored 0
    when the necessary condition fails, and otherwise 1.
    """
    if (m > 4 and seq[m - 5] < m - 1) or seq[m - 1] < m - 3:
        return False, 0, None
    used = _first_fit(seq, m, _core_residual(seq, m), _MOST_EDGES)
    return used is not None, 1, used


def _cycle(m: int) -> tuple[int, int, int, int]:
    """The cycle vertices in the order p, r, q, s of the cycle p-r-q-s-p
    that F_m leaves out: a, b, d, c for a, b, c, d at m-4..m-1, so the
    diagonals pq and rs are ad and bc (module docstring)."""
    a, b, c, d = range(m - 4, m)
    return a, b, d, c


# Bit i of a cycle-edge subset stands for edge i of the cycle p-r-q-s-p
# (``_cycle``); entry ``used`` holds how many of its edges meet p, r, q
# and s.
_CYCLE_DEGREES = tuple(((used & 1) + (used >> 3 & 1),
                        (used & 1) + (used >> 1 & 1),
                        (used >> 1 & 1) + (used >> 2 & 1),
                        (used >> 2 & 1) + (used >> 3 & 1))
                       for used in range(16))
# The subsets by descending edge count, K_m first: the order in which
# positives of a sweep fit soonest.
_MOST_EDGES = tuple(sorted(range(16), key=lambda used: -used.bit_count()))


def _core_residual(seq: DegreeSequence, m: int) -> list[int] | None:
    """The outside degrees seq[m:] after each core vertex is laid off
    onto them. A core vertex is joined to the other m-1 placed vertices
    whatever cycle edges the placement uses.

    Once the necessary condition holds, it never runs short. By Gale and
    Ryser, the lay-off fits when for each k <= m-4 the first k core
    demands sum to at most sum_out min(seq[w], k). As seq is graphical,
    Erdos-Gallai at k gives sum_{v<k} seq[v] <= k(k-1) + sum_{u>=k}
    min(seq[u], k). Each of the m-k other placed vertices has degree at
    least m-3 > k, so it takes k on the right, and what is left is that
    condition: sum_{v<k} (seq[v] - (m-1)) <= sum_out min(seq[w], k). A
    core degree below m-1 gives None; ``_decide_sequence`` never passes
    one."""
    return _lay_off_degrees(seq[m:], [seq[v] - m + 1 for v in range(m - 4)])


def _first_fit(seq: DegreeSequence, m: int, out: list[int],
               order) -> int | None:
    """The first cycle-edge subset in ``order`` with which the cycle
    vertices fit on the core residual ``out``, or None.

    Two tests on degrees skip a subset before any lay-off, and each
    skips only subsets that cannot fit, so the first one that fits is
    the same as when every subset is laid off:

    - its cycle degree at p, r, q or s exceeds that vertex's spare
      degree, which would leave the vertex a negative outside demand;
    - the outside residual it leaves would sum below 0, more demand than
      ``out`` holds, or above L(L - 1), more than its L vertices carry
      among themselves. With e cycle edges that sum is 2e - extra, extra
      being the spare degrees' sum less the sum of ``out``.
    """
    p, r, q, s = _cycle(m)
    spare = m - 3  # the core and the diagonal
    xp, xr = seq[p] - spare, seq[r] - spare
    xq, xs = seq[q] - spare, seq[s] - spare
    extra = xp + xr + xq + xs - sum(out)
    most = extra + len(out) * (len(out) - 1)
    for used in order:
        ep, er, eq, es = _CYCLE_DEGREES[used]
        if (ep > xp or er > xr or eq > xq or es > xs
                or not extra <= 2 * used.bit_count() <= most):
            continue
        rest = _lay_off_degrees(out, (xp - ep, xr - er, xq - eq, xs - es))
        if rest is not None and _erdos_gallai(rest):
            return used
    return None


def _lay_off_degrees(out, needs) -> list[int] | None:
    """A new list: the nonincreasing residuals ``out`` after each demand
    in ``needs`` is laid off onto the largest of them, or None when a
    demand is negative or finds too few positive residuals. The callers
    are ``_core_residual`` and ``_first_fit``, with each placed vertex's
    outside demand, and the replay's deletion case, with the least
    degree, whose lay-off ``proof_replay._attach_back`` undoes on the
    realization of the residual. None hands it a negative demand:
    ``_decide_sequence`` returns before ``_core_residual`` when a core
    degree falls below m - 1, and ``_first_fit`` skips a subset that
    would leave one."""
    out = list(out)
    for k in needs:
        if k:
            if not 0 < k <= len(out) or not out[k - 1]:
                return None
            for i in range(k):
                out[i] -= 1
            out.sort(reverse=True)
    return out


def _placement(seq: DegreeSequence, m: int, used: int):
    """The realization of seq with F_m on vertices 0..m-1, the core on
    0..m-5, the diagonals ad and bc and the cycle edges in ``used``,
    with its embedding. The caller has found on degrees that this
    placement fits (``_decide_sequence``); ``_realize_around`` finishes
    the rows.
    """
    cycle = p, r, q, s = _cycle(m)
    core = (1 << (m - 4)) - 1
    placed = (1 << m) - 1
    rows = [0] * seq.n
    for v in range(m - 4):
        rows[v] = placed ^ (1 << v)
    for u, v in ((p, q), (r, s)):
        rows[u] = core | (1 << v)
        rows[v] = core | (1 << u)
    for bit, (u, v) in enumerate(((p, r), (r, q), (q, s), (s, p))):
        if (used >> bit) & 1:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    g = _realize_around(seq, rows, m)
    if g is None:
        raise AssertionError(f"placement for {tuple(seq)} ran out of "
                             f"layoff targets")
    return g, cycle + tuple(range(m - 4))


def _k4_on_top(seq: DegreeSequence) -> SmallGraph | None:
    """A realization of seq with K4 on vertices 0..3, or None when no
    realization of seq contains a K4.

    The clique case of the placement argument (module docstring): a K4
    anywhere moves onto the four largest degrees by 2-switches, and
    laying its vertices off onto the largest outside residuals loses no
    realization. seq must be graphical with at least 4 terms.
    """
    rows = [0b1111 ^ (1 << v) for v in range(4)] + [0] * (seq.n - 4)
    return _realize_around(seq, rows, 4)


def _realize_around(seq: DegreeSequence, rows: list[int],
                    placed: int) -> SmallGraph | None:
    """Finish ``rows``, which hold the edges among the placed vertices
    0..placed-1, into a realization of seq, or None when a lay-off runs
    short.

    Each placed vertex in index order is laid off onto the largest
    outside residuals; then Havel-Hakimi lays the largest residual off
    onto the next largest until none is left. Ties go to the lowest
    index: vertex v with residual r is the key ``(r << w) | (2^w-1-v)``,
    w the bit length of n, so a descending sort gives that order and
    puts the spent vertices (r = 0) last, where they are dropped.
    """
    n = seq.n
    w = n.bit_length()
    unit = 1 << w
    low = unit - 1
    keys = [(seq[v] << w) | (low - v) for v in range(placed, n)]
    nxt = 0
    while True:
        keys.sort(reverse=True)
        while keys and keys[-1] < unit:
            keys.pop()
        if nxt < placed:
            u, need = nxt, seq[nxt] - rows[nxt].bit_count()
            nxt += 1
        elif keys:
            top = keys.pop(0)
            u, need = low - (top & low), top >> w
        else:
            break
        if need < 0 or need > len(keys):
            return None
        for i in range(need):
            key = keys[i]
            v = low - (key & low)
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            keys[i] = key - unit
    return SmallGraph._from_rows(n, rows)


def _is_witness(seq: DegreeSequence, target: SmallGraph,
                g: SmallGraph, emb: tuple[int, ...]) -> bool:
    """Does g realize seq and carry every pattern edge under emb?"""
    return g.degrees() == seq and is_embedding(g, target, emb)

