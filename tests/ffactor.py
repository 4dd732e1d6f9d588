"""An exact "potentially F_m-graphic" oracle by f-factors, sharing no
code with kmc4.

F_m is K_m minus a 4-cycle: a core of m - 4 vertices joined to every
other vertex of F_m, and four cycle vertices that keep only two disjoint
diagonals. Place F_m's vertices on distinct vertices of 0..n-1 and call
its edges phi(F_m). A sequence s is potentially F_m-graphic exactly when
some placement leaves K_n - phi(F_m) an f-factor with f(v) = s_v minus
the degree of v in phi(F_m): the factor's edges and phi(F_m) together
realize s, and every realization holding F_m arises this way. Tutte's
f-factor theorem (1952) is the setting.

Vertices of equal degree are interchangeable, and so are the core roles.
So a placement is fixed, up to relabelling, by a multiset of core
degrees, a multiset of cycle degrees, and one of the three pairings of
the cycle vertices into diagonals. Two pairings with the same pairs of
degrees ask the same question, and only the first is kept.

Each placement is tried first by a greedy fill, then as a 0/1 program
solved by HiGHS through ``scipy.optimize.milp``: one variable per free
pair and one equality per vertex. A positive is the rebuilt graph,
checked here for its degrees and for every edge of the placement. A
negative rests only on HiGHS proving every placement infeasible. A
greedy fill that gets stuck proves nothing, and any solver status other
than optimal or infeasible raises. ``has_k4_realization`` asks the same
of K4: four vertices, all six edges fixed.

scipy is imported at module level on purpose: without it the tests that
use this oracle fail to collect rather than skip.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, combinations_with_replacement

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp


def potentially(seq, m: int) -> bool:
    """Does some realization of the graphical sequence seq contain F_m?"""
    seq = tuple(seq)
    return any(_factor_exists(seq, fixed, (m, 4))
               for fixed in _fm_placements(seq, m))


def has_k4_realization(seq) -> bool:
    """Does some realization of the graphical sequence seq contain K4?"""
    seq = tuple(seq)
    return any(_factor_exists(seq, fixed, (4, 0))
               for fixed in _k4_placements(seq))


def _fm_placements(seq, m: int):
    """The edges of each placement of F_m, up to relabelling: core
    vertices need degree m - 1, cycle vertices m - 3."""
    for core, (a, b, c, d) in _role_picks(_by_degree(seq),
                                          ((m - 4, m - 1), (4, m - 3))):
        edges = list(combinations(core, 2))
        edges += [(u, v) for u in core for v in (a, b, c, d)]
        seen = set()
        for diagonals in (((a, b), (c, d)), ((a, c), (b, d)),
                          ((a, d), (b, c))):
            key = tuple(sorted(tuple(sorted((seq[u], seq[v])))
                               for u, v in diagonals))
            if key not in seen:
                seen.add(key)
                yield edges + list(diagonals)


def _k4_placements(seq):
    for (quad,) in _role_picks(_by_degree(seq), ((4, 3),)):
        yield list(combinations(quad, 2))


def _by_degree(seq) -> dict[int, list[int]]:
    by_degree: dict[int, list[int]] = {}
    for v, d in enumerate(seq):
        by_degree.setdefault(d, []).append(v)
    return by_degree


def _role_picks(by_degree, groups, taken=None):
    """Every way to give each group of (size, least degree) its own
    vertices, up to relabelling: a multiset of degrees per group, each
    degree taken as the lowest vertices of that degree not yet used.
    Larger degrees come first, which changes only how soon a positive is
    found."""
    if not groups:
        yield ()
        return
    taken = taken or Counter()
    (size, least), *rest = groups
    values = sorted((d for d in by_degree if d >= least), reverse=True)
    for degrees in combinations_with_replacement(values, size):
        want = Counter(degrees)
        if all(taken[d] + k <= len(by_degree[d]) for d, k in want.items()):
            group = tuple(by_degree[d][taken[d] + i]
                          for d, k in want.items() for i in range(k))
            for later in _role_picks(by_degree, rest, taken + want):
                yield (group,) + later


def _factor_exists(seq, fixed, shape) -> bool:
    """Is there an f-factor of K_n minus the fixed edges, f being seq
    less the fixed degrees? A factor found is checked by ``_check``
    against the pattern's ``shape``."""
    n = len(seq)
    fixed = {(min(u, v), max(u, v)) for u, v in fixed}
    f = list(seq)
    for u, v in fixed:
        f[u] -= 1
        f[v] -= 1
    free = [e for e in combinations(range(n), 2) if e not in fixed]
    chosen = _greedy_fill(f, free)
    if chosen is None:
        chosen = _solve(f, free)
        if chosen is None:
            return False
    _check(seq, fixed, chosen, shape)
    return True


def _greedy_fill(f, free):
    """Fill the demands inside the free pairs, most constrained vertex
    first: the one whose live partners (free pairs to vertices still in
    demand) exceed its demand by least takes the partners of largest
    demand, ties to the lowest index. Returns the pairs chosen, or None
    when a vertex runs short."""
    need = list(f)
    partners = [set() for _ in need]
    for u, v in free:
        partners[u].add(v)
        partners[v].add(u)
    chosen = []
    while True:
        live = [v for v, k in enumerate(need) if k]
        if not live:
            return chosen
        u = min(live, key=lambda v: (
            sum(1 for w in partners[v] if need[w]) - need[v], -need[v], v))
        targets = sorted((w for w in partners[u] if need[w]),
                         key=lambda w: (-need[w], w))[:need[u]]
        if len(targets) < need[u]:
            return None
        need[u] = 0
        for w in targets:
            need[w] -= 1
            chosen.append((min(u, w), max(u, w)))


def _solve(f, free):
    """The f-factor as a 0/1 program: the pairs HiGHS picks, or None
    when it proves there is none."""
    a = np.zeros((len(f), len(free)))
    for j, (u, v) in enumerate(free):
        a[u, j] = a[v, j] = 1
    res = milp(np.zeros(len(free)), integrality=np.ones(len(free)),
               bounds=Bounds(0, 1), constraints=LinearConstraint(a, f, f))
    if res.status == 2:
        return None
    if res.status != 0:
        raise RuntimeError(f"HiGHS ended with status {res.status}: "
                           f"{res.message}")
    return [e for e, x in zip(free, res.x) if x > 0.5]


def _check(seq, fixed, chosen, shape) -> None:
    """The rebuilt graph realizes seq and holds every fixed edge, and the
    fixed edges are the pattern's. ``shape`` is (order, missing): the
    fixed edges span ``order`` vertices and lack ``missing`` pairs among
    them, each vertex in none or two of those. That is K_m minus a
    4-cycle for (m, 4), and K4 for (4, 0)."""
    edges = set(fixed) | set(chosen)
    if len(edges) != len(fixed) + len(chosen):
        raise AssertionError(f"a pair is used twice for {seq}")
    degree = [0] * len(seq)
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    if tuple(degree) != seq or not fixed <= edges:
        raise AssertionError(f"rebuilt graph does not realize {seq}")
    placed = sorted({v for e in fixed for v in e})
    lacking = [e for e in combinations(placed, 2) if e not in fixed]
    ends = Counter(v for e in lacking for v in e)
    if (len(placed), len(lacking)) != shape or set(ends.values()) - {2}:
        raise AssertionError(f"placement for {seq} is not the pattern")
