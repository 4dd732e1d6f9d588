"""Degree-sum thresholds for the complete-graph-minus-4-cycle target.

For a target on m vertices and sequences of length n, the threshold is
the least even value l such that every graphical n-term sequence with
degree sum at least l has a realization containing the target. The
closed form (2m-6)n - (m-3)(m-2) + 2 is a proven lower bound witnessed
by the join of a complete graph on m-3 vertices with an independent set,
and is conjectured (known for m in {4, 5}) to be the exact value. This
module computes the bound, checks the witness, and determines the exact
threshold at small n by a sweep over degree-sum levels.

The sweep runs by induction on n and inverts the failing list one
length down. Lay a vertex of least degree d off an n-term sequence s
with sum S onto the d largest other terms (Kleitman and Wang 1973): the
residual r is graphical with n - 1 terms and sum S - 2d, and a
realization of r holding the target extends to one of s. So with the
threshold at n - 1 known, s is potential when S - 2d reaches it. When
S - 2d sits two below it, s is potential unless r is one of the failing
sequences at n - 1; those few r are lifted back, to every s whose
residual they are, and only those s are decided. Only the sequences
with S - 2d lower still are walked and decided.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple

from .errors import InputError
from .graphs import (SmallGraph, complete_graph, empty_graph, encode_graph6,
                     join)
from .realizations import _decide_sequence, havel_hakimi_realize
from .sequences import (DegreeSequence, _is_threshold,
                        graphical_sequences_with_sum)

# Default cap on the length of the sequences the threshold drivers walk,
# whose number grows exponentially in n. ``_sigma_upward`` is the one
# place it is checked: sigma_exact, verify_conjecture and
# verify_theorem2_range walk a length only after that sweep reached it.
DEFAULT_VERTEX_LIMIT = 12


def sigma_lower_bound(m: int, n: int) -> int:
    """Closed-form lower bound for the threshold, valid for n >= m >= 4."""
    if m < 4:
        raise InputError(f"target needs m >= 4, got {m}")
    if n < m:
        raise InputError(f"need n >= m, got n={n} < m={m}")
    return (2 * m - 6) * n - (m - 3) * (m - 2) + 2


def extremal_witness(m: int, n: int) -> tuple[SmallGraph, DegreeSequence]:
    """The extremal graph and its degree sequence.

    Join of a complete graph on m-3 vertices with n-m+3 isolated
    vertices: degree sequence ((n-1)^(m-3), (m-3)^(n-m+3)) with degree
    sum exactly two below the lower bound.
    """
    sigma_lower_bound(m, n)  # raises unless 4 <= m <= n
    g = join(complete_graph(m - 3), empty_graph(n - m + 3))
    seq = DegreeSequence([n - 1] * (m - 3) + [m - 3] * (n - m + 3))
    return g, seq


class Theorem1Report(NamedTuple):
    """Checks behind the lower bound at one (m, n).

    ``realization_classes`` is 1 when the witness sequence is a
    threshold sequence, which has exactly one labeled realization, and 2
    otherwise, standing for more than one labeled realization.
    """

    m: int
    n: int
    sequence: DegreeSequence
    witness_graph6: str
    pattern_free: bool
    realization_classes: int
    sum_is_bound_minus_two: bool

    @property
    def passed(self) -> bool:
        return (self.pattern_free and self.realization_classes == 1
                and self.sum_is_bound_minus_two)

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "sequence": list(self.sequence),
            "witness": self.witness_graph6,
            "pattern_free": self.pattern_free,
            "realization_classes": self.realization_classes,
            "sum_is_bound_minus_two": self.sum_is_bound_minus_two,
            "passed": self.passed,
        }


def verify_theorem1(m: int, n: int) -> Theorem1Report:
    """Machine-check the lower-bound construction at one (m, n).

    The witness must avoid the target, be the only realization of its
    degree sequence, and have degree sum exactly bound minus two. The
    first check reads the witness's rows: its m-3 clique vertices must
    cover every edge. The target has independence number 2, so covering
    its edges takes m-2 vertices, and a subgraph never needs a larger
    vertex cover than its host; so a graph whose edges m-3 vertices
    cover cannot hold the target. The second check is a test on degrees
    alone: a sequence has exactly one labeled realization exactly when
    it is a threshold sequence (Hammer, Ibaraki and Simeone 1978), and
    then ``realization_classes`` is 1; otherwise it is 2. Nothing is
    searched, so no n is refused.
    """
    g, seq = extremal_witness(m, n)
    return Theorem1Report(
        m=m,
        n=n,
        sequence=seq,
        witness_graph6=encode_graph6(g),
        pattern_free=_clique_covers_edges(g, m),
        realization_classes=1 if _is_threshold(seq) else 2,
        sum_is_bound_minus_two=(sum(seq) + 2 == sigma_lower_bound(m, n)),
    )


def _clique_covers_edges(g: SmallGraph, m: int) -> bool:
    """Does every edge of the witness g touch one of its first m-3
    vertices, the clique of the construction?"""
    clique = (1 << (m - 3)) - 1
    return all(row & ~clique == 0 for row in g.rows[m - 3:])


class SigmaReport(NamedTuple):
    """Exact-threshold result at one (m, n), compared with the formula."""

    m: int
    n: int
    lower_bound: int
    exact: int | None
    verdict: str  # matches | exceeds | below | not_computed
    extremal_sequences: tuple[DegreeSequence, ...] = ()
    witnesses: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "formula": self.lower_bound,
                "extremal_sequences": list(map(list, self.extremal_sequences)),
                "witnesses": list(self.witnesses)}


def sigma_exact(m: int, n: int, limit: int = DEFAULT_VERTEX_LIMIT,
                progress=None) -> SigmaReport:
    """Exact threshold by exhaustive sweep, by induction on n.

    Computes the threshold at every length from m up to n, each by a scan
    of degree-sum levels downward from its top level. Every sequence a
    scan skips is potential by the deletion lemma (see ``_sigma_upward``),
    and every other one is decided on its degrees; the first level with a
    non-potential sequence fixes the threshold at that level plus two,
    the failing sequences are the extremal ones, and all higher levels
    are certified clean. Only the failing sequences at n are realized,
    for their witnesses.
    """
    sigma_lower_bound(m, n)  # raises unless 4 <= m <= n
    for _, exact, failures in _sigma_upward(m, n, limit, progress):
        pass
    return _sigma_report(m, n, exact, failures)


def _sigma_upward(m: int, n_hi: int, limit: int, progress):
    """Yield (n, exact threshold, failing sequences) for n = m..n_hi.

    Deletion lemma: lay a vertex of least degree d off a graphical
    n-term sequence s with sum S onto the d largest other terms
    (Kleitman and Wang 1973). The residual r is graphical with n - 1
    terms and sum S - 2d, and a realization of r holding the target
    extends to one of s: join a new vertex to the d lowered vertices.

    Let below be the threshold at n - 1, so every graphical (n - 1)-term
    sequence with sum at least below is potential, and the failing list
    E(n - 1) holds every one with sum below - 2 that is not. A level S
    then splits by the least term d of s:

    - S - 2d >= below: r is potential, so s is; it is never built.
    - S - 2d = below - 2, that is d = (S - below + 2) / 2: s is potential
      unless r is in E(n - 1). So only the uplifts of each r in
      E(n - 1) are decided (``_uplifts``), the sequences whose residual
      is r; each is graphical, by the same join.
    - S - 2d < below - 2: s is walked and decided, least terms from
      (S - below) / 2 + 2 up.

    Every non-potential sequence at S is decided, so the first failing
    level and its failing sequences, merged into descending order, are
    those of the full sweep. At n = m nothing is known below and the
    whole level is walked. A progress line counts the walked sequences
    and the uplifts apart; its pairings are those of both.

    No s at S has a least term below d, and n terms of at least d sum to
    d * n or more; so a level with d * n > S, that is S > n(below - 2) /
    (n - 2), holds nothing to walk or lift. For n > m the scan starts at
    the highest even level at or below both that and n(n - 1), and
    prints no progress line for the empty levels above it.

    Enumeration is the one exponential step of every threshold driver,
    and every driver walks its lengths only after this sweep has reached
    them; so this is the one place ``limit`` guards: n_hi above it
    raises InputError before any level is walked. The caller checks m
    and n_hi.
    """
    if n_hi > limit:
        raise InputError(f"exact threshold limited to {limit} vertices "
                         f"(got {n_hi})")
    below = None
    failures: list[DegreeSequence] = []
    for n in range(m, n_hi + 1):
        lifted_from, failures = failures, []
        level = n * (n - 1)
        if below is not None:
            # the highest level with d * n <= level; each lower level
            # keeps it, so 0 <= d < n wherever _uplifts is called
            level = min(level, n * (below - 2) // (n - 2)) // 2 * 2
        while level >= 0:
            floor, lifts = 0, []
            if below is not None:
                d = (level - below + 2) // 2
                floor = max(0, d + 1)
                if d >= 0:
                    lifts = [s for r in lifted_from for s in _uplifts(r, d)]
            decided = pairings = 0
            for s in chain(graphical_sequences_with_sum(n, level,
                                                        min_term=floor),
                           lifts):
                verdict, explored, _, _ = _decide_sequence(s, m)
                if not verdict:
                    failures.append(s)
                decided += 1
                pairings += explored
            if progress is not None:
                progress(f"m={m} n={n} sum={level} floor={floor}: "
                         f"{decided - len(lifts)} sequences, "
                         f"{len(failures)} failing, {pairings} pairings, "
                         f"{len(lifts)} uplifts")
            if failures:
                failures.sort(reverse=True)
                break
            level -= 2
        else:
            raise AssertionError("sweep hit level 0 with no failing sequence")
        below = level + 2
        yield n, below, failures


def _uplifts(r: DegreeSequence, d: int):
    """Every sequence with least term d whose Kleitman-Wang residual is r.

    Such an s is r with d of its terms raised by one, every raised term
    at least every unraised one and every term at least d, and d
    appended. With t = r[d - 1], a raised set of d terms holds every term
    above t + 1 and none below t - 1, so the choice is only how many to
    raise of the terms equal to t + 1, t and t - 1 (a, b and c of them).
    A raised t - 1 ties an unraised t, so c > 0 needs every t + 1 raised.
    Distinct counts give distinct sequences. Needs 0 <= d <= len(r).
    """
    if d == 0:
        yield tuple.__new__(DegreeSequence, r + (0,))
        return
    t = r[d - 1]
    top = sum(x > t + 1 for x in r)
    big, mid, low = r.count(t + 1), r.count(t), r.count(t - 1)
    head = tuple(x + 1 for x in r[:top])
    tail = r[top + big + mid + low:] + (d,)
    need = d - top
    for a in range(min(big, need), -1, -1):
        for b in range(min(mid, need - a), -1, -1):
            c = need - a - b
            if c > low or (c and a < big):
                continue
            s = (head + (t + 2,) * a + (t + 1,) * (big - a + b)
                 + (t,) * (mid - b + c) + (t - 1,) * (low - c) + tail)
            if s[-2] >= d:
                yield tuple.__new__(DegreeSequence, s)


def _sigma_report(m: int, n: int, exact: int,
                  failures: list[DegreeSequence]) -> SigmaReport:
    """The report at (m, n), with a witness realization per failure."""
    bound = sigma_lower_bound(m, n)
    verdict = ("matches" if exact == bound
               else "exceeds" if exact > bound else "below")
    witnesses = tuple(encode_graph6(havel_hakimi_realize(s)) for s in failures)
    return SigmaReport(m=m, n=n, lower_bound=bound, exact=exact,
                       verdict=verdict, extremal_sequences=tuple(failures),
                       witnesses=witnesses)


def verify_conjecture(m: int, n_max: int, limit: int = DEFAULT_VERTEX_LIMIT,
                      progress=None) -> list[SigmaReport]:
    """Exact thresholds for n = m..n_max, empty when n_max < m.

    Returns one report per n, all from one upward sweep; the caller
    decides what to make of the verdicts. Exact below the formula would
    contradict the witness construction and exceeding it would refute
    the conjectured equality.
    """
    if n_max < m:
        return []
    sigma_lower_bound(m, m)  # raises unless m >= 4
    return [_sigma_report(m, n, exact, failures)
            for n, exact, failures in _sigma_upward(m, n_max, limit, progress)]
