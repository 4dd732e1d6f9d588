"""Degree-sum thresholds for the complete-graph-minus-4-cycle target.

For a target on m vertices and sequences of length n, the threshold is
the least even value l such that every graphical n-term sequence with
degree sum at least l has a realization containing the target. The
closed form (2m-6)n - (m-3)(m-2) + 2 is a proven lower bound witnessed
by the join of a complete graph on m-3 vertices with an independent set,
and is conjectured (known for m in {4, 5}) to be the exact value. This
module computes the bound, checks the witness, and determines the exact
threshold at small n by a sweep over degree-sum levels. The sweep runs
by induction on n: the paper's deletion step proves potential every
sequence whose least term is small against the threshold one length
down, and only the others are decided.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, LimitError
from .graphs import (SmallGraph, complete_graph, empty_graph, encode_graph6,
                     join)
from .realizations import _decide_sequence, havel_hakimi_realize
from .sequences import (DEFAULT_VERTEX_LIMIT, DegreeSequence, _is_threshold,
                        graphical_sequences_with_sum)


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
    if m < 4:
        raise InputError(f"target needs m >= 4, got {m}")
    if n < m:
        raise InputError(f"need n >= m, got n={n} < m={m}")
    g = join(complete_graph(m - 3), empty_graph(n - m + 3))
    seq = DegreeSequence([n - 1] * (m - 3) + [m - 3] * (n - m + 3))
    return g, seq


@dataclass
class Theorem1Report:
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
    searched, so n is capped only by ``MAX_VERTICES``.
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


@dataclass
class SigmaReport:
    """Exact-threshold result at one (m, n), compared with the formula."""

    m: int
    n: int
    lower_bound: int
    exact: int | None
    verdict: str  # matches | exceeds | below | not_computed
    extremal_sequences: tuple[DegreeSequence, ...] = ()
    witnesses: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "lower_bound": self.lower_bound,
            "exact": self.exact,
            "formula": self.lower_bound,
            "verdict": self.verdict,
            "extremal_sequences": [list(s) for s in self.extremal_sequences],
            "witnesses": list(self.witnesses),
        }


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
    n-term sequence with sum S onto the d largest other terms
    (Kleitman-Wang). What is left is graphical with n - 1 terms and sum
    S - 2d, and a realization of it holding the target extends to one of
    the whole sequence. So once the threshold s at n - 1 is known, every
    sequence with S - 2d >= s is potential, and a level S need only walk
    the sequences whose least term is above (S - s) / 2. Those include
    every non-potential one, so the first failing level and its failing
    sequences, in order, are those of the full sweep. At n = m nothing is
    known below and the whole level is walked.

    Enumeration is the one exponential step of every threshold driver,
    so this is where ``limit`` guards it: n_hi above it raises LimitError
    before any level is walked. The caller checks m and n_hi.
    """
    if n_hi > limit:
        raise LimitError(f"exact threshold limited to {limit} vertices "
                         f"(got {n_hi})")
    below = None
    for n in range(m, n_hi + 1):
        level = n * (n - 1)
        while level >= 0:
            floor = 0 if below is None else max(0, (level - below) // 2 + 1)
            failures = []
            count = pairings = 0
            for s in graphical_sequences_with_sum(n, level, limit=limit,
                                                  min_term=floor):
                verdict, explored, _, _, _ = _decide_sequence(s, m, None)
                if not verdict:
                    failures.append(s)
                count += 1
                pairings += explored
            if progress is not None:
                progress(f"m={m} n={n} sum={level} floor={floor}: "
                         f"{count} sequences, {len(failures)} failing, "
                         f"{pairings} pairings")
            if failures:
                break
            level -= 2
        else:
            raise AssertionError("sweep hit level 0 with no failing sequence")
        below = level + 2
        yield n, below, failures


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


def verify_conjecture(m: int, n_range, limit: int = DEFAULT_VERTEX_LIMIT,
                      progress=None) -> list[SigmaReport]:
    """Exact thresholds across an inclusive interval of n.

    Returns one report per n, all from one upward sweep; the caller
    decides what to make of the verdicts. Exact below the formula would
    contradict the witness construction and exceeding it would refute
    the conjectured equality.
    """
    lo, hi = n_range
    if lo < m:
        raise InputError(f"range starts below m: {lo} < {m}")
    if lo > hi:
        return []
    sigma_lower_bound(m, lo)  # raises unless m >= 4
    return [_sigma_report(m, n, exact, failures)
            for n, exact, failures in _sigma_upward(m, hi, limit, progress)
            if n >= lo]
