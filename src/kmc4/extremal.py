"""Degree-sum thresholds for the complete-graph-minus-4-cycle target.

For a target on m vertices and sequences of length n, the threshold is
the least even value l such that every graphical n-term sequence with
degree sum at least l has a realization containing the target. The
closed form (2m-6)n - (m-3)(m-2) + 2 is a proven lower bound witnessed
by the join of a complete graph on m-3 vertices with an independent set,
and is conjectured (known for m in {4, 5}) to be the exact value. This
module computes the bound, checks the witness, and determines the exact
threshold by exhaustive sweep at small n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .errors import BudgetExceededError, InputError, LimitError
from .graphs import (DEFAULT_VERTEX_LIMIT, SmallGraph, empty_graph,
                     complete_graph, encode_graph6, find_embedding, join,
                     km_minus_c4)
from .realizations import _decide_sequence, havel_hakimi_realize
from .sequences import (DegreeSequence, _is_threshold,
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


def verify_theorem1(m: int, n: int,
                    limit: int = DEFAULT_VERTEX_LIMIT) -> Theorem1Report:
    """Machine-check the lower-bound construction at one (m, n).

    The witness must avoid the target, be the only realization of its
    degree sequence, and have degree sum exactly bound minus two. The
    second check is a test on degrees alone: a sequence has exactly one
    labeled realization exactly when it is a threshold sequence (Hammer,
    Ibaraki and Simeone 1978), and then ``realization_classes`` is 1;
    otherwise it is 2.
    """
    g, seq = extremal_witness(m, n)
    if n > limit:
        raise LimitError(f"realization search limited to {limit} vertices (got {n})")
    return Theorem1Report(
        m=m,
        n=n,
        sequence=seq,
        witness_graph6=encode_graph6(g),
        pattern_free=find_embedding(g, km_minus_c4(m)) is None,
        realization_classes=1 if _is_threshold(seq) else 2,
        sum_is_bound_minus_two=(sum(seq) + 2 == sigma_lower_bound(m, n)),
    )


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
                workers: int = 1, budget: int | None = None,
                progress=None) -> SigmaReport:
    """Exact threshold by exhaustive sweep.

    Scans degree-sum levels downward from n(n-1). Every sequence at every
    level is decided; the first level with a non-potential sequence fixes
    the threshold at that level plus two, the failing sequences are the
    extremal ones, and all higher levels have already been certified
    clean. Levels are independent, so the per-sequence checks may be
    spread over worker processes.

    Each sequence goes straight to the verdict-only decision on its
    degrees, in every mode: the generator has just found it graphical,
    n >= m holds because the lower bound is defined, and n is within the
    limit. Only the failing sequences are realized, for their witnesses.
    """
    bound = sigma_lower_bound(m, n)
    if n > limit:
        raise LimitError(f"exact threshold limited to {limit} vertices (got {n})")
    decide = partial(_decide_sequence, m=m, budget=budget)
    # A budget needs the serial path so the short verdict can surface.
    pool = None
    if workers > 1 and budget is None:
        # Imported here: loading the process pool costs every kmc4
        # process a third of its start-up.
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(workers)
    try:
        level = n * (n - 1)
        while level >= 0:
            seqs = list(graphical_sequences_with_sum(n, level, limit=limit))
            if pool is not None and len(seqs) > 1:
                chunk = max(1, len(seqs) // (4 * workers))
                results = pool.map(decide, seqs, chunksize=chunk)
            else:
                results = map(decide, seqs)
            failures = []
            pairings = 0
            for s, (verdict, explored, exhausted) in zip(seqs, results):
                if not verdict:
                    if not exhausted:
                        raise BudgetExceededError(
                            f"budget ran out deciding {tuple(s)} at level {level}",
                            partial=explored)
                    failures.append(s)
                pairings += explored
            if progress is not None:
                progress(f"m={m} n={n} sum={level}: "
                         f"{len(seqs)} sequences, {len(failures)} failing, "
                         f"{pairings} pairings")
            if failures:
                exact = level + 2
                assert exact % 2 == 0
                verdict = ("matches" if exact == bound
                           else "exceeds" if exact > bound else "below")
                witnesses = tuple(encode_graph6(havel_hakimi_realize(s))
                                  for s in failures)
                return SigmaReport(m=m, n=n, lower_bound=bound, exact=exact,
                                   verdict=verdict,
                                   extremal_sequences=tuple(failures),
                                   witnesses=witnesses)
            level -= 2
    finally:
        if pool is not None:
            pool.shutdown()
    raise AssertionError("sweep hit level 0 with no failing sequence")


def verify_conjecture(m: int, n_range, limit: int = DEFAULT_VERTEX_LIMIT,
                      workers: int = 1, progress=None) -> list[SigmaReport]:
    """Exact thresholds across an inclusive interval of n.

    Returns one report per n; the caller decides what to make of the
    verdicts. Exact below the formula would contradict the witness
    construction and exceeding it would refute the conjectured equality.
    """
    lo, hi = n_range
    if lo < m:
        raise InputError(f"range starts below m: {lo} < {m}")
    if hi > limit:
        raise LimitError(f"exact threshold limited to {limit} vertices (got {hi})")
    reports = []
    for n in range(lo, hi + 1):
        reports.append(sigma_exact(m, n, limit=limit, workers=workers,
                                   progress=progress))
    return reports
