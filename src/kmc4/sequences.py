"""Degree sequences: normalization, graphicality, exhaustive enumeration.

A sequence is graphical when some simple graph realizes it; the test is
the Erdos-Gallai system of inequalities. The same inequalities, held
with equality, pick out the threshold sequences: those with exactly one
labeled realization. Enumeration goes one degree-sum
level at a time, which lets the threshold sweeps upstream stop as early
as possible. Within a level it is one depth-first walk over nonincreasing
sequences, largest terms first. Each prefix is pruned as soon as the
Erdos-Gallai inequality at its length fails for every possible tail, so
most non-graphical sequences are never built. Where a term is at most
its position that prune is the exact inequality, so each leaf checks
only the inequalities it left open, which keeps the output exact. An
optional floor on every term narrows each term's range and leaves the
order of the walk as it is. The walk takes any length: the threshold
sweep in ``extremal`` caps the lengths every driver walks, once, before
any level is walked.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from .errors import InputError, _count


class DegreeSequence(tuple):
    """Nonincreasing tuple of vertex degrees.

    Each term must be an ``int``, not a ``bool``, and at least 0, or
    InputError is raised. Construction sorts the values descending, so
    two sequences with the same multiset of degrees compare equal.
    Everything else is plain tuple behaviour, pickling and copying
    included. A value that is already exactly of this type is returned
    as it is, without sorting or checking it again.
    """

    __slots__ = ()

    def __new__(cls, values: Iterable[int]):
        if type(values) is cls:
            return values
        terms = _sorted_terms(values)
        if terms[-1] < 0:
            raise InputError(f"negative degree {terms[-1]}")
        return tuple.__new__(cls, terms)

    @property
    def n(self) -> int:
        return len(self)

    @classmethod
    def from_text(cls, text: str) -> "DegreeSequence":
        """Parse comma form ``5,3,3,3,3,3`` or power form ``5^1,3^5``.

        The two notations may be mixed term by term.
        """
        values: list[int] = []
        for part in text.split(","):
            part = part.strip()
            if not part:
                raise InputError(f"empty term in {text!r}")
            base, sep, count = part.partition("^")
            try:
                value = int(base)
                reps = int(count) if sep else 1
            except ValueError:
                raise InputError(f"bad term {part!r}") from None
            if reps < 1:
                raise InputError(f"bad multiplicity in {part!r}")
            values.extend([value] * reps)
        return cls(values)

    def to_text(self) -> str:
        """Render as comma-separated terms."""
        return ",".join(str(t) for t in self)


def _sorted_terms(values: Iterable[int]) -> list[int]:
    """The term rule ``DegreeSequence`` and ``is_graphical`` share: at
    least one term, each an ``int`` and not a ``bool``, checked before
    the sort. Returns the terms nonincreasing; the sign is the caller's."""
    terms = list(values)
    if not terms:
        raise InputError("degree sequence needs at least one term")
    for t in terms:
        if not isinstance(t, int) or isinstance(t, bool):
            raise InputError(f"degree {t!r} is not an integer")
    terms.sort(reverse=True)
    return terms


def is_graphical(seq: Iterable[int]) -> bool:
    """Erdos-Gallai test: does some simple graph realize the sequence?
    A term breaking the term rule raises InputError; a negative one, or
    one above n - 1, answers False. A DegreeSequence is read as it is."""
    d = seq if type(seq) is DegreeSequence else _sorted_terms(seq)
    return d[-1] >= 0 and d[0] < len(d) and _erdos_gallai(d)


def _graphical(seq: Iterable[int]) -> DegreeSequence:
    """seq as a DegreeSequence; InputError unless it is graphical."""
    seq = DegreeSequence(seq)
    if not is_graphical(seq):
        raise InputError(f"sequence {seq.to_text()} is not graphical")
    return seq


def _erdos_gallai(d: Sequence[int]) -> bool:
    """The Erdos-Gallai inequalities for nonincreasing nonnegative terms,
    parity included.

    Stops at the first k with d_k < k: from inequality k - 1 to k the
    left side grows by d_k and the right side by at least
    2(k - 1) - d_k >= d_k, and every later term is below its position
    too, so every later inequality holds.
    """
    if sum(d) & 1:
        return False
    # Right side of inequality k: k(k-1) + sum(min(x, k) for x in d[k:]).
    # The terms at least k are d[:q], with q >= k while d_k >= k, so it
    # is k(q-1) plus the sum of d[q:]; q only moves left as k grows.
    lhs = 0
    tail = 0
    q = len(d)
    for k, dk in enumerate(d, 1):
        if dk < k:
            return True
        lhs += dk
        while d[q - 1] < k:
            q -= 1
            tail += d[q]
        if lhs > k * (q - 1) + tail:
            return False
    return True


def _is_threshold(d) -> bool:
    """Does the graphical nonincreasing sequence d have exactly one
    labeled realization?

    Hammer, Ibaraki and Simeone (1978): exactly when d is a threshold
    sequence, that is when the Erdos-Gallai inequality holds with
    equality for every k up to max{k : d_k >= k - 1}.
    """
    lhs = 0
    for k, dk in enumerate(d, 1):
        if dk < k - 1:
            break
        lhs += dk
        if lhs != k * (k - 1) + sum(min(x, k) for x in d[k:]):
            return False
    return True


def graphical_sequences_with_sum(n: int, total: int, *,
                                 min_term: int = 0) -> Iterator[DegreeSequence]:
    """All graphical n-term sequences with the exact degree sum given and
    every term at least ``min_term``, descending lexicographically. Odd
    sums yield nothing.

    The floor only narrows the range of each term, so the walk, its
    prune and the order are those of the unfloored enumeration with the
    sequences below the floor left out. ``n`` (at least 1), ``total``
    and ``min_term`` (at least 0) follow the count rule; a total above
    n(n - 1) raises InputError too.
    """
    if _count(n, 1, "n") * (n - 1) < _count(total, 0, "total"):
        raise InputError(f"degree sum {total} out of range for n={n}")
    if _count(min_term, 0, "min_term") * n > total or total % 2:
        return
    # Depth-first over nonincreasing terms <= n-1: level j holds the next
    # value to try for term j, at most what leaves min_term for each later
    # term, and the least value that still lets the remaining sum spread
    # over the remaining terms, at least min_term.
    terms = [0] * n
    nxt = [0] * n
    low = [0] * n
    prefix = [0] * (n + 1)
    prefix[n] = total
    nxt[0] = min(n - 1, total - min_term * (n - 1))
    low[0] = max(-(-total // n), min_term)  # ceil
    j = 0
    while j >= 0:
        v = nxt[j]
        if v < low[j]:
            j -= 1
            continue
        nxt[j] = v - 1
        k = j + 1
        p = prefix[j] + v
        rest = total - p
        # Erdos-Gallai inequality k: every later term is at most v, so the
        # tail adds at most min(rest, (n-k) * min(v, k)) to its right side.
        slack = p - k * (k - 1)
        if slack > rest or slack > (n - k) * (v if v < k else k):
            continue
        terms[j] = v
        if k == n:
            # Where d_i <= i the bound above was exact, so inequality i
            # holds. The others form the prefix d_i > i (so i < n - 1), and
            # of those only the run ends d_i > d_{i+1} need checking
            # (Tripathi and Vijay). The terms at least i are terms[:q].
            i = 1
            q = n
            while terms[i - 1] > i:
                if terms[i - 1] > terms[i]:
                    while terms[q - 1] < i:
                        q -= 1
                    if prefix[i] > i * (q - 1) + total - prefix[q]:
                        break
                i += 1
            else:
                yield tuple.__new__(DegreeSequence, terms)
            continue
        prefix[k] = p
        cap = rest - min_term * (n - k - 1)
        nxt[k] = v if v < cap else cap
        lo = -(-rest // (n - k))
        low[k] = lo if lo > min_term else min_term
        j = k
