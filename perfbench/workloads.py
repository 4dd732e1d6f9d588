"""The three benchmark workloads: their inputs, the call each item makes
into kmc4, and the check of each answer.

``nominal_pass_s`` is the time of one untraced pass at the commit that
defined the benchmark (2-core host, Python 3.11.7); a run makes
``--seconds`` divided by it passes.

A workload builds its items from the seed alone; the program sees only
the generated inputs. ``check`` returns None for a correct answer and a
message otherwise. All checks use ``checks`` and the frozen results in
``expected.json``, never kmc4 itself.
"""

from __future__ import annotations

import contextlib
import io
import json
from random import Random

import kmc4
import kmc4.cli

import checks


class Sweep:
    """Exact thresholds by exhaustive sweep: ``sigma_exact(m, 9)``."""

    name = "sweep"
    n = 9
    ms = (4, 5, 6)
    deadline_s = None
    nominal_pass_s = 19.0

    def __init__(self, expected: dict):
        self.expected = {int(m): v for m, v in expected["sweep"].items()}

    def params(self) -> dict:
        return {"n": self.n, "m": list(self.ms)}

    def items(self, seed: int) -> list:
        ms = list(self.ms)
        Random(seed).shuffle(ms)
        return ms

    def call(self, m):
        return kmc4.sigma_exact(m, self.n)

    def answered(self, output) -> bool:
        return True

    def check(self, m, report):
        want = self.expected[m]
        bound = checks.lower_bound(m, self.n)
        if report.exact != want["exact"] or report.exact != bound:
            return (f"m={m}: exact {report.exact}, "
                    f"expected {want['exact']} = bound {bound}")
        seqs = [list(s) for s in report.extremal_sequences]
        if seqs != want["extremal_sequences"]:
            return f"m={m}: extremal sequences {seqs} differ from the frozen ones"
        if len(report.witnesses) != len(seqs):
            return f"m={m}: {len(report.witnesses)} witnesses for {len(seqs)} sequences"
        for seq, g6 in zip(seqs, report.witnesses):
            adj = checks.decode_graph6(g6)
            if list(checks.degree_sequence(adj)) != seq:
                return f"m={m}: witness {g6} does not realize {seq}"
            if sum(seq) != report.exact - 2:
                return f"m={m}: extremal sum {sum(seq)} is not exact - 2"
            if checks.find_fm(adj, m) is not None:
                return f"m={m}: witness {g6} contains F_{m}"
        return None


class Replay:
    """Constructive m = 5 replay on every graphical sequence with
    6 <= n <= 9 and degree sum >= 4n - 4."""

    name = "replay"
    n_range = (6, 9)
    deadline_s = None
    nominal_pass_s = 12.0

    def __init__(self, expected: dict):
        self.count = expected["replay"]["items"]

    def params(self) -> dict:
        return {"m": 5, "n": list(self.n_range)}

    def items(self, seed: int) -> list:
        lo, hi = self.n_range
        seqs = [s for n in range(lo, hi + 1)
                for s in checks.graphical_sequences(n, 4 * n - 4)]
        if len(seqs) != self.count:
            raise RuntimeError(f"replay inputs: {len(seqs)} sequences, "
                               f"expected {self.count}")
        Random(seed).shuffle(seqs)
        return seqs

    def call(self, seq):
        return kmc4.replay_theorem2(seq)

    def answered(self, output) -> bool:
        return True

    def check(self, seq, trace):
        if not trace.steps:
            return f"{seq}: empty trace"
        adj = checks.decode_graph6(trace.steps[-1].graph6)
        if checks.degree_sequence(adj) != seq:
            return f"{seq}: outcome realizes {checks.degree_sequence(adj)}"
        if checks.find_fm(adj, 5) is None:
            return f"{seq}: outcome does not contain F_5"
        return None


class Queries:
    """Single questions through the command line, in process:
    ``kmc4 --json --budget K potential SEQ --m M``.

    The questions are one fixed pool, generated from ``pool_seed``; the
    run's seed only orders them. Each search may examine ``budget``
    realization classes (the command line's own ``--budget``); a search
    that runs out exits 3 and the item counts as failed. Items whose work
    is not bounded by the class budget, a single canonical form taking
    seconds, are cut at a CPU-time deadline and also count as failed.
    Both cut-offs fall on the same items in every run: the class budget
    is a count, and no item of the pool needs CPU time within a factor
    1.4 of the deadline on either side.
    """

    name = "queries"
    ns = (10, 11, 12)
    ms = (4, 5, 6)
    count = 630  # generated items, 70 per (n, m) pair
    pool_seed = 0
    budget = 8
    deadline_s = 1.5
    nominal_pass_s = 19.5

    def __init__(self, expected: dict):
        self.verdicts = {(tuple(seq), m): verdict
                         for seq, m, verdict in expected["queries"]["verdicts"]}

    def params(self) -> dict:
        return {"n": list(self.ns), "m": list(self.ms),
                "generated_items": self.count,
                "fixed_items": len(fixed_queries()),
                "pool_seed": self.pool_seed,
                "budget_classes": self.budget,
                "cpu_deadline_s": self.deadline_s}

    def items(self, seed: int) -> list:
        pool = self.pool()
        Random(seed).shuffle(pool)
        return pool

    def pool(self) -> list:
        """Degree sequences of G(n, p) graphs near the threshold, then the
        fixed slow items.

        Every (n, m) pair gets the same number of items, and the factor on
        p is spread evenly over [0.6, 1.3].
        """
        rng = Random(self.pool_seed)
        pairs = [(n, m) for n in self.ns for m in self.ms]
        per_pair = self.count // len(pairs)
        out = []
        for k in range(per_pair):
            for n, m in pairs:
                scale = 0.6 + 0.7 * (k + rng.random()) / per_pair
                p = checks.lower_bound(m, n) / (n * (n - 1)) * scale
                degrees = [0] * n
                for i in range(n):
                    for j in range(i + 1, n):
                        if rng.random() < p:
                            degrees[i] += 1
                            degrees[j] += 1
                seq = tuple(sorted(degrees, reverse=True))
                out.append((seq, m, ",".join(map(str, seq))))
        return out + fixed_queries()

    def call(self, item):
        _, m, text = item
        argv = ["--json", "potential", text, "--m", str(m)]
        if self.budget is not None:
            argv[1:1] = ["--budget", str(self.budget)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = kmc4.cli.main(argv)
        return code, out.getvalue()

    def answered(self, output) -> bool:
        return output[0] != 3

    def check(self, item, output):
        seq, m, text = item
        code, stdout = output
        if code not in (0, 1, 3):
            return f"{text} m={m}: exit code {code}"
        report = json.loads(stdout)
        if report["sequence"] != list(seq) or report["m"] != m:
            return f"{text} m={m}: report is for {report['sequence']} m={report['m']}"
        verdict = report["verdict"]
        if verdict is not (code == 0):
            return f"{text} m={m}: verdict {verdict} with exit code {code}"
        if code == 3:
            if report["exhausted"] is not False or report["explored"] != self.budget:
                return (f"{text} m={m}: inconclusive after {report['explored']} "
                        f"of {self.budget} classes")
            return None
        frozen = self.verdicts.get((seq, m))
        if frozen is not None and frozen != verdict:
            return f"{text} m={m}: verdict {verdict}, frozen verdict {frozen}"
        if verdict:
            adj = checks.decode_graph6(report["witness"])
            if checks.degree_sequence(adj) != seq:
                return f"{text} m={m}: witness realizes {checks.degree_sequence(adj)}"
            if not checks.is_fm_embedding(adj, m, report["embedding"]):
                return f"{text} m={m}: embedding {report['embedding']} is not F_{m}"
            return None
        if report["exhausted"] is not True:
            return f"{text} m={m}: negative verdict from an incomplete search"
        # Proven thresholds: for m = 4 and 5 the lower bound is exact.
        if m in (4, 5) and sum(seq) >= checks.lower_bound(m, len(seq)):
            return (f"{text} m={m}: negative at degree sum {sum(seq)}, "
                    f"above the threshold")
        return None


def fixed_queries() -> list:
    """Inputs known to be slow at n = 10: the complete and the empty graph's
    sequences at m = 5, and the lower-bound extremal sequence
    ((n-1)^(m-3), (m-3)^(n-m+3)) for m = 4, 5, 6."""
    out = [((9,) * 10, 5, "9^10"), ((0,) * 10, 5, "0^10")]
    for m in (4, 5, 6):
        seq = (9,) * (m - 3) + (m - 3,) * (13 - m)
        out.append((seq, m, ",".join(map(str, seq))))
    return out


WORKLOADS = {cls.name: cls for cls in (Sweep, Replay, Queries)}
