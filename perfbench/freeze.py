"""Recompute the frozen results in expected.json from the current kmc4.

Run from the root of a checkout, then review the diff before committing:

    python3 perfbench/freeze.py

It records the program's own answers: the exact thresholds and extremal
sequences of the sweep, the replay input count (from kmc4's enumeration,
so that the benchmark's own enumeration is checked against it), and the
verdict of every query of the pool that finishes without a class
budget within a generous CPU-time deadline. The verdicts of the fixed slow queries are known without a
search and are written directly.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

from run import SRC, raise_deadline, run_item

sys.path.insert(0, str(SRC))

import kmc4  # noqa: E402

import workloads  # noqa: E402

FREEZE_DEADLINE_S = 5.0

# 9^10 has the complete graph as its only realization, which contains
# every F_m; 0^10 has only the empty graph. An extremal sequence has the
# lower-bound witness as its only realization, which avoids F_m.
KNOWN_VERDICTS = {"9^10": True, "0^10": False}


def main() -> None:
    path = Path(__file__).parent / "expected.json"
    expected = {"sweep": {}, "replay": {}, "queries": {"verdicts": []}}

    for m in workloads.Sweep.ms:
        report = kmc4.sigma_exact(m, workloads.Sweep.n)
        expected["sweep"][str(m)] = {
            "exact": report.exact,
            "extremal_sequences": [list(s) for s in report.extremal_sequences],
        }
        print(f"sweep m={m}: exact {report.exact}", file=sys.stderr)

    lo, hi = workloads.Replay.n_range
    expected["replay"]["items"] = sum(
        1 for n in range(lo, hi + 1)
        for level in range(4 * n - 4, n * (n - 1) + 1, 2)
        for _ in kmc4.graphical_sequences_with_sum(n, level))

    queries = workloads.Queries(expected)
    queries.budget = None
    queries.deadline_s = FREEZE_DEADLINE_S
    signal.signal(signal.SIGVTALRM, raise_deadline)
    verdicts = []
    for item in queries.pool():
        seq, m, text = item
        if item in workloads.fixed_queries():
            verdicts.append([list(seq), m, KNOWN_VERDICTS.get(text, False)])
            continue
        status, seconds, output = run_item(queries, item)
        if status == "ok" and queries.check(item, output) is None:
            verdicts.append([list(seq), m, json.loads(output[1])["verdict"]])
        else:
            print(f"queries {text} m={m}: {status} after {seconds:.1f} s",
                  file=sys.stderr)
    expected["queries"]["verdicts"] = verdicts
    path.write_text(dump(expected))


def dump(expected: dict) -> str:
    """JSON with one sweep entry and one query verdict per line."""
    sweep = ",\n  ".join(f"{json.dumps(m)}: {json.dumps(v)}"
                         for m, v in expected["sweep"].items())
    verdicts = ",\n  ".join(json.dumps(v) for v in expected["queries"]["verdicts"])
    return ('{\n "sweep": {\n  ' + sweep + "\n },\n"
            f' "replay": {json.dumps(expected["replay"])},\n'
            ' "queries": {"verdicts": [\n  ' + verdicts + "\n ]}\n}\n")

if __name__ == "__main__":
    main()
