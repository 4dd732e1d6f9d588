"""Acceptance gate: the eight headline checks for this package.

Each test covers one acceptance criterion and queues exactly one PASS
or FAIL line, which the conftest hook prints in an "acceptance gate"
section at the end of the run so the gate is readable straight off any
pytest invocation.  All comparisons are exact integer or boolean
equality; nothing here is tolerance-based.  Oracle values are computed
inside the tests from first principles (exhaustive labeled-graph
sweeps, brute-force embedding search) rather than read back from the
library under test wherever independence matters.
"""

from __future__ import annotations

import json
import random
from itertools import combinations

from kmc4 import (
    SmallGraph,
    encode_graph6,
    is_graphical,
    km_minus_c4,
    sigma_exact,
    sigma_lower_bound,
    verify_base_cases,
    verify_conjecture,
    verify_theorem1,
    verify_theorem2_range,
)
from kmc4.cli import main

from helpers import (
    brute_embedding_exists,
    decode_graph6,
    find_embedding,
    gray_code_degree_map,
    nonincreasing_tuples,
    random_graph,
    record_acceptance as report,
)

BOWTIE = km_minus_c4(5)


def test_acceptance_1_cli_five_vertex_thresholds(capsys):
    """The CLI sigma report gives 4n-4 at m=5 for n = 5..8."""
    got = {}
    for n in (5, 6, 7, 8):
        code = main(["sigma", "--m", "5", "--n", str(n)])
        out = capsys.readouterr().out
        rec = json.loads(out)
        got[n] = (code, rec["exact"])
    ok = all(got[n] == (0, 4 * n - 4) for n in got)
    report("acceptance 1: CLI exact thresholds at m=5 equal 4n-4 "
           "for n=5..8", ok)
    assert ok, got


def test_acceptance_2_two_disjoint_edges_thresholds():
    """Exact thresholds for the two-disjoint-edges target equal 2n."""
    got = {n: sigma_exact(4, n).exact for n in range(4, 9)}
    ok = all(got[n] == 2 * n for n in got)
    report("acceptance 2: exact thresholds at m=4 equal 2n for n=4..8", ok)
    assert ok, got


def test_acceptance_3_lower_bound_witness_grid():
    """The extremal witness certifies the lower bound on the whole grid."""
    failures = []
    for m in range(4, 10):
        for n in range(m, 10):
            r = verify_theorem1(m, n)
            if not r.passed:
                failures.append((m, n))
    ok = not failures
    report("acceptance 3: lower-bound witness verified for all "
           "4<=m<=n<=9", ok)
    assert ok, failures


def test_acceptance_4_five_vertex_edge_census():
    """Every 5-vertex graph with >= 8 edges contains the pattern, and
    some 7-edge graph does not, so 8 is the right edge threshold."""
    pairs = list(combinations(range(5), 2))
    dense_bad = []
    sparse_free = 0
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        if len(edges) < 7:
            continue
        g = SmallGraph(5, edges)
        has = brute_embedding_exists(g, BOWTIE)
        if len(edges) >= 8 and not has:
            dense_bad.append(mask)
        if len(edges) == 7 and not has:
            sparse_free += 1
    ok = not dense_bad and sparse_free > 0
    report("acceptance 4: all 5-vertex graphs with 8+ edges contain the "
           "pattern; a 7-edge one does not", ok)
    assert ok, (dense_bad, sparse_free)


def test_acceptance_5_induction_base_cases():
    """Every base-case sequence is potential, with a stored witness."""
    entries = verify_base_cases()
    ok = all(e["potential"] and e["witness"] for e in entries)
    report("acceptance 5: induction base sequences all have witnesses", ok)
    assert ok, entries


def test_acceptance_6_replay_agreement():
    """The exact threshold is 4n-4 for n = 5..7, and constructive replay
    builds a checked witness for every sequence at or above it."""
    entries = verify_theorem2_range(7)
    ok = all(e["exact_ok"] and e["replay_failures"] == 0 for e in entries)
    checked = sum(e["sequences_checked"] for e in entries)
    report(f"acceptance 6: replay builds a witness for all {checked} "
           "threshold sequences for n<=7", ok)
    assert ok, entries


def test_acceptance_7_property_suites():
    """Three randomized / exhaustive property checks on the primitives."""
    problems = []

    # (a) graphicality test vs an exhaustive labeled-graph census, n <= 6
    for n in range(1, 7):
        census = gray_code_degree_map(n)
        for tup in nonincreasing_tuples(n, n):
            if is_graphical(tup) != (tup in census):
                problems.append(("graphical", tup))

    # (b) embedding search vs brute-force injections
    rng = random.Random(1009)
    patterns = [km_minus_c4(4), BOWTIE,
                SmallGraph(3, [(0, 1), (1, 2)])]
    for _ in range(150):
        host = random_graph(rng.randint(4, 7), rng.random(), rng)
        pat = rng.choice(patterns)
        emb = find_embedding(host, pat)
        if (emb is not None) != brute_embedding_exists(host, pat):
            problems.append(("embedding", encode_graph6(host)))

    # (c) 1000 graph6 round trips, n <= 12
    rng = random.Random(77)
    for _ in range(1000):
        g = random_graph(rng.randint(0, 12), rng.random(), rng)
        if decode_graph6(encode_graph6(g)) != g:
            problems.append(("graph6", encode_graph6(g)))

    ok = not problems
    report("acceptance 7: property suites (graphicality census, embedding "
           "brute force, 1000 graph6 round trips)", ok)
    assert ok, problems[:5]


def test_acceptance_8_six_vertex_target_sweep():
    """The m=6 sweep completes for n in 6..8 and never undercuts the
    closed-form bound.  Whether the bound is met with equality is
    recorded as evidence, not asserted."""
    reports = verify_conjecture(6, 8)
    ok = (len(reports) == 3
          and all(r.exact is not None for r in reports)
          and all(r.exact >= sigma_lower_bound(6, r.n) for r in reports))
    verdicts = ",".join(r.verdict for r in reports)
    report(f"acceptance 8: m=6 exact sweep for n=6..8 completed at or "
           f"above the bound (verdicts: {verdicts})", ok)
    assert ok, [(r.n, r.exact, r.verdict) for r in reports]
