"""Command-line front end.

Exit codes: 0 for a passing or true outcome, 1 for failing or false
(a failed replay too), 2 for bad input (InputError, with the library's
own message), a length over --limit included. An AssertionError is a
bug in the library and is not caught. --limit caps only the enumerating
commands (sigma, verify conjecture, verify theorem2); the others are
polynomial and take any length. --budget is accepted and ignored, with
a notice on stderr: every verdict is exact. Reports in --json mode
(and the always-JSON sigma report) are the only bytes on stdout;
progress and error text go to stderr. Identical arguments and limits
reproduce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import InputError, ReplayError, _count
from .extremal import (DEFAULT_VERTEX_LIMIT, SigmaReport, extremal_witness,
                       sigma_exact, sigma_lower_bound, verify_conjecture,
                       verify_theorem1)
from .graphs import encode_graph6, km_minus_c4
from .realizations import (WitnessResult, havel_hakimi_realize,
                           is_potentially)
from .sequences import DegreeSequence, _graphical, is_graphical

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _print_report(args, key: str, entries: list[dict], passes, line) -> int:
    """Print a verify report and return its exit code: the one place a
    verify command's PASS or FAIL is decided. The report passes when
    ``passes`` holds for each of ``entries``. Under --json it prints
    ``{key: entries, "passed": ...}``, else ``line`` of each entry and
    then PASS or FAIL."""
    passed = all(passes(e) for e in entries)
    if args.json:
        _emit({key: entries, "passed": passed})
    else:
        for e in entries:
            print(line(e))
        print("PASS" if passed else "FAIL")
    return EXIT_PASS if passed else EXIT_FAIL


def cmd_graphical(args) -> int:
    seq = DegreeSequence.from_text(args.sequence)
    ok = is_graphical(seq)
    if args.json:
        _emit({"sequence": list(seq), "graphical": ok})
    else:
        print("graphical" if ok else "not graphical")
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_realize(args) -> int:
    seq = DegreeSequence.from_text(args.sequence)
    g = havel_hakimi_realize(seq)
    if args.json:
        _emit({"sequence": list(seq), "graph6": encode_graph6(g),
               "edges": g.edge_count})
    else:
        print(encode_graph6(g))
    return EXIT_PASS


def cmd_potential(args) -> int:
    seq = DegreeSequence.from_text(args.sequence)
    try:
        _count(args.m, 4, "--m")
    except InputError:
        # a sequence that is not graphical is reported ahead of a bad --m
        _graphical(seq)
        raise
    if args.m <= seq.n:
        res = is_potentially(seq, km_minus_c4(args.m))
    else:
        # fewer terms than m: is_potentially's immediate no, without
        # building F_m, m rows of m bits that would stay cached
        _graphical(seq)
        res = WitnessResult(False, None, None, 0)
    if args.json:
        _emit({
            "sequence": list(seq),
            "m": args.m,
            "verdict": res.verdict,
            "witness": encode_graph6(res.witness) if res.witness else None,
            "embedding": list(res.embedding) if res.embedding else None,
            "explored": res.explored,
            "exhausted": not res.verdict,
        })
    elif res.verdict:
        print(encode_graph6(res.witness))
    else:
        print(f"not potential: exhausted {res.explored} candidates")
    return EXIT_PASS if res.verdict else EXIT_FAIL


def cmd_sigma(args) -> int:
    # This subcommand is a report generator; it always emits JSON.
    bound = sigma_lower_bound(args.m, args.n)
    if args.bound:
        _emit(SigmaReport(m=args.m, n=args.n, lower_bound=bound,
                          exact=None, verdict="not_computed").to_json_dict())
        return EXIT_PASS
    report = sigma_exact(args.m, args.n, limit=args.limit,
                         progress=args.progress)
    _emit(report.to_json_dict())
    return EXIT_PASS if report.verdict == "matches" else EXIT_FAIL


def cmd_witness(args) -> int:
    g, seq = extremal_witness(args.m, args.n)
    if args.json:
        _emit({
            "m": args.m,
            "n": args.n,
            "sequence": list(seq),
            "graph6": encode_graph6(g),
            "degree_sum": sum(seq),
            "lower_bound": sigma_lower_bound(args.m, args.n),
        })
    else:
        print(encode_graph6(g))
    return EXIT_PASS


def cmd_replay(args) -> int:
    from .proof_replay import replay_theorem2

    trace = replay_theorem2(DegreeSequence.from_text(args.sequence))
    if args.json:
        for line in trace.to_json_lines():
            print(line)
    else:
        print(trace.to_text())
    return EXIT_PASS


def cmd_verify_theorem1(args) -> int:
    _count(args.n_max, 4, "--n-max")
    if args.m is not None:
        _count(args.m, 4, "--m")
    ms = [args.m] if args.m is not None else list(range(4, args.n_max + 1))
    reports = []
    for m in ms:
        for n in range(m, args.n_max + 1):
            reports.append(verify_theorem1(m, n))
            if args.progress is not None:
                args.progress(f"checked lower bound at m={m} n={n}")
    if not reports:
        raise InputError(f"empty grid: no n in [{args.m}, {args.n_max}]")
    return _print_report(
        args, "reports", [r.to_json_dict() for r in reports],
        lambda r: r["passed"],
        lambda r: (f"m={r['m']} n={r['n']}: pattern-free "
                   f"{r['pattern_free']}, classes "
                   f"{r['realization_classes']}, sum-check "
                   f"{r['sum_is_bound_minus_two']} -> "
                   f"{'ok' if r['passed'] else 'FAIL'}"))


def cmd_verify_theorem2(args) -> int:
    from .proof_replay import verify_theorem2_range

    return _print_report(
        args, "entries",
        verify_theorem2_range(args.n_max, limit=args.limit,
                              progress=args.progress),
        lambda e: e["exact_ok"] and e["replay_failures"] == 0,
        lambda e: (f"n={e['n']}: exact {e['exact']} "
                   f"(expected {e['expected']}), "
                   f"{e['sequences_checked']} sequences replayed, "
                   f"{e['replay_failures']} replay failures"))


def cmd_verify_conjecture(args) -> int:
    reports = verify_conjecture(args.m, args.n_max, limit=args.limit,
                                progress=args.progress)
    if not reports:
        raise InputError(f"empty grid: no n in [{args.m}, {args.n_max}]")
    return _print_report(
        args, "reports", [r.to_json_dict() for r in reports],
        lambda r: r["verdict"] == "matches",
        lambda r: (f"m={r['m']} n={r['n']}: exact {r['exact']}, "
                   f"formula {r['lower_bound']}, verdict {r['verdict']}"))


def cmd_verify_base_cases(args) -> int:
    from .proof_replay import verify_base_cases

    return _print_report(
        args, "entries",
        verify_base_cases(args.family_n) if args.family_n
        else verify_base_cases(),
        lambda e: e["potential"],
        lambda e: (f"n={e['n']} ({DegreeSequence(e['sequence']).to_text()})"
                   f": {e['witness'] if e['potential'] else 'NO WITNESS'}"))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``kmc4`` argument parser, built on the first call and cached
    for the life of the process. Parsing leaves it unchanged; callers
    must not mutate the returned parser."""
    p = argparse.ArgumentParser(
        prog="kmc4",
        description="Potential-subgraph thresholds for the complete graph "
                    "on m vertices with a 4-cycle of edges removed.")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output on stdout")
    p.add_argument("--limit", type=int, default=DEFAULT_VERTEX_LIMIT,
                   metavar="N",
                   help=f"sequence length cap for sigma, verify conjecture "
                        f"and verify theorem2 (default {DEFAULT_VERTEX_LIMIT},"
                        f" at least 1); the other commands take any length")
    # accepted and ignored: every verdict is exact (module docstring)
    p.add_argument("--budget", type=int, default=None, help=argparse.SUPPRESS)
    p.add_argument("--progress", action="store_true",
                   help="progress lines on stderr")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("graphical", help="test a degree sequence")
    sp.add_argument("sequence", help="terms like 4,2,2,2,2 or 5,3^5")
    sp.set_defaults(func=cmd_graphical)

    sp = sub.add_parser("realize", help="greedy realization, graph6 output")
    sp.add_argument("sequence")
    sp.set_defaults(func=cmd_realize)

    sp = sub.add_parser("potential",
                        help="does some realization contain the target?")
    sp.add_argument("sequence")
    sp.add_argument("--m", type=int, default=5,
                    help="target size (default 5)")
    sp.set_defaults(func=cmd_potential)

    sp = sub.add_parser("sigma",
                        help="threshold report (always JSON on stdout)")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--bound", action="store_true",
                    help="closed-form lower bound only, no exhaustive sweep")
    sp.set_defaults(func=cmd_sigma)

    sp = sub.add_parser("witness",
                        help="extremal graph meeting the lower bound")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(func=cmd_witness)

    sp = sub.add_parser("replay",
                        help="constructive proof trace for the m=5 threshold")
    sp.add_argument("sequence")
    sp.set_defaults(func=cmd_replay)

    sp = sub.add_parser("verify", help="machine-check one of the claims")
    vsub = sp.add_subparsers(dest="claim", required=True)

    v = vsub.add_parser("theorem1", help="lower-bound witness grid")
    v.add_argument("--m", type=int, default=None,
                   help="single m to check (default: every m from 4)")
    v.add_argument("--n-max", type=int, default=9)
    v.set_defaults(func=cmd_verify_theorem1)

    v = vsub.add_parser("theorem2",
                        help="m=5 equality with full proof replay")
    v.add_argument("--n-max", type=int, default=7)
    v.set_defaults(func=cmd_verify_theorem2)

    v = vsub.add_parser("conjecture", help="equality sweep for one m")
    v.add_argument("--m", type=int, required=True)
    v.add_argument("--n-max", type=int, required=True)
    v.set_defaults(func=cmd_verify_conjecture)

    v = vsub.add_parser("base-cases",
                        help="induction base sequences have witnesses")
    v.add_argument("--family-n", type=int, action="append", metavar="N",
                   help="extra hub-plus-cycle instance (repeatable; default 8)")
    v.set_defaults(func=cmd_verify_base_cases)

    return p


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # from here on, a callable taking one progress message, or None
    args.progress = (functools.partial(print, file=sys.stderr, flush=True)
                     if args.progress else None)
    _count(args.limit, 1, "--limit")
    if args.budget is not None:
        print("kmc4: --budget is ignored; every verdict is exact",
              file=sys.stderr)
    return args.func(args)


def main(argv=None) -> int:
    try:
        return run(argv)
    except SystemExit as exc:
        # argparse's own exit: 0 after --help, 2 on a usage error
        return exc.code
    except ReplayError as exc:
        print(f"replay failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
