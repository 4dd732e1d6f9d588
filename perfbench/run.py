"""Benchmark of the kmc4 package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 40 --trace 0

Workloads (defined in ``workloads.py``): ``sweep`` computes exact
thresholds, ``replay`` replays the m = 5 induction on every sequence at
or above 4n - 4 for 6 <= n <= 9, and ``queries`` sends a fixed pool of
generated single questions through the command line in process, each
with a class budget and a CPU-time deadline. The seed orders the items
of every workload. Every workload runs as a
closed loop: one client, one process, each item starting after the
previous one ends. A run makes ``--seconds`` divided by the workload's
nominal pass time full passes over the items, at least one, so that it
measures about ``--seconds`` at the speed of the commit that defined the
benchmark, and the counts of attempted and failed items repeat exactly
from run to run; each metric is the median over passes. Every answer is checked by ``checks.py``, which shares no code
with kmc4, and against the results frozen in ``expected.json``.

With ``--trace 0`` the last line of stdout reports the end-to-end
metrics:

- ``setup_s``: ``import kmc4`` and ``kmc4.cli`` plus one warm-up call
  on a tiny input, in a fresh interpreter; median of several.
- ``pass_s``: wall time of one full pass over the items, not counting
  the checks of the answers, which run between items.
- ``item_p50_ms``, ``item_tail_ms``: per-item latency, median and the
  highest percentile with at least ten samples per pass beyond it, read
  from the samples of all passes together (with fewer than eleven items,
  the median over passes of each pass's maximum); the line before the
  result names that percentile and the sample count.
- ``answered_ratio``: items answered correctly within their limits over
  items attempted, that is one minus the failed ratio. An item fails on
  a wrong answer, an exception, a command-line exit code other than 0 or
  1 (3 is a search whose class budget ran out), or a missed CPU-time
  deadline (``queries`` only, enforced in process). Both limits cut the
  same items in every run, so the failed count repeats exactly.
- ``peak_rss_mb``: peak resident memory of the benchmark process.

With ``--trace 1`` one untraced pass is followed by one pass with every
public kmc4 function wrapped (``tracing.py``), and the last line reports
per-layer call counts, self times and ratios, plus the tracing overhead
(traced minus untraced ``pass_s``).

Exit code 0 when every answer checked out; 1 when any was wrong or
raised; 2 when kmc4 cannot be found under ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracing import Stat, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_RUNS = 7
DEFAULT_SEED = 0

SETUP_CHILD = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import kmc4, kmc4.cli
kmc4.is_potentially((4, 2, 2, 2, 2), kmc4.km_minus_c4(5))
elapsed = time.perf_counter() - start
if not kmc4.__file__.startswith(sys.argv[1]):
    sys.exit(f"kmc4 imported from {kmc4.__file__}")
print(elapsed)
"""

REPLAY_CASES = {
    "base5": "q≥8 (n=5)",
    "deletion": "d_n≤2 deletion",
    "exceptional": "exceptional-sequence",
    "family": "d(v2)=3 sequence",
    "interchange": "interchange",
    "direct": "direct-adjacency",
}


class DeadlineExceeded(BaseException):
    """Raised by the CPU-time alarm signal; a BaseException so no handler
    in the program under test swallows it."""


def raise_deadline(signum, frame):
    raise DeadlineExceeded


def measure_setup() -> float:
    times = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC)],
                              capture_output=True, text=True, timeout=20,
                              cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout))
    return statistics.median(times)


def run_item(workload, item):
    """(status, seconds, output) for one item; status is ok, error or
    deadline. The deadline counts the process's CPU time, not wall time,
    so other load on the host does not decide which items miss it."""
    start = perf_counter()
    try:
        if workload.deadline_s is not None:
            signal.setitimer(signal.ITIMER_VIRTUAL, workload.deadline_s)
        try:
            output = workload.call(item)
        finally:
            signal.setitimer(signal.ITIMER_VIRTUAL, 0)
    except DeadlineExceeded:
        return "deadline", perf_counter() - start, None
    except Exception as exc:  # counted as a failed item and reported
        return "error", perf_counter() - start, repr(exc)
    return "ok", perf_counter() - start, output


def run_pass(workload, items, tracer=None) -> dict:
    """One closed-loop pass. Each answer is checked as soon as it is timed
    and then dropped, so retained outputs do not load the garbage
    collector during later items."""
    statuses = {"ok": 0, "wrong": 0, "error": 0, "budget": 0, "deadline": 0}
    problems = []
    times = []
    for item in items:
        status, seconds, output = run_item(workload, item)
        if tracer is not None:
            tracer.reset_stack()
        times.append(seconds)
        if status == "ok":
            try:
                problem = workload.check(item, output)
            except (ValueError, LookupError, TypeError, AttributeError) as exc:
                problem = f"{item}: unreadable output ({exc!r})"
            if problem is not None:
                status = "wrong"
                problems.append(problem)
            elif not workload.answered(output):
                status = "budget"
        elif status == "error":
            problems.append(f"{item}: raised {output}")
        statuses[status] += 1

    n = len(times)
    pass_s = sum(times)
    times.sort()
    return {
        "pass_s": pass_s,
        "item_p50_ms": statistics.median(times) * 1e3,
        "times": times,
        "answered_ratio": statuses["ok"] / n,
        "statuses": statuses,
        "problems": problems,
    }


def tail_ms(passes) -> float:
    """The item time with ten samples per pass beyond it, over all passes;
    with fewer than eleven items per pass, the median of the maxima."""
    if len(passes[0]["times"]) < 11:
        return statistics.median(p["times"][-1] for p in passes) * 1e3
    pooled = sorted(t for p in passes for t in p["times"])
    return pooled[-10 * len(passes) - 1] * 1e3


def tail_percentile(n: int) -> float:
    return 100.0 * (n - 10) / n if n >= 11 else 100.0


def git_commit() -> str:
    """Commit of the checkout, read from .git without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def observers() -> dict:
    """Counts read from results at the traced boundaries."""
    def replay_counts(trace):
        counts = {"steps": len(trace.steps),
                  "deviations": sum(s.action.startswith("deviation")
                                    for s in trace.steps)}
        for step in trace.steps:
            key = f"case:{step.case}"
            counts[key] = counts.get(key, 0) + 1
        return counts

    return {
        "graphs.find_embedding": lambda emb: {"hits": emb is not None},
        "realizations.is_potentially":
            lambda res: {"decided": 1, "explored": res.explored,
                         "positive": bool(res.verdict)},
        "proof_replay.replay_theorem2": replay_counts,
    }


def layer_metrics(stats: dict, overhead_s: float) -> dict:
    def stat(name):
        return stats.get(name) or Stat()

    def ratio(a, b):
        return a / b if b else 0.0

    cf = stat("graphs.canonical_form")
    fe = stat("graphs.find_embedding")
    g6 = stat("graphs.encode_graph6")
    er = stat("realizations.enumerate_realizations")
    ip = stat("realizations.is_potentially")
    hh = stat("realizations.havel_hakimi_realize")
    ig = stat("sequences.is_graphical")
    gs = stat("sequences.graphical_sequences_with_sum")
    rt = stat("proof_replay.replay_theorem2")
    out = {
        "graphs.canonical_form.calls": (cf.calls, "count"),
        "graphs.canonical_form.self_s": (cf.self_s, "s"),
        "graphs.canonical_form.max_ms": (cf.max_s * 1e3, "ms"),
        "graphs.find_embedding.calls": (fe.calls, "count"),
        "graphs.find_embedding.self_s": (fe.self_s, "s"),
        "graphs.find_embedding.hit_ratio":
            (ratio(fe.counts.get("hits", 0), fe.calls), "ratio"),
        "graphs.encode_graph6.calls": (g6.calls, "count"),
        "graphs.encode_graph6.self_s": (g6.self_s, "s"),
        "realizations.classes_per_canonical_form":
            (ratio(er.yielded, cf.calls), "ratio"),
        "realizations.enumerate_realizations.classes": (er.yielded, "count"),
        "realizations.enumerate_realizations.self_s": (er.self_s, "s"),
        "realizations.is_potentially.calls": (ip.calls, "count"),
        "realizations.is_potentially.self_s": (ip.self_s, "s"),
        "realizations.is_potentially.classes_explored":
            (ip.counts.get("explored", 0), "count"),
        "realizations.is_potentially.positive_ratio":
            (ratio(ip.counts.get("positive", 0), ip.counts.get("decided", 0)),
             "ratio"),
        "realizations.havel_hakimi_realize.calls": (hh.calls, "count"),
        "realizations.havel_hakimi_realize.self_s": (hh.self_s, "s"),
        "sequences.is_graphical.calls": (ig.calls, "count"),
        "sequences.is_graphical.self_s": (ig.self_s, "s"),
        "sequences.graphical_sequences_with_sum.yielded": (gs.yielded, "count"),
        "sequences.graphical_sequences_with_sum.self_s": (gs.self_s, "s"),
        "extremal.sigma_exact.self_s": (stat("extremal.sigma_exact").self_s, "s"),
        "proof_replay.replay_theorem2.calls": (rt.calls, "count"),
        "proof_replay.replay_theorem2.self_s": (rt.self_s, "s"),
        "proof_replay.replay_theorem2.steps": (rt.counts.get("steps", 0), "count"),
    }
    for short, label in REPLAY_CASES.items():
        out[f"proof_replay.case.{short}"] = (rt.counts.get(f"case:{label}", 0), "count")
    out["proof_replay.deviations"] = (rt.counts.get("deviations", 0), "count")
    out["cli.main.self_s"] = (stat("cli.main").self_s, "s")
    for layer in ("sequences", "graphs", "realizations", "extremal", "proof_replay"):
        out[f"{layer}.self_s"] = (sum(s.self_s for name, s in stats.items()
                                      if name.startswith(layer + ".")), "s")
    out["trace.overhead_s"] = (overhead_s, "s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "replay", "queries"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kmc4" / "__init__.py").is_file():
        print(f"kmc4 sources not found under {SRC}", file=sys.stderr)
        return 2
    try:
        setup_s = measure_setup()
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import kmc4
    import workloads

    expected = json.loads((Path(__file__).parent / "expected.json").read_text())
    workload = workloads.WORKLOADS[args.workload](expected)
    items = workload.items(args.seed)
    kmc4.is_potentially((4, 2, 2, 2, 2), kmc4.km_minus_c4(5))  # warm-up
    signal.signal(signal.SIGVTALRM, raise_deadline)

    count = 1 if args.trace else max(1, int(args.seconds / workload.nominal_pass_s))
    passes = [run_pass(workload, items) for _ in range(count)]
    if args.trace:
        tracer = Tracer(observers())
        tracer.install()
        try:
            traced = run_pass(workload, items, tracer)
        finally:
            tracer.uninstall()
        passes.append(traced)
        metrics = layer_metrics(tracer.stats,
                                traced["pass_s"] - passes[0]["pass_s"])
    else:
        def med(key):
            return statistics.median(p[key] for p in passes)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "pass_s": {"value": med("pass_s"), "unit": "s"},
            "item_p50_ms": {"value": med("item_p50_ms"), "unit": "ms"},
            "item_tail_ms": {"value": tail_ms(passes), "unit": "ms"},
            "answered_ratio": {"value": med("answered_ratio"), "unit": "ratio"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }

    problems = [msg for p in passes for msg in p["problems"]]
    for msg in problems[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    statuses = {key: sum(p["statuses"][key] for p in passes)
                for key in passes[0]["statuses"]}
    attempted = len(items) * len(passes)
    print(json.dumps({
        "env": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "seed": args.seed,
            "commit": git_commit(),
            "workload": args.workload,
            "params": workload.params(),
            "items": len(items),
            "passes": len(passes),
            "seconds": args.seconds,
            "trace": args.trace,
        },
        "item_tail_percentile": tail_percentile(len(items)),
        "item_samples_per_pass": len(items),
        "statuses": statuses,
    }, sort_keys=True))
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": attempted - statuses["ok"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
