"""One workload process: set up the inputs, run the closed loop, report.

run.py starts this file in a fresh interpreter and writes a job to its
standard input: {"mode": "setup" | "run" | "trace", "queries": [...],
"seconds": S, "spans_path": ...}. The process imports ppm from the
checkout's src/, builds every input through ppm's constructors, notes the
monotonic clock (the end of set-up), and in "setup" mode stops there.

"run" mode is the untraced closed loop: one client issues the queries of
the pass in order, each after the previous answer came back and was
checked, and repeats whole passes while one more still fits in S seconds
(at least MIN_PASSES passes). Whole passes make the outcome ratios exact.
Each query is taken at its median time across passes. Latency percentiles
are taken over those medians, and throughput is a pass's completed
queries over their sum. A burst of load from outside the process thus
moves neither (see README.md for why the median). The host-speed probe
(probe.py) runs after every query, outside its timing, and the reported
figures are scaled to the nominal host speed; the wall figures go along.
Each mode also probes the host right after set-up, so that run.py can
scale the set-up time the same way.

"trace" mode runs untraced passes for S/2 seconds, then installs the
tracer and runs traced passes for S/2 seconds (at least one pass each).
The last line on standard output is the JSON report.
"""
from __future__ import annotations

import json
import math
import os
import resource
import statistics
import sys
import time
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)  # python3 -I leaves the script's directory off the path
import probe  # noqa: E402

MIN_PASSES = 3  # a median over passes needs a few of them
SETUP_PROBES = 15


class Tally:
    """Outcomes and wall times of the queries run so far, by query and pass."""

    def __init__(self, size: int):
        self.outcomes = {"ok": 0, "inconclusive": 0, "wrong": 0, "error": 0}
        self.times = [[] for _ in range(size)]  # seconds, one entry per pass
        self.failed_ids = set()
        self.passes = 0
        self.probes = []  # seconds per host-speed probe, one after each query
        self.errors = []

    @property
    def attempted(self) -> int:
        return sum(self.outcomes.values())

    @property
    def failed(self) -> int:
        return self.outcomes["wrong"] + self.outcomes["error"]

    def percentile_ms(self, q: float) -> float:
        """Nearest-rank percentile over the queries, each taken at its median
        time across passes; a failed query counts as slower than all."""
        per_query = sorted(float("inf") if i in self.failed_ids else statistics.median(t)
                           for i, t in enumerate(self.times) if t)
        return 1000 * per_query[math.ceil(len(per_query) * q / 100) - 1]

    def throughput_qps(self) -> float:
        """Completed queries of one pass over the sum of the median query
        times: the time of a pass, query by query."""
        completed = self.attempted - self.outcomes["error"]
        return completed / self.passes / sum(statistics.median(t)
                                                        for t in self.times if t)


def execute(query, qid: int, tally: Tally, call=None) -> str:
    """Time one query, check its answer, and record the outcome."""
    import queries as qs
    start = perf_counter()
    try:
        answer = call() if call is not None else query.run()
    except qs.INCONCLUSIVE_ERRORS:
        outcome = qs.INCONCLUSIVE
    except Exception as exc:  # any other exception is a failed query
        outcome = qs.ERROR
        if len(tally.errors) < 5:
            tally.errors.append(f"{query.kind}: {type(exc).__name__}: {exc}")
    else:
        outcome = None
    elapsed = perf_counter() - start
    if outcome is None:
        try:
            outcome = query.check(answer)
        except Exception as exc:  # a malformed answer fails its check
            outcome = qs.WRONG
            if len(tally.errors) < 5:
                tally.errors.append(f"{query.kind}: check raised {type(exc).__name__}: {exc}")
    tally.outcomes[outcome] += 1
    tally.times[qid].append(elapsed)
    if outcome in (qs.WRONG, qs.ERROR):
        tally.failed_ids.add(qid)
    return outcome


def run_passes(built, seconds: float, tracer=None, min_passes=MIN_PASSES) -> Tally:
    """Whole passes over `built` while another one still fits in `seconds`,
    and at least min_passes of them."""
    tally = Tally(len(built))
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        for qid, query in enumerate(built):
            call = None if tracer is None else (
                lambda q=query, i=tally.attempted: tracer.run_query(i, q.run))
            execute(query, qid, tally, call)
            tally.probes.append(probe.probe())
        tally.passes += 1
        elapsed, last_pass = perf_counter() - start, perf_counter() - pass_start
        if tally.passes >= min_passes and elapsed + last_pass > seconds:
            return tally


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def report(tally: Tally) -> dict:
    slowdown = probe.slowdown(tally.probes)
    wall = {"throughput_qps": tally.throughput_qps(), "p50_ms": tally.percentile_ms(50),
            "p90_ms": tally.percentile_ms(90)}
    return {"attempted": tally.attempted, "failed": tally.failed,
            "outcomes": dict(tally.outcomes), "errors": tally.errors,
            "passes": tally.passes, "slowdown": slowdown, "wall": wall,
            "throughput_qps": wall["throughput_qps"] * slowdown,
            "p50_ms": wall["p50_ms"] / slowdown, "p90_ms": wall["p90_ms"] / slowdown}


def main() -> int:
    sys.path.insert(0, SRC)
    job = json.load(sys.stdin)
    import ppm
    if not os.path.abspath(ppm.__file__).startswith(SRC + os.sep):
        print(f"worker: ppm imported from {ppm.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    import queries as qs
    built = [qs.build(spec) for spec in job["queries"]]
    ready = time.monotonic()
    out = {"ready": ready,
           "setup_slowdown": probe.slowdown([probe.probe() for _ in range(SETUP_PROBES)])}
    if job["mode"] == "run":
        out.update(report(run_passes(built, job["seconds"])))
        out["peak_rss_mb"] = peak_rss_mb()
    elif job["mode"] == "trace":
        import layertrace
        # no percentiles come from a traced run, so one pass per phase will do
        plain = run_passes(built, job["seconds"] / 2, min_passes=1)
        tracer = layertrace.Tracer()
        tracer.install()
        try:
            traced = run_passes(built, job["seconds"] / 2, tracer, min_passes=1)
        finally:
            tracer.uninstall()
        if any(plain.outcomes[k] * traced.attempted != traced.outcomes[k] * plain.attempted
               for k in plain.outcomes):
            # identical passes must end identically; anything else is a tracer bug
            print(f"worker: outcomes untraced {plain.outcomes} and traced {traced.outcomes} "
                  f"{traced.errors} differ", file=sys.stderr)
            return 4
        out.update(report(traced))
        out["traced_queries"] = traced.attempted
        out["attempted"] += plain.attempted
        out["failed"] += plain.failed
        out["errors"] = (plain.errors + traced.errors)[:5]
        for key, count in plain.outcomes.items():
            out["outcomes"][key] += count
        out["layers"] = layertrace.layer_metrics(tracer, traced.attempted)
        # both at nominal host speed, as the phases ran at different moments
        out["layers"]["trace.overhead_ratio"] = \
            report(plain)["throughput_qps"] / out["throughput_qps"]
        out["self_shares"] = layertrace.self_shares(tracer)
        out["spans"] = len(tracer.name)
        if job.get("spans_path"):
            tracer.write(job["spans_path"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
