"""ppm benchmark: one seeded workload, closed loop, checked answers.

    python3 perfbench/run.py --workload fg_analyze --seed 1 --seconds 20 --trace 0

Generates the workload's queries from the seed, then starts worker.py in
fresh interpreters: one runs the timed loop, and the others only set up,
half of them before and half after the timed one, so that setup_s, the
median of SETUP_SAMPLES set-ups, samples two moments of the host. With
--trace 0 the result carries the end-to-end metrics; with --trace 1 one
worker runs untraced and then traced passes and the result carries the
per-layer metrics. The next-to-last line of
standard output holds the run metadata and every figure with its unit and
sample count; the last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

correct is false when any answer failed its check. Exit code 0 means a
result was printed; without ppm's sources next to perfbench/ the run
stops with exit code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SPANS_DIR = os.path.join(HERE, "out")
SETUP_SAMPLES = 17  # set-up runs per result, counting the timed worker's own
RUN_LIMIT_S = 170  # a run, set-up spawns included, ends within this or fails

sys.path.insert(0, HERE)
import inputs  # noqa: E402  (needs HERE on the path)
import layertrace  # noqa: E402


def spawn(job: dict, deadline: float) -> tuple:
    """Run one worker; return its report and the seconds from spawn to
    ready, as measured and scaled to the nominal host speed."""
    t0 = time.monotonic()
    timeout = deadline - t0
    proc = subprocess.Popen([sys.executable, "-I", WORKER], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(json.dumps(job), timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    rep = json.loads(out.strip().splitlines()[-1])
    wall = rep["ready"] - t0
    return rep, (wall, wall / rep["setup_slowdown"])


def git_commit() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=5)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def metric(value, unit, samples):
    return {"value": value, "unit": unit, "samples": samples}


def end_to_end(rep: dict, setups: list) -> dict:
    """The metrics of an untraced run; setups holds (wall, scaled) set-up
    seconds. The times are scaled to the nominal host speed (probe.py);
    the wall_ figures are as measured."""
    n = rep["attempted"]
    out = rep["outcomes"]
    wall = rep["wall"]
    return {
        "throughput_qps": metric(rep["throughput_qps"], "1/s", rep["passes"]),
        "latency_p50_ms": metric(rep["p50_ms"], "ms", n),
        "latency_p90_ms": metric(rep["p90_ms"], "ms", n),
        "failed_ratio": metric(rep["failed"] / n, "fraction", n),
        "inconclusive_ratio": metric(out["inconclusive"] / n, "fraction", n),
        "unfailed_ratio": metric(1 - rep["failed"] / n, "fraction", n),
        "conclusive_ratio": metric(1 - out["inconclusive"] / n, "fraction", n),
        "setup_s": metric(statistics.median(s for _, s in setups), "s", len(setups)),
        "peak_rss_mb": metric(rep["peak_rss_mb"], "MiB", 1),
        "wall_throughput_qps": metric(wall["throughput_qps"], "1/s", rep["passes"]),
        "wall_latency_p50_ms": metric(wall["p50_ms"], "ms", n),
        "wall_latency_p90_ms": metric(wall["p90_ms"], "ms", n),
        "wall_setup_s": metric(statistics.median(w for w, _ in setups), "s", len(setups)),
        "host_slowdown": metric(rep["slowdown"], "ratio", n),
    }


# gated in BENCHMARK.json; failed_ratio and inconclusive_ratio can be 0, and a
# gated metric must never be, so the gate holds their complements instead
GATED = ("throughput_qps", "latency_p50_ms", "latency_p90_ms", "setup_s", "peak_rss_mb",
         "unfailed_ratio", "conclusive_ratio")


def per_layer(rep: dict) -> dict:
    n = rep["traced_queries"]
    return {name: metric(value, layertrace.UNITS[name], n)
            for name, value in rep["layers"].items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ppm", "__init__.py")):
        print(f"run.py: no ppm sources under {ROOT}/src", file=sys.stderr)
        return 2

    queries = inputs.generate(args.workload, args.seed)
    job = {"queries": queries, "seconds": args.seconds}
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if args.trace:
            os.makedirs(SPANS_DIR, exist_ok=True)
            spans = os.path.join(SPANS_DIR, f"spans-{args.workload}-{args.seed}.csv.gz")
            rep, _ = spawn(dict(job, mode="trace", spans_path=spans), deadline)
            figures = per_layer(rep)
        else:
            def setups(count):
                return [spawn(dict(job, mode="setup"), deadline)[1] for _ in range(count)]
            before = setups(SETUP_SAMPLES // 2)
            rep, setup = spawn(dict(job, mode="run"), deadline)
            figures = end_to_end(rep, before + [setup] + setups(SETUP_SAMPLES // 2))
    except (RuntimeError, ValueError, KeyError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "traced": bool(args.trace), "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "commit": git_commit(),
            "queries_per_pass": len(queries), "outcomes": rep["outcomes"],
            "errors": rep["errors"], "metrics": figures}
    if args.trace:
        meta["self_shares"] = rep["self_shares"]
        meta["spans"] = rep["spans"]
    print(json.dumps({"perfbench": meta}))
    wanted = figures if args.trace else {k: figures[k] for k in GATED}
    result = {"correct": rep["outcomes"]["wrong"] == 0, "attempted": rep["attempted"],
              "failed": rep["failed"],
              "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                          for k, v in wanted.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
