"""Run one benchmark workload and print its metrics.

    python3 benchmark/run.py --workload ens2d-wide --seed 1 --seconds 30 --trace 0

Run from the repository root.  Each repetition is a fresh `worker.py`
process; repetitions continue until `--seconds` would be exceeded (at least
MIN_REPS of them), and each metric is the median over repetitions.  With
`--trace 0` the metrics are the end-to-end ones of BENCHMARK.json, with
`--trace 1` the per-layer ones, taken from traced repetitions that alternate
with untraced ones so the tracing overhead is measured in the same run.

Standard output: one JSON line with the details (environment record, config
hashes, final-state checksums, sample counts and tails, failed checks, span
table), then, as the last line, the result object
`{"correct", "attempted", "failed", "metrics"}`.  The exit code is 0 only
when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

MIN_REPS = 3            # untraced repetitions; set-up is timed in each of them
MIN_PAIRS = 2           # (untraced, traced) pairs in a traced run
WORKER_TIMEOUT_S = 120
LAST_START_S = 150      # never start a repetition that would end after this
ROOFLINE_NOTE = (
    "no roofline fraction: an honest bandwidth measurement needs arrays of at least "
    "four times the 300 MiB shared L3, about 1.2 GB; bytes are computed, not measured"
)


class BenchmarkError(RuntimeError):
    """A repetition failed to produce a result."""


def run_worker(workload: str, seed: int, trace: bool, smoke: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
           str(int(trace)), str(int(smoke))]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"worker exceeded {WORKER_TIMEOUT_S} s: {cmd}") from None
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchmarkError(f"worker exited {done.returncode}:\n{done.stderr[-4000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def repeat(fn, seconds: float, min_count: int) -> list:
    """Call `fn` at least `min_count` times, then while another call fits in `seconds`."""
    start = time.perf_counter()
    results, longest = [], 0.0
    while True:
        t = time.perf_counter()
        results.append(fn())
        longest = max(longest, time.perf_counter() - t)
        elapsed = time.perf_counter() - start
        if elapsed + longest > LAST_START_S:
            if len(results) < min_count:
                raise BenchmarkError(f"only {len(results)} repetitions fit in {LAST_START_S} s")
            return results
        if len(results) >= min_count and elapsed + longest > seconds:
            return results


def summary(values: list[float], better: str) -> dict:
    """Median, and the worst-side percentile with at least ten samples beyond it."""
    out = {"median": statistics.median(values), "n": len(values)}
    cuts = statistics.quantiles(values, n=100) if len(values) > 1 else []
    for p in (99, 95, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            out[f"p{p}" if better == "lower" else f"p{100 - p}"] = (
                cuts[p - 1] if better == "lower" else cuts[99 - p])
            break
    return out


def end_to_end(rep: dict) -> dict:
    return {
        "setup_s": rep["setup_s"],
        "wall_s": rep["wall_s"],
        "member_steps_per_s": rep["member_steps"] / rep["integration_s"],
        "peak_rss_mb": rep["peak_rss_mb"],
        "ops_ok_frac": 1.0 - rep["failed"] / rep["attempted"],
    }


def per_layer(rep: dict) -> dict:
    return {**rep["layers"], **{k: v for k, v in rep.items() if k.startswith("proc.")}}


def measure(args, spec: dict) -> tuple[dict, dict]:
    """Run the repetitions; returns (details, result)."""
    run = lambda trace: run_worker(args.workload, args.seed, trace, args.smoke)  # noqa: E731
    if args.trace:
        pairs = repeat(lambda: (run(False), run(True)), args.seconds, MIN_PAIRS)
        plain, traced = [p[0] for p in pairs], [p[1] for p in pairs]
        samples = [per_layer(r) for r in traced]
        overhead = (statistics.median(r["wall_s"] for r in traced)
                    / statistics.median(r["wall_s"] for r in plain) - 1.0)
        for s in samples:
            s["trace.overhead_frac"] = overhead
        reps, metrics = plain + traced, spec["per_layer"]
    else:
        reps = repeat(lambda: run(False), args.seconds, MIN_REPS)
        samples, metrics = [end_to_end(r) for r in reps], spec["end_to_end"]

    values = {}
    for m in metrics:
        name = m["name"]
        values[name] = {"value": statistics.median(s[name] for s in samples), "unit": m["unit"]}
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "repetitions": len(reps),
        "environment": reps[0]["environment"],
        "configs": reps[0]["configs"],
        "final_state_sha256": sorted({r["sha256"] for r in reps}),
        "ops_failed_frac": failed / attempted,
        "failed_checks": [c for r in reps for c in r["failed_checks"]],
        "samples": {m["name"]: summary([s[m["name"]] for s in samples], m["better"])
                    for m in metrics},
        "info": reps[0]["info"],
    }
    if args.trace:
        details["spans"] = traced[0]["spans"]
        details["kernel"] = {"apply_by_rows": traced[0]["kernel"], "note": ROOFLINE_NOTE}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": values}
    return details, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="2-D cutoff 2 and a few members and steps (for the tests)")
    parser.add_argument("--emit-configs", action="store_true",
                        help="print the stage configs of this workload and seed, then exit")
    args = parser.parse_args(argv)

    texts = workloads.stage_configs(args.workload, args.seed, args.smoke)
    if args.emit_configs:
        print(json.dumps({stage: json.loads(t) for stage, t in texts.items()}, indent=2))
        return 0
    if not (ROOT / "src" / "stochflow" / "__init__.py").is_file():
        print(f"no stochflow sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        details, result = measure(args, spec)
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
