#!/usr/bin/env python3
"""Run the benchmark over several seeds and print each metric's median and spread.

    python3 perfbench/summary.py --runs 10
    python3 perfbench/summary.py --runs 5 --workloads dense_text --trace 1

For every workload and seed it calls perfbench/run.py as the benchmark's
command line does and prints, per metric: median, quartiles, the quartile
spread as a share of the median, and the sample count.  ``failed_frac`` is
failed over attempted operations, summed over the runs.  A metric whose
spread exceeds a third of its bound in BENCHMARK.json is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import environment

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(workload: str, seed: int, args) -> tuple[dict, float]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale]
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=HERE.parent, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1]), time.perf_counter() - started


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives them."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10, help="seeds per workload")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", default=",".join(w["name"] for w in BENCH["workloads"]))
    p.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full")
    p.add_argument("--json", help="also write the summary and every run's result to this file")
    args = p.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in BENCH["end_to_end"]}
    settings = {k: v for k, v in vars(args).items() if k != "json"}
    record = {"environment": environment(), "args": settings, "workloads": {}}
    for workload in args.workloads.split(","):
        results, elapsed = [], []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, seconds = run_once(workload, seed, args)
            results.append(result)
            elapsed.append(seconds)
            print(f"{workload} seed {seed}: {seconds:.1f} s, correct={result['correct']}", file=sys.stderr)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        summary = {}
        print(f"\n{workload}: {len(results)} runs, {attempted} operations, "
              f"failed_frac {failed / attempted:.3f}, correct {all(r['correct'] for r in results)}, "
              f"median run {statistics.median(elapsed):.1f} s")
        print(f"  {'metric':44s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s} {'bound':>6s} {'n':>3s}")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, rel = spread(values)
            summary[name] = {"unit": first["unit"], "median": med, "q1": q1, "q3": q3, "iqr_over_median": rel, "n": len(values)}
            bound = bounds.get(name)
            flag = "" if bound is None or name == "setup_s" or rel < bound / 3 else "  <-- above bound/3"
            print(f"  {name:44s} {first['unit']:6s} {med:12.4f} {q1:12.4f} {q3:12.4f} {rel:8.4f} "
                  f"{'' if bound is None else bound:>6} {len(values):3d}{flag}")
        record["workloads"][workload] = {
            "failed_frac": failed / attempted,
            "summary": summary,
            "run_seconds": elapsed,
            "results": results,
        }
    if args.json:
        Path(args.json).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
