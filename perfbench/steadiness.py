#!/usr/bin/env python3
"""Steadiness report: run every workload ten times, one seed per run.

    python3 perfbench/steadiness.py [--first-seed 1] [--out FILE]

Each run takes `run_seconds` from BENCHMARK.json.

For every end-to-end metric it records the median of the per-run values,
the quartiles from `statistics.quantiles(values, n=4)` and the spread, the
distance between the quartiles as a share of the median; likewise for the
unscaled time medians (`raw_*`, no bound) from each run's record.  The
bounds in BENCHMARK.json are judged against these spreads.  Runs are made
one after the other, never in parallel, so they do not compete for the two
cores.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=HERE / "out" / "steadiness.json")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {
        "run_seconds": spec["run_seconds"],
        "runs": RUNS,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "loadavg_before": os.getloadavg(),
        "workloads": {},
    }
    for name in (w["name"] for w in spec["workloads"]):
        per_metric: dict[str, list[float]] = {}
        started = time.perf_counter()
        for seed in range(args.first_seed, args.first_seed + RUNS):
            cmd = [*spec["command"], "--workload", name, "--seed", str(seed)]
            cmd += ["--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{name} seed {seed}: exit code {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                raise SystemExit(f"{name} seed {seed}: incorrect output")
            for metric, value in result["metrics"].items():
                per_metric.setdefault(metric, []).append(value["value"])
            # The unscaled medians, kept to show what the scaling removes.
            record = json.loads((HERE / "out" / f"{name}-seed{seed}-trace0.json").read_text())
            for metric, value in record["raw_medians"].items():
                per_metric.setdefault(f"raw_{metric}", []).append(value)
        rows = {metric: summarize(values) for metric, values in per_metric.items()}
        for metric, row in rows.items():
            row["bound"] = bounds.get(metric)
            print(
                f"{name:14s} {metric:14s} median {row['median']:10.4f} "
                f"spread {row['spread']:.4f} bound {row['bound']}",
                file=sys.stderr,
            )
        report["workloads"][name] = {
            "seconds_per_run": (time.perf_counter() - started) / RUNS,
            "metrics": rows,
        }
    report["loadavg_after"] = os.getloadavg()
    args.out.parent.mkdir(exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
