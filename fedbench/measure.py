"""Repeat the benchmark over seeds and summarise each metric.

Usage (from the repository root)::

    python3 fedbench/measure.py --workloads tenants-ingest long-history \\
        --seeds 1 2 3 4 5 --seconds 10 [--trace 1] [--out runs.json]

Runs ``fedbench/run.py`` once per (workload, seed) in a fresh process,
and prints, per workload and metric, the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
distance between the quartiles as a share of the median.  ``--out``
also writes every run's result line and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload, seed, seconds, trace) -> dict:
    completed = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=HERE.parent,
        capture_output=True,
        text=True,
        check=False,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed} failed ({completed.returncode}):\n"
            f"{completed.stdout}\n{completed.stderr}"
        )
    return json.loads(lines[-1])


def summarise(results: list[dict]) -> dict:
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        summary[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    report = {"nproc": os.cpu_count(), "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads:
        results = [
            run_once(workload, seed, args.seconds, args.trace) for seed in args.seeds
        ]
        summary = summarise(results)
        report["workloads"][workload] = {
            "seeds": args.seeds,
            "summary": summary,
            "runs": results,
        }
        print(f"# {workload} ({len(results)} seeds)")
        for name, row in summary.items():
            print(
                f"  {name:48s} median {row['median']:.6g} {row['unit']}  "
                f"q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  spread {row['spread']:.3f}"
            )
        sys.stdout.flush()
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
