"""Federation benchmark: one workload, one seed, one result line.

Usage (from the repository root)::

    python3 fedbench/run.py --workload long-history --seed 1 --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every
per-layer metric (see ``fedbench/record.json`` for names, units, the
workloads and which layer should move which end-to-end metric).  A
human-readable summary goes first; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is 0 only for a correct run.  The program under test is the
``repro`` package in ``src/`` next to this directory; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOAD_NAMES = ("tenants-ingest", "long-history")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the repro package is missing under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import harness

    run = harness.per_layer if args.trace else harness.end_to_end
    result = run(args.workload, args.seed, args.seconds)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    for name, value in result.metrics.items():
        print(f"  {name} = {value:.6g} {result.units[name]}")
    for name, value in result.notes.items():
        unit = harness.REPORTED_ONLY.get(name, "")
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"  {name} = {shown} {unit}".rstrip())
    for name, ok in result.checks.items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    print(f"  output_digest = {result.digest}")
    print(json.dumps(result.line()))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
