"""Benchmark entry point; run it from the root of a checkout.

    python3 perfbench/run.py --workload gups-dv-256 --seed 1 \\
        --seconds 20 --trace 0

Prints a human-readable report and, as the last line of standard
output, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exits 2 without a result when the program's sources are
not next to the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from perfbench.bench import run
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                 bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
