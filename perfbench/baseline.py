"""Record the benchmark baseline into ``perfbench/baseline.json``.

    python3 perfbench/baseline.py --seeds 1-10

For every workload it makes one end-to-end run of ``run_seconds`` per
seed, each in a fresh process like the benchmark's own command.  It
keeps the median, the quartiles and the spread (interquartile range
over median) of every end-to-end metric, and the per-layer numbers of
one traced run (first seed).  Re-record after any change to the
benchmark itself.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _seeds(text: str) -> List[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    return json.loads(out.stdout.strip().splitlines()[-1])


def _summary(values: List[float]) -> Dict[str, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10",
                        help="inclusive range, e.g. 1-10")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    seeds = _seeds(args.seeds)

    workloads = {}
    for name in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            res = _run(name, seed, seconds, 0)
            print(name, seed, res["correct"], res["attempted"],
                  {k: round(v["value"], 6) for k, v in
                   res["metrics"].items()}, flush=True)
            runs.append(res)
        traced = _run(name, seeds[0], seconds, 1)
        workloads[name] = {
            "correct": all(r["correct"] for r in runs + [traced]),
            "operations": [r["attempted"] for r in runs],
            "end_to_end": {
                m["name"]: dict(_summary([r["metrics"][m["name"]]["value"]
                                          for r in runs]),
                                unit=m["unit"])
                for m in spec["end_to_end"]},
            "per_layer": {k: v["value"]
                          for k, v in traced["metrics"].items()},
        }
        for metric, s in workloads[name]["end_to_end"].items():
            print(f"{name} {metric}: median {s['median']:.6g} "
                  f"spread {s['spread']:.4f}", flush=True)

    record = {
        "host": {"cpu": _cpu_model(), "cpus": os.cpu_count(),
                 "machine": platform.machine(),
                 "python": platform.python_version()},
        "commit": _commit(),
        "seeds": seeds,
        "run_seconds": seconds,
        "workloads": workloads,
    }
    with open(os.path.join(ROOT, "perfbench", "baseline.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
