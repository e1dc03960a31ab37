"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py [--seeds 1-10] [--traced] [--json FILE]

Runs perfbench/run.py once per (workload, seed), one at a time, for every
workload in BENCHMARK.json and for its run_seconds, and prints
for every end-to-end metric the median and the spread: the distance between
the first and third quartiles (statistics.quantiles, n=4) over the median.
--traced adds one traced run per workload, on the first seed.  --json
writes the machine, every run's values, the summaries and the traced
per-layer metrics to FILE.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(CONFIG["run_seconds"]),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode or not result["correct"]:
        sys.exit(f"{workload} seed {seed} failed:\n{proc.stdout}{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def kernel_backend() -> str:
    sys.path.insert(0, str(ROOT / "src"))
    import divcert
    return divcert.KERNEL_BACKEND


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--json")
    args = parser.parse_args()

    report = {
        "machine": {"python": platform.python_version(), "nproc": os.cpu_count(),
                    "kernel_backend": kernel_backend(),
                    "platform": platform.platform()},
        "run_seconds": CONFIG["run_seconds"],
        "seeds": args.seeds,
        "end_to_end": {},
        "per_layer": {},
    }
    for workload in (w["name"] for w in CONFIG["workloads"]):
        runs = [{"seed": seed, **bench(workload, seed, 0)}
                for seed in seeds(args.seeds)]
        summaries = {}
        for name in runs[0]:
            if name != "seed":
                summaries[name] = summary([r[name] for r in runs])
                print(f"{workload:<12} {name:<14} median "
                      f"{summaries[name]['median']:>12.6g}  spread "
                      f"{summaries[name]['spread']:.4f}", flush=True)
        report["end_to_end"][workload] = {"summary": summaries, "runs": runs}
        if args.traced:
            report["per_layer"][workload] = bench(
                workload, seeds(args.seeds)[0], 1)
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
