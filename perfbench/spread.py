"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --seeds 101-110 --seconds 20 > spread.jsonl
    python3 perfbench/spread.py --seeds 101-105 --workloads suites,scan

Runs ``run.py --trace 0`` once per seed on each workload, the workloads
interleaved within a seed, and prints one line per run (its detail and result
lines). The last line gives, per workload and metric, the values, their
median and their spread: the interquartile range over the median, with
quartiles from ``statistics.quantiles(values, n=4)``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import jobs

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def spread(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "iqr_frac": (q[2] - q[0]) / med, "values": values}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", required=True, help="first-last, or a comma-separated list")
    parser.add_argument("--workloads", default=",".join(jobs.WORKLOADS))
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)

    workloads = args.workloads.split(",")
    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    ok = True
    for seed in seed_list(args.seeds):
        for workload in workloads:
            cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=RUN.parent.parent)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            lines = proc.stdout.splitlines()
            detail, result = json.loads(lines[-2]), json.loads(lines[-1])
            ok = ok and result["correct"]
            for name, m in result["metrics"].items():
                values[workload].setdefault(name, []).append(m["value"])
            print(json.dumps({"detail": detail, "result": result}), flush=True)
    print(json.dumps({"correct": ok, "spread": {
        w: {name: spread(v) for name, v in metrics.items()} for w, metrics in values.items()
    }}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
