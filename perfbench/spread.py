"""Run a workload once per seed and report how far its end-to-end metrics spread.

    python3 perfbench/spread.py --workload decide --seeds 1-10 [--seconds 30]

Each run is ``perfbench/run.py --trace 0``.  For every metric the script
prints the median of the runs and the spread: the distance between the first
and third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median.  The values go to ``perfbench/out/spread-<workload>-<first seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, required=True)
    ap.add_argument("--seconds", default="30")
    args = ap.parse_args()
    values: dict[str, list[float]] = {}
    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"]
        proc = subprocess.run(cmd, cwd=os.path.dirname(HERE), stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, "attempted": line["attempted"], "failed": line["failed"]})
        for name, metric in line["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    summary = {}
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        median = statistics.median(vals)
        summary[name] = {"median": median, "spread": (q3 - q1) / median}
        print(f"{name:24s} median {median:12.4f}  spread {summary[name]['spread']:.3f}")
    print("failed/attempted:", sorted({(r["failed"], r["attempted"]) for r in runs}))
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    out = os.path.join(HERE, "out", f"spread-{args.workload}-{args.seeds[0]}.json")
    with open(out, "w") as f:
        json.dump({"workload": args.workload, "runs": runs, "values": values, "summary": summary}, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
