"""Run one benchmark workload of looptrans and print its result.

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The workload runs in a fresh,
single-threaded Python process (``perfbench/workloads.py``); two more fresh
processes only set up, so that ``setup_s`` is the median of three set-ups.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
full result, with every round, is written to ``perfbench/out/``, and a
traced run also writes its spans there.  The exit code is 0 when every
operation passed the independent checker, 1 when one did not, and 2 when the
run could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 2
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "census_s": "s",
    "check_pairs_per_s": "pairs/s",
    "check_p50_ms": "ms",
    "check_p99_ms": "ms",
    "verdict_pairs_per_s": "pairs/s",
    "group_pairs_per_s": "pairs/s",
    "group_p50_ms": "ms",
    "group_p90_ms": "ms",
    "derived_pairs_per_s": "pairs/s",
    "character_pairs_per_s": "pairs/s",
}


class RunError(Exception):
    pass


def worker(argv: list[str], timeout: float) -> dict:
    """Run workloads.py in a fresh single-threaded process; parse its result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"), *argv]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=max(timeout, 1.0)
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"workload process exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"workload process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "looptrans", "__init__.py")):
        print(f"no looptrans sources under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2

    start = time.monotonic()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = [
            worker(common + ["--seconds", "0", "--setup-only"], DEADLINE_S)["setup_s"]
            for _ in range(SETUP_PROBES)
        ]
        os.makedirs(OUT, exist_ok=True)
        stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
        extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            extra += ["--spans", stem + ".spans.jsonl"]
        result = worker(common + extra, DEADLINE_S - (time.monotonic() - start))
    except (RunError, ValueError, KeyError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 2

    setups.append(result["setup_s"])
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in result["per_layer"].items()}
    else:
        values = dict(result["metrics"])
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mb"] = result["peak_rss_mb"]
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    with open(stem + ".json", "w") as f:
        json.dump(result | {"setups_s": setups, "line": line}, f, indent=1)
    for failure in result["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
