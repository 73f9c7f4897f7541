"""Run one workload over several seeds and report each metric's spread.

    python3 bench/spread.py --workload lq-dense --seeds 1-10 [--json out.json]

For every metric it prints the median of the per-seed values and the
distance between their first and third quartiles as a share of the median,
the spread BENCHMARK.json's bounds are checked against.  Each seed is one
untraced run of BENCHMARK.json's command for its run_seconds; runs are made
one after another, never concurrently.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--json", help="also write the medians, spreads and values to this file")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: exit {out.returncode} correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    summary = {}
    for name, xs in values.items():
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0], None, xs[0])
        spread = (q3 - q1) / abs(med) if med else 0.0
        bound = bounds[name]
        flag = f"  bound {bound}  {'ok' if spread <= bound / 3 else 'WIDE'}"
        print(f"{name:40s} median {med:12.6g}  spread {spread:7.4f}{flag}  [{' '.join(f'{x:.5g}' for x in xs)}]")
        summary[name] = {"median": med, "spread": spread, "values": xs}
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"workload": args.workload, "seeds": args.seeds, "seconds": seconds, "metrics": summary}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
