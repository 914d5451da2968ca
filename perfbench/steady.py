"""Steadiness check: many seeds per workload, spreads against the bounds.

Usage (from the checkout root)::

    python3 perfbench/steady.py --workload serve-zipf --seeds 1-10
    python3 perfbench/steady.py --workload search-cold16 --seeds 1-5 --repeat 2

Runs ``perfbench/run.py`` once per seed (untraced), then re-runs the first
``--repeat`` seeds.  For every end-to-end metric in ``BENCHMARK.json`` it
prints the median and the quartile spread ``(q3 - q1) / median`` with
``statistics.quantiles(values, n=4)``, next to the metric's bound.  It
fails (exit 1) when a run is incorrect, a spread other than ``setup_s``'s
exceeds its bound, or a repeated seed's digest or deterministic metrics
differ from the first run of that seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
#: Metrics that are pure functions of the seed.
DETERMINISTIC = ("plan_samples_per_s", "plan_peak_mem_gb", "success_rate")


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += list(range(int(low), int(high or low) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> Tuple[dict, str]:
    """One untraced run; returns (result line, digest)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"seed {seed}: exit {proc.returncode}\n{proc.stderr}"
        )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = ROOT / ".perfbench_out" / f"{workload}-seed{seed}-plain.json"
    return result, json.loads(record.read_text())["digest"]


def spread(values: List[float]) -> Tuple[float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / q2 if q2 else float("inf")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--repeat", type=int, default=1,
                        help="re-run this many seeds to compare digests")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    ok = True
    values: Dict[str, List[float]] = {name: [] for name in bounds}
    first: Dict[int, Tuple[dict, str]] = {}
    for seed in seeds:
        result, digest = run_once(args.workload, seed, seconds)
        first[seed] = (result, digest)
        row = {n: result["metrics"][n]["value"] for n in bounds}
        for name, value in row.items():
            values[name].append(value)
        print(f"seed {seed:3d} digest {digest} correct {result['correct']} "
              + " ".join(f"{n}={v:.5g}" for n, v in row.items()), flush=True)
        ok &= bool(result["correct"])
    for seed in seeds[: args.repeat]:
        result, digest = run_once(args.workload, seed, seconds)
        earlier = first[seed][0]["metrics"]
        same = digest == first[seed][1] and all(
            result["metrics"][n]["value"] == earlier[n]["value"]
            for n in DETERMINISTIC
        )
        print(f"repeat seed {seed}: digest {digest} "
              f"{'matches' if same else 'DIFFERS'}")
        ok &= same and bool(result["correct"])
    print(f"{'metric':20s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for name, bound in bounds.items():
        mid, rel = spread(values[name])
        flag = ("ok" if rel < bound / 3
                else "WIDE" if rel <= bound else "FAIL")
        if name != "setup_s" and rel > bound:
            ok = False
        print(f"{name:20s} {mid:12.6g} {rel:8.4f} {bound:6.3f} {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
