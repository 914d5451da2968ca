"""``search-cold16``: Table 2's cold search, one fresh interpreter per op.

A fresh process per op keeps process-global memo tables (the ring-schedule
cache in ``repro.core.cost.communication``) from making later ops cheaper
than the first, so every op is the cold search a ``primepar search`` user
pays for.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Mapping, Tuple

import benchcore
import checks
import opseq

CHILD = Path(__file__).resolve().parent / "search_child.py"
#: Ops whose outputs form the digest: one full stratum of (model, batch).
WINDOW = 6
SETUP_REPS = 3
#: Longest a single child may take before it counts as failed.
CHILD_TIMEOUT = 60.0


def run_child(args: List[str]) -> Tuple[float, int, str, str]:
    """Start a child interpreter and wait for it; returns its wall time."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=benchcore.child_env(), cwd=str(benchcore.ROOT),
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
    except BaseException:
        # Interrupted: never leave the child running.
        proc.kill()
        proc.wait()
        raise
    return time.perf_counter() - started, proc.returncode, out, err


class SearchChecker:
    """Re-prices a child's plan with ``explain_plan`` in this process."""

    def __init__(self) -> None:
        self._inputs: Dict[Tuple, Tuple[object, object]] = {}

    def __call__(self, op: Mapping, result: Dict) -> List[str]:
        """Problems with ``result``; records its explain ulp distance."""
        from repro import FabricProfiler, build_block_graph, v100_cluster
        from repro.api import plan_from_json
        from repro.core.explain import explain_plan
        from repro.graph.models import MODELS_BY_KEY

        gpus_per_node = op.get("gpus_per_node", 4)
        key = (op["model"], op["batch"], op["devices"], gpus_per_node)
        if key not in self._inputs:
            self._inputs[key] = (
                FabricProfiler(
                    v100_cluster(op["devices"], gpus_per_node=gpus_per_node)
                ),
                build_block_graph(
                    MODELS_BY_KEY[op["model"]].block_shape(batch=op["batch"])
                ),
            )
        profiler, graph = self._inputs[key]
        plan = plan_from_json(result["plan"], result["n_bits"])
        names = [node.name for node in graph.nodes]
        if set(plan) != set(names):
            return checks.check_search(names, plan, result["cost"], 0.0)
        total = explain_plan(profiler, graph, plan, alpha=op["alpha"])[
            "total_cost"
        ]
        result["explain_ulps"] = checks.ulp_distance(total, result["cost"])
        return checks.check_search(names, plan, result["cost"], total)


def window_record(op: Mapping, result: Mapping) -> Dict[str, object]:
    return {
        "op": dict(op),
        "plan": benchcore.digest(result["plan"]),
        "cost": result["cost"],
        "throughput": result["throughput"],
        "peak_memory_bytes": result["peak_memory_bytes"],
        "candidates_raw": result["candidates_raw"],
        "candidates_kept": result["candidates_kept"],
        "dp_states_expanded": result["dp_states_expanded"],
        "explain_ulps": result.get("explain_ulps", 0.0),
    }


class Workload:
    def __init__(self, run: benchcore.Run) -> None:
        self.run = run

    def setup(self) -> None:
        for _ in range(SETUP_REPS):
            seconds, code, _, err = run_child(["--probe"])
            if code != 0:
                raise benchcore.SetupError(f"search child cannot start: {err}")
            self.run.setup_times.append(seconds)

    def close(self) -> None:
        pass

    def measure(self, seconds: float, deadline: float) -> None:
        run = self.run
        check = SearchChecker()
        window: List[Dict[str, object]] = []
        started = time.perf_counter()
        index = 0
        while (index < WINDOW or time.perf_counter() - started < seconds) and (
            time.perf_counter() < deadline
        ):
            op = opseq.search_op(run.seed, index)
            traced = run.trace and index % 2 == 1
            benchcore.between_ops(run)
            op_start = time.perf_counter()
            wall, code, out, err = run_child(
                [json.dumps(op), "1" if traced else "0"]
            )
            run.attempted += 1
            if code != 0:
                run.fail(index, f"child exit {code}: {err.strip()[-300:]}")
                index += 1
                continue
            result = json.loads(out.strip().splitlines()[-1])
            problems = check(op, result)
            for problem in problems:
                run.fail(index, problem)
            if not problems:
                run.op_times.append(wall)
                (run.traced_op_times if traced
                 else run.untraced_op_times).append(wall)
            if traced:
                root = run.tracer.add("op", op_start, op_start + wall, index)
                for name, start, end in result["spans"]:
                    run.tracer.add(name, start, end, index, parent=root)
            if index < WINDOW:
                window.append(window_record(op, result))
            index += 1
        run.elapsed = time.perf_counter() - started
        run.window = window
        if len(window) < WINDOW:
            run.fail(
                index, f"digest window incomplete ({len(window)}/{WINDOW})"
            )
            return
        run.plan_values = {
            "plan_samples_per_s": benchcore.geomean(
                [w["throughput"] for w in window]
            ),
            "plan_peak_mem_gb": max(
                w["peak_memory_bytes"] for w in window
            ) / 1e9,
        }
        run.counts = {
            f"search.{name}": sum(w[name] for w in window)
            for name in ("candidates_raw", "candidates_kept",
                         "dp_states_expanded")
        }
        run.counts["search.explain_ulps"] = max(
            w["explain_ulps"] for w in window
        )
        run.peak_rss_mb = benchcore.children_rss_mb()
