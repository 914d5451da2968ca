"""PrimePar benchmark: cold search, fault replay and keep-alive plan serving.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload search-cold16 --seed 1 --seconds 30 --trace 0

Workloads: ``search-cold16``, ``faults-mixed8``, ``serve-zipf`` (see
``perfbench/README.md``).  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.  The
full run record (every op time, failures, spans, digest) is written under
``.perfbench_out/``.  Exit code 2 means the checkout cannot run the
benchmark; nothing is printed as a result then.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
import traceback
from typing import Dict, Tuple

import benchcore
import wl_faults
import wl_search
import wl_serve

#: A run stops starting ops this long after the process started, so it
#: always exits well inside three minutes.
HARD_DEADLINE = 150.0

#: End-to-end metrics: name -> unit.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "op_p50_s": "s",
    "ops_per_s": "1/s",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
    "plan_samples_per_s": "samples/s",
    "plan_peak_mem_gb": "GB",
}

#: Per-layer metrics: name -> (unit, source).  Sources: ``self:<span>``
#: median self time of a traced span, ``ms:<span>`` the same in ms,
#: ``count:<name>`` a digest-window count, or a special name.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "host.calib_s": ("s", "calib"),
    "trace.overhead_s": ("s", "overhead"),
    "op.self_s": ("s", "self:op"),
    "search.import_s": ("s", "self:search.import"),
    "search.candidates_s": ("s", "self:search.candidates"),
    "search.dp_merge_s": ("s", "self:search.dp_merge"),
    "search.sim_s": ("s", "self:search.sim"),
    "search.candidates_raw": ("count", "count:search.candidates_raw"),
    "search.candidates_kept": ("count", "count:search.candidates_kept"),
    "search.dp_states_expanded": ("count", "count:search.dp_states_expanded"),
    "search.explain_ulps": ("ulp", "count:search.explain_ulps"),
    "faults.nominal_s": ("s", "self:faults.nominal"),
    "faults.draw_s": ("s", "self:faults.draw"),
    "faults.scenario_s": ("s", "self:faults.scenario"),
    "faults.robust_p99_sim_s": ("s", "plan:faults.robust_p99_sim_s"),
    "faults.replays": ("count", "count:faults.replays"),
    "sim.kernels_executed": ("count", "count:sim.kernels_executed"),
    "sim.contention_flushes": ("count", "count:sim.contention_flushes"),
    "sim.rate_recomputes": ("count", "count:sim.rate_recomputes"),
    "sim.rate_reuses": ("count", "count:sim.rate_reuses"),
    "sim.queue_pushes": ("count", "count:sim.queue_pushes"),
    "sim.splice.spliced": ("count", "count:sim.splice.spliced"),
    "sim.splice.replayed": ("count", "count:sim.splice.replayed"),
    "sim.splice.forced_replay": ("count", "count:sim.splice.forced_replay"),
    "serve.op_p95_s": ("s", "p95"),
    "serve.memory_hit_ms": ("ms", "ms:serve.memory_hit"),
    "serve.disk_hit_ms": ("ms", "ms:serve.disk_hit"),
    "serve.miss_s": ("s", "self:serve.miss"),
    "serve.miss_simulate_s": ("s", "self:serve.miss_simulate"),
    "serve.simulate_s": ("s", "self:serve.simulate"),
    "serve.queue_wait_s": ("s", "layer:serve.queue_wait"),
    "serve.hit_ratio": ("ratio", "count:serve.hit_ratio"),
    "serve.searches": ("count", "count:serve.searches"),
    "serve.simulations": ("count", "count:serve.simulations"),
    "serve.coalesced": ("count", "count:serve.coalesced"),
    "serve.rejected": ("count", "count:serve.rejected"),
    "plan_store.lookups.memory": ("count", "count:plan_store.lookups.memory"),
    "plan_store.lookups.disk": ("count", "count:plan_store.lookups.disk"),
    "plan_store.lookups.miss": ("count", "count:plan_store.lookups.miss"),
}


def end_to_end(run: benchcore.Run) -> Dict[str, float]:
    ok = len(run.op_times)
    return {
        "setup_s": benchcore.median(run.setup_times),
        "op_p50_s": benchcore.median(run.op_times),
        "ops_per_s": ok / run.elapsed if run.elapsed else 0.0,
        "success_rate": 1.0 - run.failed_ops / max(run.attempted, 1),
        "peak_rss_mb": run.peak_rss_mb,
        "plan_samples_per_s": run.plan_values.get("plan_samples_per_s", 0.0),
        "plan_peak_mem_gb": run.plan_values.get("plan_peak_mem_gb", 0.0),
    }


def per_layer(run: benchcore.Run) -> Dict[str, float]:
    self_times = run.tracer.self_times()
    out: Dict[str, float] = {}
    for name, (_, source) in PER_LAYER.items():
        kind, _, key = source.partition(":")
        if kind == "calib":
            value = benchcore.median(run.calib)
        elif kind == "overhead":
            value = (benchcore.median(run.traced_op_times)
                     - benchcore.median(run.untraced_op_times))
        elif kind == "p95":
            value = (benchcore.nearest_rank(run.op_times, wl_serve.TAIL_Q)
                     if run.workload == "serve-zipf" and run.op_times else 0.0)
        elif kind == "self":
            value = benchcore.median(self_times.get(key, []))
        elif kind == "ms":
            value = 1e3 * benchcore.median(self_times.get(key, []))
        elif kind == "layer":
            value = benchcore.median(run.layer_times.get(key, []))
        elif kind == "plan":
            value = run.plan_values.get(key, 0.0)
        else:
            value = run.counts.get(key, 0.0)
        out[name] = float(value)
    return out


WORKLOAD_MODULES = {"search-cold16": wl_search, "faults-mixed8": wl_faults,
                    "serve-zipf": wl_serve}


def execute(run: benchcore.Run, seconds: float, started: float) -> None:
    workload = WORKLOAD_MODULES[run.workload].Workload(run)
    try:
        run.calib += benchcore.calibrate()
        workload.setup()
        workload.measure(seconds, started + HARD_DEADLINE)
        run.calib += benchcore.calibrate()
    finally:
        workload.close()


def summary_lines(run: benchcore.Run, metrics) -> list:
    lines = [
        f"workload {run.workload} seed {run.seed} trace {int(run.trace)}: "
        f"{run.attempted} ops in {run.elapsed:.2f} s, "
        f"{run.failed_ops} failed, digest {run.digest()}",
    ]
    for name, metric in metrics.items():
        lines.append(f"  {name:28s} {metric['value']:.6g} {metric['unit']}")
    if run.workload == "serve-zipf" and run.op_times:
        lines.append(
            f"  op p95 "
            f"{benchcore.nearest_rank(run.op_times, wl_serve.TAIL_Q):.6g} s "
            f"over {len(run.op_times)} ops ("
            f"{benchcore.samples_beyond(len(run.op_times), wl_serve.TAIL_Q)}"
            f" beyond)"
        )
    for op, reason in run.failures[:10]:
        lines.append(f"  FAILED op {op}: {reason}")
    return lines


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOAD_MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    run = benchcore.Run(args.workload, args.seed, bool(args.trace))
    # A terminated run still stops its children (``finally`` blocks run).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        benchcore.require_sources()
        execute(run, args.seconds, started)
    except benchcore.SetupError as exc:
        print(f"perfbench: cannot run {args.workload}: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1

    e2e = end_to_end(run)
    layers = per_layer(run) if run.trace else {}
    chosen = layers if run.trace else e2e
    units = ({n: u for n, (u, _) in PER_LAYER.items()} if run.trace
             else END_TO_END)
    metrics = {n: {"value": v, "unit": units[n]} for n, v in chosen.items()}
    path = benchcore.write_record(run, {**e2e, **layers})
    for line in summary_lines(run, metrics):
        print(line)
    print(f"  record {path.relative_to(benchcore.ROOT)}")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed_ops,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
