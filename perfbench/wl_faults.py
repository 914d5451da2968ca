"""``faults-mixed8``: Monte-Carlo robustness replay of one searched plan.

Set-up searches the plan (OPT-175B, batch 8, 8 devices on 4 nodes, so NIC
pools exist to degrade and flap) in fresh interpreters; each op is then
``evaluate_robustness`` under the mixed fault class in this process, so the
event engine and ``repro.sim.faults`` do the work and the search none.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List

import benchcore
import checks
import opseq
import wl_search

#: Ops whose outcomes form the digest and ``faults.robust_p99_sim_s``.
WINDOW = 12
SETUP_REPS = 3
SIM_COUNTERS = ("kernels_executed", "contention_flushes", "rate_recomputes",
                "rate_reuses", "queue_pushes")
SPLICE_OUTCOMES = ("spliced", "replayed", "forced_replay")


def _setup_op() -> Dict[str, object]:
    return {"model": opseq.FAULT_MODEL, "batch": opseq.FAULT_BATCH,
            "alpha": opseq.BASE_ALPHA, "devices": opseq.FAULT_DEVICES,
            "gpus_per_node": opseq.FAULT_GPUS_PER_NODE, "beam": None}


def counter_totals(snapshot) -> Dict[str, float]:
    """The engine counters this workload reports, from a registry snapshot."""
    out = {f"sim.{name}": 0.0 for name in SIM_COUNTERS}
    out.update({f"sim.splice.{o}": 0.0 for o in SPLICE_OUTCOMES})
    for entry in snapshot["counters"]:
        name = entry["name"]
        if name == "sim.splice":
            out[f"sim.splice.{entry['labels']['outcome']}"] += entry["value"]
        elif name.startswith("sim.") and name[4:] in SIM_COUNTERS:
            out[name] += entry["value"]
    return out


def replays(outcome) -> int:
    """Event-engine replays ``simulate_scenario`` ran for one outcome."""
    compute = outcome.stragglers > 0
    link = outcome.degraded_links > 0 or outcome.nic_flaps > 0
    return int(compute) + int(link)


class Workload:
    def __init__(self, run: benchcore.Run) -> None:
        self.run = run

    def close(self) -> None:
        pass

    def setup(self) -> None:
        op = _setup_op()
        plans = []
        for _ in range(SETUP_REPS):
            seconds, code, out, err = wl_search.run_child(
                [json.dumps(op), "0"]
            )
            if code != 0:
                raise benchcore.SetupError(f"setup search failed: {err}")
            self.run.setup_times.append(seconds)
            plans.append(json.loads(out.strip().splitlines()[-1]))
        if any(p["plan"] != plans[0]["plan"] for p in plans):
            raise benchcore.SetupError("set-up searches disagree on the plan")
        problems = wl_search.SearchChecker()(op, plans[0])
        if problems:
            raise benchcore.SetupError(
                f"set-up plan fails its check: {problems}"
            )

        from repro import (EventDrivenSimulator, FabricProfiler,
                           build_block_graph, v100_cluster)
        from repro.api import plan_from_json
        from repro.graph.models import MODELS_BY_KEY
        from repro.sim import faults

        self.faults = faults
        self.simulator = EventDrivenSimulator
        self.profiler = FabricProfiler(v100_cluster(
            opseq.FAULT_DEVICES, gpus_per_node=opseq.FAULT_GPUS_PER_NODE
        ))
        model = MODELS_BY_KEY[opseq.FAULT_MODEL]
        self.graph = build_block_graph(
            model.block_shape(batch=opseq.FAULT_BATCH)
        )
        self.plan = plan_from_json(plans[0]["plan"], plans[0]["n_bits"])
        self.fault_model = faults.FaultModel.from_spec(opseq.FAULT_SPEC)
        nominal = self._nominal()
        self.run.plan_values = {
            "plan_samples_per_s": nominal.throughput,
            "plan_peak_mem_gb": nominal.peak_memory_bytes / 1e9,
        }
        self.plan_digest = benchcore.digest(plans[0]["plan"])

    def _nominal(self):
        return self.simulator(self.profiler, use_disk_cache=False).run_model(
            self.graph, self.plan, opseq.FAULT_BATCH, opseq.FAULT_LAYERS
        )

    def evaluate(self, fault_seed: int):
        return self.faults.evaluate_robustness(
            self.profiler, self.graph, self.plan, opseq.FAULT_BATCH,
            opseq.FAULT_LAYERS, self.fault_model,
            scenarios=opseq.FAULT_SCENARIOS, seed=fault_seed, jobs=1,
        )

    def piecewise(self, fault_seed: int, index: int):
        """``evaluate_robustness`` call by call, with a span around each."""
        faults, tracer, clock = self.faults, self.run.tracer, time.perf_counter
        root = tracer.add("op", clock(), 0.0, index)
        t0 = clock()
        nominal = self._nominal()
        t1 = clock()
        tracer.add("faults.nominal", t0, t1, index, parent=root)
        drawn = self.fault_model.scenarios(
            self.profiler.topology, opseq.FAULT_SCENARIOS, fault_seed,
            nominal.latency,
        )
        t2 = clock()
        tracer.add("faults.draw", t1, t2, index, parent=root)
        outcomes = []
        for scenario in drawn:
            if scenario.is_nominal:
                outcomes.append(faults.ScenarioOutcome(
                    index=scenario.index, latency=nominal.latency,
                    nominal_latency=nominal.latency, compute_delay=0.0,
                    link_delay=0.0, recovery_delay=0.0,
                ))
                continue
            t3 = clock()
            outcomes.append(faults.simulate_scenario(
                self.profiler, self.graph, self.plan, opseq.FAULT_BATCH,
                opseq.FAULT_LAYERS, scenario, self.fault_model.recovery,
                nominal.latency,
            ))
            tracer.add("faults.scenario", t3, clock(), index, parent=root)
        t4 = clock()
        report = faults.build_report(
            outcomes, nominal.latency, self.fault_model, fault_seed
        )
        end = clock()
        tracer.add("faults.report", t4, end, index, parent=root)
        tracer.spans[root]["end"] = end
        return report

    def measure(self, seconds: float, deadline: float) -> None:
        from repro.obs.metrics import delta_snapshots, get_registry

        run, registry = self.run, get_registry()
        counts = counter_totals({"counters": []})
        n_replays = 0
        window: List[object] = [self.plan_digest]
        latencies: List[float] = []
        started = time.perf_counter()
        index = 0
        while (index < WINDOW or time.perf_counter() - started < seconds) and (
            time.perf_counter() < deadline
        ):
            fault_seed = opseq.faults_op(run.seed, index)["fault_seed"]
            traced = run.trace and index % 2 == 1
            benchcore.between_ops(run)
            before = registry.snapshot()
            op_start = time.perf_counter()
            try:
                if traced:
                    report = self.piecewise(fault_seed, index)
                else:
                    report = self.evaluate(fault_seed)
            except Exception as exc:  # an op failure is counted, not fatal
                run.attempted += 1
                run.fail(index, f"{type(exc).__name__}: {exc}")
                index += 1
                continue
            wall = time.perf_counter() - op_start
            delta = counter_totals(
                delta_snapshots(before, registry.snapshot())
            )
            run.attempted += 1
            problems = checks.check_report(report, opseq.FAULT_SCENARIOS)
            if traced:
                problems += checks.check_same_report(
                    report.to_json(), self.evaluate(fault_seed).to_json()
                )
            for problem in problems:
                run.fail(index, problem)
            if not problems:
                run.op_times.append(wall)
                (run.traced_op_times if traced
                 else run.untraced_op_times).append(wall)
            if index < WINDOW:
                window.append(report.to_json()["outcomes"])
                latencies += [o.latency for o in report.outcomes]
                n_replays += sum(replays(o) for o in report.outcomes)
                for name, value in delta.items():
                    counts[name] += value
            index += 1
        run.elapsed = time.perf_counter() - started
        run.window = window
        if len(window) < WINDOW + 1:
            run.fail(index, f"digest window incomplete ({len(window) - 1}/"
                            f"{WINDOW})")
            return
        run.counts = {"faults.replays": n_replays, **counts}
        run.plan_values["faults.robust_p99_sim_s"] = benchcore.nearest_rank(
            latencies, 0.99
        )
        run.peak_rss_mb = benchcore.self_rss_mb()
