"""One cold ``primepar search`` path in a fresh interpreter.

Usage::

    python3 perfbench/search_child.py '<op json>' <trace 0|1>
    python3 perfbench/search_child.py --probe

The op json carries ``model``, ``batch``, ``alpha``, ``devices``,
``beam`` (``null`` for an exact search) and optionally ``gpus_per_node``.
The path is ``FabricProfiler(v100_cluster(devices))`` →
``build_block_graph`` → ``PrimeParOptimizer(beam=...).optimize`` →
``TrainingSimulator.run_model``, serial, with the disk cache off.  The
result (plan, cost, plan metrics, counts and, when traced, one
``(name, start, end)`` span per public call on the ``perf_counter`` clock)
is printed as one JSON line.  ``--probe`` only imports the search path.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from repro import (  # noqa: E402
    FabricProfiler,
    PrimeParOptimizer,
    TrainingSimulator,
    build_block_graph,
    v100_cluster,
)
from repro.api import plan_to_json  # noqa: E402
from repro.graph.models import MODELS_BY_KEY  # noqa: E402

IMPORTED = time.perf_counter()


def main(argv) -> int:
    if argv[1:] == ["--probe"]:
        return 0
    op = json.loads(argv[1])
    traced = argv[2] == "1"
    spans = [("search.import", STARTED, IMPORTED)]
    clock = time.perf_counter

    model = MODELS_BY_KEY[op["model"]]
    profiler = FabricProfiler(
        v100_cluster(op["devices"], gpus_per_node=op.get("gpus_per_node", 4))
    )
    graph = build_block_graph(model.block_shape(batch=op["batch"]))
    optimizer = PrimeParOptimizer(
        profiler, alpha=op["alpha"], beam=op["beam"], jobs=1
    )
    t0 = clock()
    optimizer.candidates_for(graph)
    t1 = clock()
    # Candidates are cached on the optimizer now: this is the DP and merge.
    result = optimizer.optimize(graph, n_layers=model.n_layers)
    t2 = clock()
    report = TrainingSimulator(profiler).run_model(
        graph, result.plan, global_batch=op["batch"],
        n_layers=model.n_layers,
    )
    t3 = clock()
    if traced:
        spans += [("search.candidates", t0, t1), ("search.dp_merge", t1, t2),
                  ("search.sim", t2, t3)]
    counters = result.telemetry.get("metrics", {}).get("counters", [])
    n_bits = max((spec.n_bits for spec in result.plan.values()), default=0)
    print(json.dumps({
        "plan": plan_to_json(result.plan),
        "n_bits": n_bits,
        "cost": result.cost,
        "throughput": report.throughput,
        "latency": report.latency,
        "peak_memory_bytes": report.peak_memory_bytes,
        "candidates_raw": sum(r for r, _ in result.candidate_sizes.values()),
        "candidates_kept": sum(k for _, k in result.candidate_sizes.values()),
        "dp_states_expanded": sum(
            c["value"] for c in counters if c["name"] == "dp.states_expanded"
        ),
        "spans": spans if traced else [],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
