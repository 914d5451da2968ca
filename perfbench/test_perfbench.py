"""Tests of the benchmark itself: op sequences and output checks.

Run from the checkout root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import benchcore  # noqa: E402
import checks  # noqa: E402
import opseq  # noqa: E402
import wl_serve  # noqa: E402


@pytest.fixture(autouse=True, scope="module")
def _no_disk_cache(tmp_path_factory):
    """Searches and simulations here never read or write a plan cache."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PRIMEPAR_CACHE", "off")
        patch.setenv("PRIMEPAR_CACHE_DIR", str(tmp_path_factory.mktemp("c")))
        yield


# -- op sequences -------------------------------------------------------


def test_same_seed_same_search_ops():
    first = [opseq.search_op(7, i) for i in range(18)]
    assert first == [opseq.search_op(7, i) for i in range(18)]
    assert first != [opseq.search_op(8, i) for i in range(18)]


def test_search_ops_cover_every_combo_per_block():
    for block in range(3):
        ops = [opseq.search_op(3, 6 * block + i) for i in range(6)]
        combos = {(op["model"], op["batch"]) for op in ops}
        assert len(combos) == 6
        assert len({op["alpha"] for op in ops}) == 6


def test_same_seed_same_fault_seeds():
    assert [opseq.faults_op(1, i) for i in range(10)] == [
        opseq.faults_op(1, i) for i in range(10)
    ]
    assert opseq.faults_op(1, 0) != opseq.faults_op(2, 0)


def test_serve_blocks_are_seeded_and_stationary():
    assert opseq.serve_block(5, 3) == opseq.serve_block(5, 3)
    assert opseq.serve_block(5, 3) != opseq.serve_block(6, 3)
    for block in range(4):
        kinds = Counter(op["kind"] for op in opseq.serve_block(5, block))
        assert kinds == Counter(opseq.SERVE_BLOCK)
    ops = [op for b in range(20) for op in opseq.serve_block(5, b)]
    fresh = [op["alpha"] for op in ops if op["kind"].startswith("fresh")]
    assert len(set(fresh)) == len(fresh)
    catalog_alpha = {op["alpha"] for op in ops if op["kind"] in ("hit", "sim")}
    assert catalog_alpha == {opseq.BASE_ALPHA}
    assert len(opseq.CATALOG) > opseq.LRU_SIZE


# -- statistics and spans -----------------------------------------------


def test_p95_of_minimum_run_has_ten_samples_beyond():
    assert benchcore.samples_beyond(wl_serve.MIN_OPS, wl_serve.TAIL_Q) == 10
    assert benchcore.nearest_rank(list(range(1, 201)), 0.95) == 190


def test_self_time_subtracts_children():
    tracer = benchcore.Tracer()
    root = tracer.add("op", 0.0, 10.0, 0)
    tracer.add("a", 1.0, 4.0, 0, parent=root)
    tracer.add("b", 5.0, 6.0, 0, parent=root)
    times = tracer.self_times()
    assert times["op"] == [6.0]
    assert times["a"] == [3.0]


def test_metric_deltas_from_exposition():
    before = wl_serve.parse_metrics(
        "# TYPE primepar_serve_searches counter\n"
        "primepar_serve_searches 2\n"
        'primepar_plan_store_lookups{tier="memory"} 5\n'
    )
    after = wl_serve.parse_metrics(
        "primepar_serve_searches 3\n"
        'primepar_plan_store_lookups{tier="memory"} 9\n'
        'primepar_serve_rejected{reason="queue_full"} 1\n'
        "primepar_serve_queue_wait_seconds_sum 0.5\n"
    )
    counts, wait = wl_serve.metric_deltas(before, after)
    assert counts["serve.searches"] == 1
    assert counts["plan_store.lookups.memory"] == 4
    assert counts["serve.rejected"] == 1
    assert wait == 0.5


# -- checks flag tampered outputs ---------------------------------------


@pytest.fixture(scope="module")
def small_search():
    from repro import (FabricProfiler, PrimeParOptimizer, build_block_graph,
                       v100_cluster)
    from repro.core.explain import explain_plan
    from repro.graph.models import MODELS_BY_KEY

    profiler = FabricProfiler(v100_cluster(4, gpus_per_node=2))
    graph = build_block_graph(MODELS_BY_KEY["opt-6.7b"].block_shape(batch=8))
    result = PrimeParOptimizer(
        profiler, alpha=opseq.BASE_ALPHA, use_disk_cache=False
    ).optimize(graph)
    total = explain_plan(profiler, graph, result.plan,
                         alpha=opseq.BASE_ALPHA)["total_cost"]
    names = [node.name for node in graph.nodes]
    return profiler, graph, result, total, names


def test_search_check_accepts_real_plan(small_search):
    _, _, result, total, names = small_search
    assert checks.check_search(names, result.plan, result.cost, total) == []


def test_search_check_flags_changed_cost(small_search):
    _, _, result, total, names = small_search
    tampered = result.cost * (1 + 1e-9)
    assert checks.check_search(names, result.plan, tampered, total)
    nudged = result.cost
    for _ in range(checks.EXPLAIN_ULPS + 1):
        nudged = math.nextafter(nudged, math.inf)
    assert checks.check_search(names, result.plan, nudged, result.cost)


def test_search_check_flags_missing_node(small_search):
    _, _, result, total, names = small_search
    plan = dict(result.plan)
    plan.pop(names[0])
    assert checks.check_search(names, plan, result.cost, total)


@pytest.fixture(scope="module")
def small_robustness(small_search):
    from repro.sim.faults import FaultModel, evaluate_robustness

    profiler, graph, result, _, _ = small_search
    return evaluate_robustness(
        profiler, graph, result.plan, 8, 2,
        FaultModel.from_spec(opseq.FAULT_SPEC), scenarios=4, seed=3, jobs=1,
    )


def test_faults_check_accepts_real_report(small_robustness):
    assert checks.check_report(small_robustness, 4) == []


def test_faults_check_flags_broken_attribution(small_robustness):
    outcomes = list(small_robustness.outcomes)
    broken = dataclasses.replace(
        outcomes[0], link_delay=outcomes[0].link_delay + 1e-6
    )
    assert checks.check_outcomes([broken] + outcomes[1:])
    assert checks.check_report(small_robustness, 5)


def test_faults_check_flags_different_piecewise_report(small_robustness):
    whole = small_robustness.to_json()
    assert checks.check_same_report(whole, json.loads(json.dumps(whole))) == []
    changed = dict(whole, p99=whole["p99"] * 2)
    assert checks.check_same_report(changed, whole)


def test_serve_check_flags_wrong_key_status_and_payload():
    from repro.api import SearchRequest

    key = SearchRequest(model="opt-6.7b", devices=4, batch=8).cache_key()
    good = {"key": key, "source": "memory", "cost": 1.5, "plan": {"a": "x"}}
    ref = dict(good, source="computed")
    ok = checks.check_response(200, good, key, "key", ("memory", "disk"),
                               "source", ref)
    assert ok == []
    other = SearchRequest(model="opt-6.7b", devices=8, batch=8).cache_key()
    assert checks.check_response(200, dict(good, key=other), key, "key",
                                 ("memory", "disk"), "source", ref)
    assert checks.check_response(503, good, key, "key", ("memory",), "source")
    assert checks.check_response(200, dict(good, cost=1.6), key, "key",
                                 ("memory", "disk"), "source", ref)
    assert checks.check_response(200, good, key, "key", ("computed",),
                                 "source")


# -- refusing to run without the program --------------------------------


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-zipf",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
