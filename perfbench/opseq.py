"""Op sequences: each op is a pure function of ``(workload seed, op index)``.

Sequences are stratified — every block of consecutive ops holds each input
class in fixed proportion, in a seeded order — so two seeds differ in which
inputs an op gets and in what order, never in the mix itself.  That keeps
run-to-run medians steady across seeds.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

# -- search-cold16 ------------------------------------------------------

SEARCH_MODELS = ("opt-175b", "llama2-70b", "bloom-176b")
SEARCH_BATCHES = (16, 32)
SEARCH_DEVICES = 16
SEARCH_BEAM = 32
#: Default Eq. 7 memory weight; ops draw theirs in a band around it.
BASE_ALPHA = 2e-11


def search_op(seed: int, index: int) -> Dict[str, object]:
    """One cold search: a (model, batch) stratum member and its own alpha."""
    combos = [(m, b) for m in SEARCH_MODELS for b in SEARCH_BATCHES]
    block, slot = divmod(index, len(combos))
    rng = random.Random(f"search:{seed}:{block}")
    rng.shuffle(combos)
    alphas = [BASE_ALPHA * rng.uniform(0.9, 1.1) for _ in combos]
    model, batch = combos[slot]
    return {"model": model, "batch": batch, "alpha": alphas[slot],
            "devices": SEARCH_DEVICES, "beam": SEARCH_BEAM}


# -- faults-mixed8 ------------------------------------------------------

#: ``bench_robustness.py``'s mixed fault class.
FAULT_SPEC = (
    "straggler=0.3:1.6,degrade=0.3:0.6,flap=0.5:0.002:0.25,"
    "outage=0.1,ckpt=16,restart=30,replan=5"
)
FAULT_MODEL = "opt-175b"
FAULT_BATCH = 8
FAULT_DEVICES = 8
FAULT_GPUS_PER_NODE = 2
FAULT_LAYERS = 8
FAULT_SCENARIOS = 6


def faults_op(seed: int, index: int) -> Dict[str, int]:
    """One robustness evaluation: its scenario seed."""
    rng = random.Random(f"faults:{seed}:{index}")
    return {"fault_seed": rng.randrange(2**31)}


# -- serve-zipf ---------------------------------------------------------

SERVE_MODELS = ("opt-6.7b", "llama2-7b", "bloom-7b1")
#: Popular catalog in fixed popularity-rank order (rank 1 first).
CATALOG: Tuple[Tuple[str, int, int], ...] = tuple(
    (model, devices, batch)
    for devices in (8, 4)
    for batch in (8, 16)
    for model in SERVE_MODELS
)
ZIPF_S = 1.1
#: In-memory plan-store capacity, below the catalog size so the disk tier
#: serves part of the popular traffic.
LRU_SIZE = 6
#: One block of serving ops: Zipf catalog searches, one catalog simulate,
#: one never-seen search and one never-seen simulate.
SERVE_BLOCK = ("hit",) * 17 + ("sim", "fresh_search", "fresh_sim")
FRESH_DEVICES = 8
FRESH_BATCH = 8


def _zipf_rank(rng: random.Random) -> int:
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(CATALOG))]
    return rng.choices(range(len(CATALOG)), weights=weights)[0]


def serve_block(seed: int, block: int) -> List[Dict[str, object]]:
    """The ``len(SERVE_BLOCK)`` ops of one block, in seeded order."""
    rng = random.Random(f"serve:{seed}:{block}")
    kinds = list(SERVE_BLOCK)
    rng.shuffle(kinds)
    ops: List[Dict[str, object]] = []
    for kind in kinds:
        if kind in ("hit", "sim"):
            model, devices, batch = CATALOG[_zipf_rank(rng)]
            ops.append({"kind": kind, "model": model, "devices": devices,
                        "batch": batch, "alpha": BASE_ALPHA})
        else:
            # Never seen: the alpha grid step (1e-3) dwarfs the seeded
            # jitter (1e-4), so no two fresh ops of a run share a key.  The
            # model cycles with the block, not the seed, so every seed
            # searches the same mix of models.
            serial = 2 * block + (kind == "fresh_sim")
            alpha = BASE_ALPHA * (1.05 + 1e-3 * serial + 1e-4 * rng.random())
            ops.append({"kind": kind,
                        "model": SERVE_MODELS[serial % len(SERVE_MODELS)],
                        "devices": FRESH_DEVICES, "batch": FRESH_BATCH,
                        "alpha": alpha})
    return ops

