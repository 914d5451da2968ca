"""Shared machinery: statistics, spans, host calibration, run records.

Nothing here imports :mod:`repro`; the workload modules do.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

#: Checkout root (the directory holding ``perfbench/`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything a run writes lands here (ignored by git).
OUT_DIR = ROOT / ".perfbench_out"

#: Iterations of the pure-Python calibration loop.
_CALIB_ITERS = 300_000


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (missing sources, failed boot)."""


def require_sources() -> None:
    """Put ``src`` first on ``sys.path`` and refuse to run without it.

    The benchmark must time the checkout's own program, never an installed
    copy, so a missing ``src/repro`` is a set-up error.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    # Plans and reports are never reused from a disk cache in timed work;
    # the serving workload points its daemon at a fresh cache of its own.
    os.environ["PRIMEPAR_CACHE"] = "off"
    os.environ["PRIMEPAR_CACHE_DIR"] = str(OUT_DIR / "cache-off")


def child_env(**extra: str) -> Dict[str, str]:
    """Environment for a child interpreter running the checkout's program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update(extra)
    return env


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (the estimator ``repro.obs`` uses)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q`` quantile of ``n``."""
    return n - max(1, math.ceil(q * n))


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def calibrate(reps: int = 3, iters: int = _CALIB_ITERS) -> List[float]:
    """Seconds per run of a fixed pure-Python loop, ``reps`` times.

    Timed at the start and the end of every run: a change in these numbers
    is the machine, not the program.
    """
    out = []
    for _ in range(reps):
        started = time.perf_counter()
        acc = 0
        for i in range(iters):
            acc = (acc + i * i) % 1_000_003
        out.append(time.perf_counter() - started)
    return out


def between_ops(run: "Run", sample: bool = True) -> None:
    """Settle the collector so one op's garbage is not charged to the next;
    with ``sample``, also record the host's speed next to the op."""
    gc.collect()
    if sample:
        run.op_calib.append(calibrate(1, _CALIB_ITERS // 3)[0] * 3)


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_rss_mb() -> float:
    """Peak RSS of the largest waited-for child process."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def digest(payload: object) -> str:
    """Stable hash of deterministic outputs (canonical JSON, exact floats)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------


class Tracer:
    """In-memory span recorder: (name, start, end, parent, op id).

    Spans are kept in memory and written out once, at the end of the run.
    A layer's self time is its duration minus the time its children cover.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []

    def add(
        self,
        name: str,
        start: float,
        end: float,
        op: int,
        parent: Optional[int] = None,
    ) -> int:
        self.spans.append(
            {"id": len(self.spans), "name": name, "start": start,
             "end": end, "parent": parent, "op": op}
        )
        return len(self.spans) - 1

    def self_times(self) -> Dict[str, List[float]]:
        """Per span name, the self time of every span with that name."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        out: Dict[str, List[float]] = {}
        for span, child_time in zip(self.spans, covered):
            duration = span["end"] - span["start"]
            out.setdefault(span["name"], []).append(duration - child_time)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans))


# ----------------------------------------------------------------------
# run result
# ----------------------------------------------------------------------


class Run:
    """What one workload run measured, checked and recorded."""

    def __init__(self, workload: str, seed: int, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.setup_times: List[float] = []
        self.op_times: List[float] = []
        #: ``(op index, reason)``; op -1 is the run itself (e.g. a daemon).
        self.failures: List[Tuple[int, str]] = []
        self.attempted = 0
        self.elapsed = 0.0
        self.peak_rss_mb = 0.0
        self.calib: List[float] = []
        #: Host-speed samples taken between ops (calibration seconds).
        self.op_calib: List[float] = []
        #: Deterministic outputs of the digest window, hashed into ``digest``.
        self.window: List[object] = []
        #: Deterministic end-to-end and per-layer values.
        self.plan_values: Dict[str, float] = {}
        self.counts: Dict[str, float] = {}
        #: Per-layer timings not taken from spans, name -> samples.
        self.layer_times: Dict[str, List[float]] = {}
        #: Op times of the traced and untraced halves of a traced run.
        self.traced_op_times: List[float] = []
        self.untraced_op_times: List[float] = []
        self.tracer = Tracer()

    def fail(self, op: int, reason: str) -> None:
        self.failures.append((op, reason))

    @property
    def failed_ops(self) -> int:
        return len({op for op, _ in self.failures})

    def digest(self) -> str:
        return digest({"window": self.window, "plan": self.plan_values,
                       "counts": self.counts})


def record_path(run: Run, suffix: str) -> Path:
    mode = "traced" if run.trace else "plain"
    return OUT_DIR / f"{run.workload}-seed{run.seed}-{mode}.{suffix}"


def write_record(run: Run, metrics: Mapping[str, float]) -> Path:
    """The full run record (all op times, failures, digest) as JSON."""
    path = record_path(run, "json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "workload": run.workload,
        "seed": run.seed,
        "trace": run.trace,
        "digest": run.digest(),
        "attempted": run.attempted,
        "failures": run.failures,
        "setup_times": run.setup_times,
        "op_times": run.op_times,
        "elapsed": run.elapsed,
        "calib": run.calib,
        "op_calib": run.op_calib,
        "plan_values": run.plan_values,
        "counts": run.counts,
        "metrics": metrics,
    }, indent=1, sort_keys=True))
    if run.trace:
        run.tracer.write(record_path(run, "spans.json"))
    return path
