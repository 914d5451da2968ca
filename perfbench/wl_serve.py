"""``serve-zipf``: ``primepar serve`` under a stationary keep-alive mix.

The daemon runs as its own process on a fresh plan cache.  One client
thread drives it in a closed loop over one persistent HTTP/1.1 connection,
one request in flight at a time — so the daemon's state after every op
(LRU contents, store tiers, counters) is a pure function of the seed.  A
second keep-alive connection carries only the ``/metrics`` scrapes and the
final read-back, outside the timed ops.  Responses are timed from the first
byte sent to the last byte read, exactly as a keep-alive client sees them.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from typing import Dict, List, Mapping, Optional, Tuple

import benchcore
import checks
import opseq

#: Ops whose outputs and daemon counter deltas form the digest.
WINDOW = 120
#: Fewest ops in a run: the p95 then has at least 10 samples beyond it.
MIN_OPS = 200
TAIL_Q = 0.95
BOOT_REPS = 3
BOOT_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0
REQUEST_TIMEOUT = 120.0

#: ``/metrics`` series reported as per-layer counts.
COUNTED = {
    "primepar_serve_searches": "serve.searches",
    "primepar_serve_simulations": "serve.simulations",
    "primepar_serve_coalesced": "serve.coalesced",
    'primepar_plan_store_lookups{tier="memory"}': "plan_store.lookups.memory",
    'primepar_plan_store_lookups{tier="disk"}': "plan_store.lookups.disk",
    'primepar_plan_store_lookups{tier="miss"}': "plan_store.lookups.miss",
}
QUEUE_WAIT_SUM = "primepar_serve_queue_wait_seconds_sum"
#: Latency class per op kind and response source.
CLASS_OF = {
    ("hit", "memory"): "serve.memory_hit",
    ("hit", "disk"): "serve.disk_hit",
    ("sim", None): "serve.simulate",
    ("fresh_search", None): "serve.miss",
    ("fresh_sim", None): "serve.miss_simulate",
}


def parse_metrics(text: str) -> Dict[str, float]:
    """Prometheus text exposition → ``{series: value}``."""
    out: Dict[str, float] = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            series, _, value = line.rpartition(" ")
            out[series] = float(value)
    return out


def metric_deltas(before: Mapping[str, float], after: Mapping[str, float]):
    counts = {name: 0.0 for name in COUNTED.values()}
    counts["serve.rejected"] = 0.0
    for series, value in after.items():
        moved = value - before.get(series, 0.0)
        if series in COUNTED:
            counts[COUNTED[series]] += moved
        elif series.startswith("primepar_serve_rejected"):
            counts["serve.rejected"] += moved
    wait = after.get(QUEUE_WAIT_SUM, 0.0) - before.get(QUEUE_WAIT_SUM, 0.0)
    return counts, wait


def request(conn: http.client.HTTPConnection, method: str, path: str,
            body: Optional[Mapping] = None) -> Tuple[int, object, float]:
    """One keep-alive request; returns (status, decoded body, seconds)."""
    data = json.dumps(body).encode() if body is not None else None
    headers = {"Content-Type": "application/json"} if data else {}
    started = time.perf_counter()
    conn.request(method, path, body=data, headers=headers)
    response = conn.getresponse()
    raw = response.read()
    seconds = time.perf_counter() - started
    if response.getheader("Content-Type", "").startswith("application/json"):
        return response.status, json.loads(raw), seconds
    return response.status, raw.decode(), seconds


class Daemon:
    """One ``primepar serve --port 0`` process on the run's plan cache."""

    def __init__(self, cache_dir, log) -> None:
        port_file = cache_dir.parent / f"{cache_dir.name}.port"
        port_file.unlink(missing_ok=True)
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--port-file", str(port_file),
             "--lru-size", str(opseq.LRU_SIZE), "--jobs", "1"],
            stdout=subprocess.DEVNULL, stderr=log, cwd=str(benchcore.ROOT),
            env=benchcore.child_env(PRIMEPAR_CACHE="on",
                                    PRIMEPAR_CACHE_DIR=str(cache_dir)),
        )
        try:
            self.port = self._wait_ready(port_file, started)
        except BaseException:
            self.stop()
            raise
        #: Spawn to first healthy ``/healthz``.
        self.boot_seconds = time.perf_counter() - started

    def _wait_ready(self, port_file, started: float) -> int:
        while time.perf_counter() - started < BOOT_TIMEOUT:
            if self.proc.poll() is not None:
                raise benchcore.SetupError(
                    f"daemon exited during boot ({self.proc.returncode})"
                )
            text = port_file.read_text() if port_file.exists() else ""
            if text.endswith("\n"):
                port = int(text)
                conn = http.client.HTTPConnection("127.0.0.1", port,
                                                  timeout=10)
                try:
                    status, _, _ = request(conn, "GET", "/healthz")
                finally:
                    conn.close()
                if status == 200:
                    return port
            time.sleep(0.005)
        raise benchcore.SetupError("daemon did not become healthy")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT
        )

    def stop(self) -> Optional[int]:
        """SIGTERM (graceful drain), then wait; kill only if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                return None
        return self.proc.returncode


def search_request(op: Mapping):
    from repro.api import SearchRequest

    return SearchRequest(model=op["model"], devices=op["devices"],
                         batch=op["batch"], alpha=op["alpha"])


class Workload:
    def __init__(self, run: benchcore.Run) -> None:
        self.run = run
        self.cache_dir = benchcore.OUT_DIR / f"serve-cache-{os.getpid()}"
        self.daemon: Optional[Daemon] = None
        self.log = None
        #: Catalog key -> the payload its first (computed) response carried.
        self.reference: Dict[str, dict] = {}
        self.sim_reference: Dict[str, dict] = {}
        #: Never-seen keys a run computed, checked again at the end.
        self.fresh: List[Tuple[int, str, Optional[dict]]] = []

    # -- lifecycle ------------------------------------------------------

    def _boot(self) -> Daemon:
        daemon = Daemon(self.cache_dir, self.log)
        self.run.setup_times.append(daemon.boot_seconds)
        return daemon

    def _stop(self, daemon: Daemon) -> None:
        code = daemon.stop()
        if code != 0:
            self.run.fail(-1, f"daemon did not drain cleanly (exit {code})")

    def setup(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.cache_dir.mkdir(parents=True)
        self.log = open(benchcore.record_path(self.run, "daemon.log"), "w")
        # Boot 1 fills the disk tier with the popular catalog (plans and
        # event-engine reports); boots 2 and 3 start on that warm disk with
        # a cold memory tier, and boot 3 serves the measured loop.
        self.daemon = self._boot()
        conn = self.daemon.connect()
        try:
            for model, devices, batch in opseq.CATALOG:
                op = {"model": model, "devices": devices, "batch": batch,
                      "alpha": opseq.BASE_ALPHA}
                self._warm(conn, op)
        finally:
            conn.close()
        for _ in range(BOOT_REPS - 1):
            self._stop(self.daemon)
            self.daemon = self._boot()

    def _warm(self, conn, op) -> None:
        from repro.api import SimulateRequest

        req = search_request(op)
        key = req.cache_key()
        status, payload, _ = request(conn, "POST", "/v1/search", req.to_json())
        problems = checks.check_response(status, payload, key, "key",
                                         ("computed",), "source")
        body = SimulateRequest(search=req, engine="event").to_json()
        status, sim, _ = request(conn, "POST", "/v1/simulate", body)
        problems += checks.check_response(status, sim, key, "plan_key",
                                          ("memory", "disk"), "plan_source")
        if problems:
            raise benchcore.SetupError(f"catalog warm-up: {problems}")
        self.reference[key] = payload
        self.sim_reference[key] = sim

    def close(self) -> None:
        if self.daemon is not None:
            self._stop(self.daemon)
            self.daemon = None
        if self.log is not None:
            self.log.close()
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        (self.cache_dir.parent / f"{self.cache_dir.name}.port").unlink(
            missing_ok=True
        )

    # -- ops ------------------------------------------------------------

    def _op(self, conn, index: int, op: Mapping):
        """Send one op; returns (seconds, latency class, problems, body)."""
        from repro.api import SimulateRequest

        req = search_request(op)
        key = req.cache_key()
        kind = op["kind"]
        if kind in ("hit", "fresh_search"):
            status, payload, seconds = request(
                conn, "POST", "/v1/search", req.to_json()
            )
            payload = payload if isinstance(payload, dict) else {}
            sources = ("memory", "disk") if kind == "hit" else ("computed",)
            problems = checks.check_response(
                status, payload, key, "key", sources, "source",
                self.reference.get(key),
            )
            source = payload.get("source") if kind == "hit" else None
            if kind == "fresh_search" and not problems:
                self.fresh.append((index, key, payload))
        else:
            body = SimulateRequest(search=req, engine="event").to_json()
            status, payload, seconds = request(
                conn, "POST", "/v1/simulate", body
            )
            payload = payload if isinstance(payload, dict) else {}
            sources = ("memory", "disk") if kind == "sim" else ("computed",)
            problems = checks.check_response(
                status, payload, key, "plan_key", sources, "plan_source",
                self.sim_reference.get(key),
            )
            source = None
            if kind == "fresh_sim" and not problems:
                self.fresh.append((index, key, None))
        return seconds, CLASS_OF.get((kind, source)), problems, payload

    def measure(self, seconds: float, deadline: float) -> None:
        run = self.run
        conns = [self.daemon.connect(), self.daemon.connect()]
        try:
            self._measure(conns, seconds, deadline)
            # Every never-seen key must read back identically from the
            # tier that now holds it.
            for index, key, payload in self.fresh:
                status, stored, _ = request(
                    conns[1], "GET", f"/v1/plans/{key}"
                )
                problems = checks.check_response(
                    status, stored, key, "key", ("memory", "disk"), "source",
                    payload,
                )
                for problem in problems:
                    run.fail(index, f"read-back: {problem}")
        finally:
            for conn in conns:
                conn.close()
        self._stop(self.daemon)
        self.daemon = None
        run.peak_rss_mb = benchcore.children_rss_mb()

    def _measure(self, conns, seconds: float, deadline: float) -> None:
        run = self.run

        def scrape() -> Dict[str, float]:
            return parse_metrics(request(conns[1], "GET", "/metrics")[1])

        start_metrics = scrape()
        window: List[object] = []
        fresh_sims: List[Tuple[float, float]] = []
        started = time.perf_counter()
        index = 0
        block: List[Mapping] = []
        while (
            index < MIN_OPS or time.perf_counter() - started < seconds
        ) and time.perf_counter() < deadline:
            if index == WINDOW:
                counts, _ = metric_deltas(start_metrics, scrape())
                run.counts = counts
            if not block:
                block = opseq.serve_block(
                    run.seed, index // len(opseq.SERVE_BLOCK)
                )
            op = block.pop(0)
            traced = run.trace and index % 2 == 1
            benchcore.between_ops(run, sample=not block)
            op_start = time.perf_counter()
            try:
                wall, label, problems, payload = self._op(conns[0], index, op)
            except (OSError, http.client.HTTPException, ValueError) as exc:
                run.attempted += 1
                run.fail(index, f"{type(exc).__name__}: {exc}")
                conns[0].close()
                index += 1
                continue
            run.attempted += 1
            for problem in problems:
                run.fail(index, problem)
            if not problems:
                run.op_times.append(wall)
                (run.traced_op_times if traced
                 else run.untraced_op_times).append(wall)
                if traced:
                    run.tracer.add(label, op_start, op_start + wall, index)
            if index < WINDOW:
                entry = {"op": dict(op), "source": payload.get("source"),
                         "plan_source": payload.get("plan_source")}
                if op["kind"] in ("sim", "fresh_sim"):
                    entry["latency"] = payload.get("latency")
                if op["kind"] == "fresh_sim" and not problems:
                    fresh_sims.append((payload["throughput"],
                                       payload["peak_memory_bytes"]))
                if op["kind"] not in ("sim", "fresh_sim"):
                    entry["cost"] = payload.get("cost")
                window.append(entry)
            index += 1
        run.elapsed = time.perf_counter() - started
        _, queue_wait = metric_deltas(start_metrics, scrape())
        run.layer_times["serve.queue_wait"] = [queue_wait]
        run.window = window
        if index <= WINDOW or not fresh_sims:
            run.fail(index, f"digest window incomplete ({index}/{WINDOW})")
            return
        # Plans the daemon itself searched and simulated in the window.
        run.plan_values = {
            "plan_samples_per_s": benchcore.geomean(
                [t for t, _ in fresh_sims]
            ),
            "plan_peak_mem_gb": max(m for _, m in fresh_sims) / 1e9,
        }
        lookups = sum(run.counts[f"plan_store.lookups.{t}"]
                      for t in ("memory", "disk", "miss"))
        run.counts["serve.hit_ratio"] = (
            run.counts["plan_store.lookups.memory"]
            + run.counts["plan_store.lookups.disk"]
        ) / lookups
        if len(run.op_times) < MIN_OPS:
            run.fail(index, f"only {len(run.op_times)} ops for the p95")
