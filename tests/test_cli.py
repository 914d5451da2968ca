"""Command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_search_defaults(self):
        args = build_parser().parse_args(["search"])
        assert args.model == "opt-175b"
        assert args.devices == 16
        assert not args.no_temporal

    def test_verify_args(self):
        args = build_parser().parse_args(
            ["verify", "--spec", "P2x2", "--bits", "2"]
        )
        assert args.spec == "P2x2"
        assert args.bits == 2

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["search", "--model", "gpt-5"])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.engine == "event"
        assert args.plan == "primepar"
        assert args.trace == ""

    def test_simulate_rejects_unknown_engine(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--engine", "psychic"])


class TestCommands:
    def test_verify_pass(self, capsys):
        assert main(["verify", "--spec", "P2x2", "--bits", "2"]) == 0
        out = capsys.readouterr().out
        assert "PASSED" in out
        assert "all-reduce invocations: 0" in out

    def test_verify_megatron_spec(self, capsys):
        assert main(["verify", "--spec", "B-N", "--bits", "2"]) == 0
        out = capsys.readouterr().out
        assert "PASSED" in out

    def test_search_small(self, capsys):
        code = main(
            ["search", "--model", "opt-6.7b", "--devices", "4", "--batch", "8"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "partition sequence" in out
        assert "samples/s" in out

    def test_search_no_temporal(self, capsys):
        code = main(
            [
                "search", "--model", "opt-6.7b", "--devices", "4",
                "--batch", "8", "--no-temporal",
            ]
        )
        assert code == 0
        assert "P2x2" not in capsys.readouterr().out

    def test_compare_small(self, capsys):
        code = main(
            ["compare", "--model", "opt-6.7b", "--devices", "4", "--batch", "8"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "megatron" in out and "primepar" in out

    def test_simulate_event_with_trace(self, capsys, tmp_path):
        trace_path = tmp_path / "out.json"
        code = main(
            [
                "simulate", "--model", "opt-6.7b", "--devices", "4",
                "--batch", "8", "--layers", "2", "--trace", str(trace_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "event engine" in out
        assert "iteration latency" in out
        doc = json.loads(trace_path.read_text())
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert events and all(e["dur"] > 0 for e in events)

    def test_simulate_analytic_megatron(self, capsys):
        code = main(
            [
                "simulate", "--model", "opt-6.7b", "--devices", "4",
                "--batch", "8", "--layers", "1", "--engine", "analytic",
                "--plan", "megatron",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "analytic engine" in out

    def test_simulate_profile_writes_pstats(self, capsys, tmp_path):
        import pstats

        profile_path = tmp_path / "sim.pstats"
        code = main(
            [
                "simulate", "--model", "opt-6.7b", "--devices", "4",
                "--batch", "8", "--layers", "2", "--plan", "megatron",
                "--profile", str(profile_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"cProfile stats written to {profile_path}" in out
        stats = pstats.Stats(str(profile_path))
        assert stats.total_calls > 0

    def test_simulate_metrics_out_has_engine_counters(
        self, capsys, tmp_path
    ):
        """Splice, report-cache and event-queue counters reach the dump."""
        metrics_path = tmp_path / "metrics.json"
        code = main(
            [
                "simulate", "--model", "opt-6.7b", "--devices", "4",
                "--batch", "8", "--layers", "2", "--plan", "megatron",
                "--metrics-out", str(metrics_path),
            ]
        )
        assert code == 0
        capsys.readouterr()
        doc = json.loads(metrics_path.read_text())
        names = {entry["name"] for entry in doc["counters"]}
        assert "sim.splice" in names
        assert "sim.queue_pushes" in names
        assert "sim.contention_flushes" in names
        assert "sim.report_cache" in names


#: The small setting every request-path CLI test runs at.
SMALL = ["--model", "opt-6.7b", "--devices", "2", "--batch", "8"]


class TestRequestCommands:
    """``explain``, ``faults`` and ``simulate --faults`` end to end."""

    def test_explain_json_matches_service_payload(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro.api import ExplainRequest
        from repro.serve import PlanService, PlanStore

        monkeypatch.setenv("PRIMEPAR_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["explain", *SMALL, "--json", "--no-links"]) == 0
        doc = json.loads(capsys.readouterr().out)
        request = ExplainRequest.from_json(
            {"model": "opt-6.7b", "devices": 2, "batch": 8, "links": False}
        )
        payload = PlanService(store=PlanStore(max_entries=4)).explain(request)
        for served_only in ("plan_key", "plan_source", "plan_cost", "source"):
            payload.pop(served_only)
        assert doc == payload

    def test_explain_json_writes_metrics(self, capsys, tmp_path):
        metrics_path = tmp_path / "metrics.json"
        code = main(
            [
                "explain", *SMALL, "--json", "--no-links",
                "--metrics-out", str(metrics_path),
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert "counters" in json.loads(metrics_path.read_text())

    def test_faults_json_matches_robust_search(self, capsys):
        from repro import FabricProfiler, build_block_graph, v100_cluster
        from repro.graph.models import MODELS_BY_KEY
        from repro.sim.faults import FaultModel, robust_search

        spec = "straggler=0.5:1.8,outage=0.5"
        code = main(
            [
                "faults", *SMALL, "--layers", "2", "--scenarios", "4",
                "--faults", spec, "--json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        model = MODELS_BY_KEY["opt-6.7b"]
        result = robust_search(
            FabricProfiler(v100_cluster(2)),
            build_block_graph(model.block_shape(batch=8)),
            global_batch=8,
            n_layers=model.n_layers,
            fault_model=FaultModel.from_spec(spec),
            scenarios=4,
            sim_layers=2,
            alpha=2e-11,
        )
        assert doc == json.loads(json.dumps(result.to_json()))

    def test_simulate_faults_table_attribution_identity(self, capsys):
        code = main(
            [
                "simulate", *SMALL, "--layers", "2",
                "--faults", "straggler=1.0:1.8,outage=1.0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fault scenario 0 (seed 0)" in out
        ms = {}
        for line in out.splitlines():
            cells = [c.strip() for c in line.split("|") if c.strip()]
            if len(cells) == 2 and cells[0] in (
                "nominal", "compute delay", "link delay", "recovery delay",
                "faulted",
            ):
                ms[cells[0]] = float(cells[1])
        assert len(ms) == 5, out
        assert ms["compute delay"] > 0 and ms["recovery delay"] > 0
        # Each cell is rounded to the microsecond, so the sum of the four
        # printed components may differ from the printed total by rounding.
        components = (
            ms["nominal"] + ms["compute delay"] + ms["link delay"]
            + ms["recovery delay"]
        )
        assert abs(ms["faulted"] - components) <= 0.002
