"""Tests for the ``python -m repro`` CLI and executor-backed experiment regeneration."""

import json

import pytest

from repro import QuantumCircuit
from repro.benchlib import BenchmarkCase
from repro.benchlib.grover import grover_n4
from repro.circuit import qasm
from repro.service import BatchTranspiler, ResultCache
from repro.service.cli import main
from repro.evaluation import run_table_experiment

SMALL = [BenchmarkCase("grover_n4", 4, grover_n4)]


class TestTranspileCommand:
    @pytest.fixture()
    def qasm_file(self, tmp_path):
        circuit = QuantumCircuit(3, name="cli")
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.cx(0, 2)
        path = tmp_path / "input.qasm"
        path.write_text(qasm.dumps(circuit))
        return str(path)

    def test_writes_routed_qasm_and_metrics(self, qasm_file, tmp_path, capsys):
        out = tmp_path / "routed.qasm"
        metrics = tmp_path / "metrics.json"
        code = main([
            "transpile", qasm_file, "--device", "linear", "--num-qubits", "3",
            "--routing", "nassc", "--seed", "0",
            "--out", str(out), "--metrics", str(metrics),
        ])
        assert code == 0
        routed = qasm.loads(out.read_text())
        assert routed.num_qubits == 3
        payload = json.loads(metrics.read_text())
        assert payload["routing"] == "nassc"
        assert payload["cx_count"] == routed.cx_count()
        assert payload["device"].startswith("linear")
        assert len(payload["fingerprint"]) == 64

    def test_best_of_flag_runs_the_ensemble(self, qasm_file, tmp_path, capsys):
        out = tmp_path / "routed.qasm"
        metrics = tmp_path / "metrics.json"
        code = main([
            "transpile", qasm_file, "--device", "linear", "--num-qubits", "3",
            "--routing", "sabre", "--seed", "0", "--best-of", "3",
            "--out", str(out), "--metrics", str(metrics),
        ])
        assert code == 0
        payload = json.loads(metrics.read_text())
        assert payload["cx_count"] > 0
        # Reruns are deterministic: the same --best-of invocation hits the cache
        # only for an identical K (best_of enters the fingerprint).
        assert len(payload["fingerprint"]) == 64

    def test_failure_returns_nonzero(self, qasm_file, capsys):
        # 3-qubit circuit on a 2-qubit device: the job fails, the CLI reports it.
        code = main([
            "transpile", qasm_file, "--device", "linear", "--num-qubits", "2", "--out", "-",
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_stdout_output(self, qasm_file, capsys):
        code = main([
            "transpile", qasm_file, "--device", "linear", "--num-qubits", "3", "--out", "-",
        ])
        assert code == 0
        assert "OPENQASM 2.0;" in capsys.readouterr().out


class TestSharedFlags:
    def test_paired_commands_parse_the_same_defaults(self):
        """transpile/submit and serve/fleet worker declare each shared flag once."""
        from repro.service.cli import _build_parser

        parser = _build_parser()

        def defaults(argv, names):
            args = vars(parser.parse_args(argv))
            return {name: args[name] for name in names}

        compile_flags = [
            "device", "num_qubits", "routing", "level", "seed", "best_of", "noise_aware",
            "schedule", "route_cost", "out", "metrics", "trace",
        ]
        assert defaults(["transpile", "in.qasm"], compile_flags) == defaults(
            ["submit", "in.qasm"], compile_flags
        )
        server_flags = ["host", "workers", "concurrency", "queue_bound", "cache_dir", "threads"]
        worker = ["fleet", "worker", "--coordinator", "http://127.0.0.1:8100"]
        assert defaults(["serve"], server_flags) == defaults(worker, server_flags)
        assert parser.parse_args(["serve"]).port == 8000
        assert parser.parse_args(worker).port == 0


class TestTableCommand:
    def test_report_and_artifacts(self, tmp_path, capsys):
        csv_path = tmp_path / "table.csv"
        json_path = tmp_path / "table.json"
        code = main([
            "table", "--device", "linear", "--num-qubits", "5",
            "--benchmarks", "grover_n4", "--workers", "1",
            "--csv", str(csv_path), "--json", str(json_path), "--depth",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "grover_n4" in out and "geomean" in out
        assert "sabre_depth" in out  # --depth adds the Table II style report
        assert "delta_cx_added_pct" in csv_path.read_text()
        payload = json.loads(json_path.read_text())
        assert payload["rows"][0]["name"] == "grover_n4"
        assert "geomean" in payload

    def test_warm_cache_rerun_zero_misses(self, tmp_path, capsys):
        """Acceptance: a warm-cache rerun performs zero new transpile calls."""
        cache_dir = str(tmp_path / "cache")
        argv = [
            "table", "--device", "linear", "--num-qubits", "5",
            "--benchmarks", "grover_n4", "--workers", "2", "--cache-dir", cache_dir,
        ]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert main(argv) == 0
        warm = capsys.readouterr()
        assert cold.out == warm.out  # identical report from cached results
        assert "0 misses" in warm.err
        assert "100% hit rate" in warm.err

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            main(["table", "--benchmarks", "not_a_benchmark"])

    def test_routing_choice_from_registry(self, capsys):
        """--routing accepts any registered method; self-vs-self comparison yields 0%."""
        code = main([
            "table", "--device", "linear", "--num-qubits", "5",
            "--benchmarks", "grover_n4", "--routing", "sabre", "--baseline", "sabre",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Qiskit+SABRE vs Qiskit+SABRE" in out

    def test_unregistered_routing_rejected(self):
        with pytest.raises(SystemExit):
            main(["table", "--routing", "not_a_method"])


class TestAblationCommand:
    def test_panel_regeneration(self, tmp_path, capsys):
        json_path = tmp_path / "ablation.json"
        code = main([
            "ablation", "--device", "linear", "--num-qubits", "5",
            "--benchmarks", "grover_n4", "--json", str(json_path),
        ])
        assert code == 0
        assert "grover_n4" in capsys.readouterr().out
        payload = json.loads(json_path.read_text())
        assert len(payload[0]["cx_by_combination"]) == 8


class TestNoiseCommand:
    def test_small_noise_run(self, capsys):
        code = main([
            "noise", "--benchmarks", "grover_n4", "--shots", "128",
            "--realizations", "8",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "sr_nassc" in out and "grover_n4" in out


class TestMethodsCommand:
    def test_lists_routings_and_levels(self, capsys):
        assert main(["methods"]) == 0
        out = capsys.readouterr().out
        for name in ("none", "sabre", "nassc"):
            assert name in out
        for level in ("O0", "O1", "O2", "O3"):
            assert level in out
        assert "builtin" in out
        assert "best-of-N" in out and "single" in out

    def test_lists_registered_plugin(self, capsys):
        from repro.transpiler.registry import get_routing, register_routing, unregister_routing

        def factory(target, options):
            return get_routing("sabre").factory(target, options)

        register_routing("cli_listed_router", factory, description="cli plugin probe")
        try:
            assert main(["methods"]) == 0
            out = capsys.readouterr().out
            assert "cli_listed_router" in out and "plugin" in out
        finally:
            unregister_routing("cli_listed_router")


class TestOptimizationLevelFlag:
    def test_transpile_level_flag(self, tmp_path, capsys):
        circuit = QuantumCircuit(3, name="lvl")
        circuit.h(0)
        circuit.ccx(0, 1, 2)
        path = tmp_path / "lvl.qasm"
        path.write_text(qasm.dumps(circuit))
        metrics = tmp_path / "m.json"
        code = main([
            "transpile", str(path), "--device", "linear", "--num-qubits", "3",
            "--routing", "sabre", "--level", "O0", "--out", "-", "--metrics", str(metrics),
        ])
        assert code == 0
        payload = json.loads(metrics.read_text())
        assert payload["level"] == "O0"


class TestCustomRouterThroughService:
    """Acceptance: a router registered via register_routing works by name through the
    CLI, the batch service, and the content-addressed cache."""

    @staticmethod
    def _register(name):
        from repro.transpiler.registry import get_routing, register_routing

        def factory(target, options):
            return get_routing("sabre").factory(target, options)

        register_routing(name, factory, description="custom e2e router")

    def test_cli_and_cache_roundtrip(self, tmp_path, capsys):
        from repro.transpiler.registry import unregister_routing

        self._register("custom_e2e")
        try:
            circuit = QuantumCircuit(3, name="custom")
            circuit.h(0)
            circuit.cx(0, 2)
            path = tmp_path / "c.qasm"
            path.write_text(qasm.dumps(circuit))
            cache_dir = str(tmp_path / "cache")
            argv = [
                "transpile", str(path), "--device", "linear", "--num-qubits", "3",
                "--routing", "custom_e2e", "--out", "-", "--cache-dir", cache_dir,
            ]
            assert main(argv) == 0
            cold = capsys.readouterr()
            assert "OPENQASM 2.0;" in cold.out
            assert main(argv) == 0
            warm = capsys.readouterr()
            assert warm.out == cold.out
            assert "0 misses" in warm.err
        finally:
            unregister_routing("custom_e2e")

    def test_batch_executor_runs_custom_router(self):
        from repro.service.jobs import TranspileJob
        from repro.transpiler.registry import unregister_routing
        from repro.hardware import Target, linear_coupling_map

        self._register("custom_batch")
        try:
            circuit = QuantumCircuit(3)
            circuit.h(0)
            circuit.cx(0, 2)
            job = TranspileJob.from_circuit(
                circuit, Target(coupling_map=linear_coupling_map(3)), routing="custom_batch",
                seed=0,
            )
            executor = BatchTranspiler(max_workers=1)
            first = executor.run([job])[0]
            assert first.ok and not first.from_cache
            second = executor.run([job])[0]
            assert second.ok and second.from_cache
            assert second.unwrap().cx_count == first.unwrap().cx_count
        finally:
            unregister_routing("custom_batch")


class TestCacheCommand:
    def test_stats_and_clear(self, tmp_path, capsys):
        import json as json_module

        cache_dir = str(tmp_path / "cache")
        ResultCache(directory=cache_dir).put("a" * 64, {"qasm": "//"})
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        payload = json_module.loads(capsys.readouterr().out)
        assert payload["directory"] == cache_dir
        assert payload["exists"] is True
        assert payload["disk_entries"] == 1
        assert payload["stats"]["hit_rate"] == 0.0
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out  # "removed ..." line from clear, then the JSON
        payload = json_module.loads(out[out.index("{"):])
        assert payload["disk_entries"] == 0

    def test_cache_requires_directory(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert main(["cache", "stats"]) == 1


class TestExperimentsThroughExecutor:
    def test_table_experiment_serial_vs_parallel_identical(self):
        serial = run_table_experiment(
            "linear", cases=SMALL, seeds=(0, 1), num_device_qubits=5,
            executor=BatchTranspiler(max_workers=1),
        )
        parallel = run_table_experiment(
            "linear", cases=SMALL, seeds=(0, 1), num_device_qubits=5,
            executor=BatchTranspiler(max_workers=2),
        )
        row_s, row_p = serial.rows[0], parallel.rows[0]
        assert (row_s.sabre_cx, row_s.nassc_cx, row_s.sabre_depth, row_s.nassc_depth) == (
            row_p.sabre_cx, row_p.nassc_cx, row_p.sabre_depth, row_p.nassc_depth,
        )

    def test_table_experiment_warm_executor_zero_misses(self):
        executor = BatchTranspiler(max_workers=1)
        first = run_table_experiment(
            "linear", cases=SMALL, seeds=(0,), num_device_qubits=5, executor=executor,
        )
        cold_misses = executor.stats.misses
        assert cold_misses > 0
        second = run_table_experiment(
            "linear", cases=SMALL, seeds=(0,), num_device_qubits=5, executor=executor,
        )
        # Zero new transpile calls on the warm rerun, identical table.
        assert executor.stats.misses == cold_misses
        assert second.rows[0].nassc_cx == first.rows[0].nassc_cx


class TestScheduleCLI:
    @pytest.fixture()
    def qasm_file(self, tmp_path):
        circuit = QuantumCircuit(3, name="timed")
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.cx(0, 2)
        circuit.cx(1, 2)
        path = tmp_path / "timed.qasm"
        path.write_text(qasm.dumps(circuit))
        return str(path)

    def test_transpile_schedule_flag_emits_duration_metrics(self, qasm_file, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        code = main([
            "transpile", qasm_file, "--device", "linear", "--num-qubits", "3",
            "--routing", "sabre", "--seed", "0", "--schedule", "asap",
            "--metrics", str(metrics),
        ])
        assert code == 0
        payload = json.loads(metrics.read_text())
        assert payload["schedule_mode"] == "asap"
        assert payload["schedule_duration_ns"] > 0
        assert payload["schedule_idle_ns"] >= 0

    def test_schedule_subcommand_prints_timeline(self, qasm_file, capsys):
        code = main([
            "schedule", qasm_file, "--device", "linear", "--num-qubits", "3",
            "--routing", "sabre", "--seed", "0", "--mode", "alap",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "q0" in out and "critical path" in out.lower()
        assert "idle" in out.lower()

    def test_schedule_subcommand_json(self, qasm_file, capsys):
        code = main([
            "schedule", qasm_file, "--device", "linear", "--num-qubits", "3",
            "--routing", "sabre", "--seed", "0", "--mode", "asap", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "asap" and payload["unit"] == "ns"
        assert payload["duration"] > 0 and payload["instructions"]

    def test_ns_route_cost_flag(self, qasm_file, tmp_path, capsys):
        out = tmp_path / "routed.qasm"
        code = main([
            "transpile", qasm_file, "--device", "linear", "--num-qubits", "3",
            "--routing", "sabre", "--seed", "0", "--route-cost", "ns",
            "--out", str(out),
        ])
        assert code == 0
        assert qasm.loads(out.read_text()).num_qubits == 3

    def test_methods_lists_schedule_modes(self, capsys):
        assert main(["methods"]) == 0
        out = capsys.readouterr().out
        assert "schedule modes:" in out
        assert "asap" in out and "alap" in out
