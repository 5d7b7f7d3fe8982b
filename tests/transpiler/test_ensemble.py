"""Tests for best-of-N ensemble routing (repro.transpiler.ensemble)."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.circuit import qasm, random_cx_circuit
from repro.core.options import O3_DEFAULT_BEST_OF, TranspileOptions
from repro.core.pipeline import transpile
from repro.exceptions import TranspilerError
from repro.hardware import Target, linear_coupling_map
from repro.obs import COUNTERS, Tracer, use_tracer
from repro.transpiler import PipelineBuilder
from repro.transpiler.ensemble import (
    EnsembleRouting,
    _stacked_sums,
    trial_stage_seeds,
)
from repro.transpiler.passes import coupling_violations
from repro.transpiler.passes.sabre import front_ext_sums


def _bench_circuit(seed=7, qubits=6, gates=30):
    return random_cx_circuit(qubits, gates, seed=seed)


def _sabre_routers(coupling):
    """The router builder of a default sabre compile on ``coupling``."""
    return PipelineBuilder(Target(coupling_map=coupling), TranspileOptions()).make_router


class TestTrialStageSeeds:
    def test_deterministic_and_prefix_stable(self):
        a = trial_stage_seeds(42, 8)
        b = trial_stage_seeds(42, 8)
        assert a == b
        # The first K seeds are a prefix of the first K+n seeds: trial identity does
        # not depend on the ensemble size, which is what fan-out chunking relies on.
        assert trial_stage_seeds(42, 4) == a[:4]

    def test_independent_per_trial_and_stage(self):
        seeds = trial_stage_seeds(0, 16)
        flat = [s for pair in seeds for s in pair]
        assert len(set(flat)) == len(flat)

    def test_master_seed_changes_everything(self):
        assert trial_stage_seeds(0, 4) != trial_stage_seeds(1, 4)


class TestOptionsBestOf:
    def test_default_is_single_trial(self):
        assert TranspileOptions().effective_best_of == 1

    def test_o3_defaults_to_ensemble(self):
        assert TranspileOptions(level="O3").effective_best_of == O3_DEFAULT_BEST_OF

    def test_explicit_overrides_o3_default(self):
        assert TranspileOptions(level="O3", best_of=1).effective_best_of == 1
        assert TranspileOptions(level="O1", best_of=6).effective_best_of == 6

    @pytest.mark.parametrize("bad", [0, -1, 2.5, "4", True])
    def test_invalid_best_of_rejected(self, bad):
        with pytest.raises(TranspilerError):
            TranspileOptions(best_of=bad)

    def test_round_trip_preserves_raw_value(self):
        options = TranspileOptions(level="O3")
        assert TranspileOptions.from_dict(options.to_dict()) == options
        explicit = TranspileOptions(best_of=5)
        assert TranspileOptions.from_dict(explicit.to_dict()) == explicit

    def test_content_dict_canonicalizes(self):
        # O3-with-default and O3-with-explicit-4 must share a fingerprint.
        implicit = TranspileOptions(level="O3").content_dict()
        explicit = TranspileOptions(level="O3", best_of=4).content_dict()
        assert implicit == explicit


class TestEnsembleTranspile:
    @pytest.mark.parametrize("routing", ["sabre", "nassc"])
    def test_reproducible_across_runs(self, routing):
        circuit = _bench_circuit()
        target = Target(coupling_map=linear_coupling_map(8))
        first = transpile(circuit, target, routing=routing, seed=0, best_of=4)
        second = transpile(circuit, target, routing=routing, seed=0, best_of=4)
        assert qasm.dumps(first.circuit) == qasm.dumps(second.circuit)
        assert first.ensemble == second.ensemble
        assert first.best_of == 4

    @pytest.mark.parametrize("routing", ["sabre", "nassc"])
    def test_valid_routing_and_diagnostics(self, routing):
        circuit = _bench_circuit()
        target = Target(coupling_map=linear_coupling_map(8))
        result = transpile(circuit, target, routing=routing, seed=3, best_of=4)
        assert not coupling_violations(result.circuit, target.coupling_map)
        ensemble = result.ensemble
        assert ensemble["num_trials"] == 4
        assert ensemble["executed_trials"] == [0, 1, 2, 3]
        assert ensemble["winner"] in range(4)
        assert len(ensemble["trials"]) == 4
        finished = [t for t in ensemble["trials"] if not t["pruned"]]
        assert finished, "at least one trial must finish"
        winner = ensemble["trials"][ensemble["winner"]]
        assert not winner["pruned"]
        assert winner["est_two_qubit"] == min(t["est_two_qubit"] for t in finished)
        assert list(ensemble["winner_key"])[0] == winner["est_two_qubit"]

    def test_never_worse_than_best_independent_trial(self):
        # Property: the ensemble winner equals the best of the same K trials run
        # one at a time (identical seeds via trial_subset), so best_of=K can never
        # be worse than any single trial it contains.
        circuit = _bench_circuit(seed=11)
        target = Target(coupling_map=linear_coupling_map(8))
        ensemble = transpile(circuit, target, routing="sabre", seed=5, best_of=4)
        solo_keys = []
        for index in range(4):
            solo = transpile(
                circuit, target, routing="sabre", seed=5, best_of=4,
                _trial_subset=[index],
            )
            solo_keys.append(tuple(solo.ensemble["winner_key"]))
        assert tuple(ensemble.ensemble["winner_key"]) == min(solo_keys)
        assert ensemble.ensemble["winner_key"][0] <= min(k[0] for k in solo_keys)

    def test_fanout_partition_reduces_to_whole_run(self):
        # The server splits trials into chunks and takes the min winner_key; any
        # partition must reproduce the whole-ensemble result bit-for-bit.
        circuit = _bench_circuit(seed=13)
        target = Target(coupling_map=linear_coupling_map(8))
        whole = transpile(circuit, target, routing="nassc", seed=2, best_of=4)
        chunks = [
            transpile(circuit, target, routing="nassc", seed=2, best_of=4,
                      _trial_subset=subset)
            for subset in ([0, 1], [2, 3])
        ]
        best = min(chunks, key=lambda r: tuple(r.ensemble["winner_key"]))
        assert tuple(best.ensemble["winner_key"]) == tuple(whole.ensemble["winner_key"])
        assert qasm.dumps(best.circuit) == qasm.dumps(whole.circuit)

    def test_reproducible_across_processes(self):
        circuit = _bench_circuit(seed=17)
        here = transpile(
            circuit, Target(coupling_map=linear_coupling_map(8)), routing="sabre", seed=9,
            best_of=3,
        )
        script = (
            "import json, sys\n"
            "from repro.circuit import qasm, random_cx_circuit\n"
            "from repro.core.pipeline import transpile\n"
            "from repro.hardware import Target, linear_coupling_map\n"
            "c = random_cx_circuit(6, 30, seed=17)\n"
            "t = Target(coupling_map=linear_coupling_map(8))\n"
            "r = transpile(c, t, routing='sabre', seed=9, best_of=3)\n"
            "print(json.dumps({'qasm': qasm.dumps(r.circuit),"
            " 'key': r.ensemble['winner_key']}))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = ":".join(p for p in sys.path if p)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True, cwd="/",
            env=env,
        )
        other = json.loads(proc.stdout)
        assert other["qasm"] == qasm.dumps(here.circuit)
        assert other["key"] == here.ensemble["winner_key"]

    def test_best_of_one_identical_to_default_path(self):
        # best_of=1 must bypass the ensemble entirely: bit-identical circuit,
        # no ensemble diagnostics (the golden O1 hashes depend on this).
        circuit = _bench_circuit(seed=23)
        target = Target(coupling_map=linear_coupling_map(8))
        plain = transpile(circuit, target, routing="sabre", seed=0)
        pinned = transpile(circuit, target, routing="sabre", seed=0, best_of=1)
        assert qasm.dumps(plain.circuit) == qasm.dumps(pinned.circuit)
        assert plain.best_of == 1 and pinned.best_of == 1
        assert plain.ensemble is None and pinned.ensemble is None

    def test_routing_none_ignores_best_of(self):
        result = transpile(_bench_circuit(), None, routing="none", best_of=8)
        assert result.best_of == 1
        assert result.ensemble is None

    def test_pruning_counters_and_flags(self):
        circuit = _bench_circuit(seed=29, qubits=8, gates=60)
        target = Target(coupling_map=linear_coupling_map(10))
        before = COUNTERS.get("routing.ensemble.trials")
        result = transpile(circuit, target, routing="sabre", seed=1, best_of=6)
        assert COUNTERS.get("routing.ensemble.trials") - before == 6
        pruned = [t for t in result.ensemble["trials"] if t["pruned"]]
        for t in pruned:
            assert t["est_two_qubit"] is None
            assert t["num_swaps"] is not None

    def test_batched_kernel_is_exercised(self):
        circuit = _bench_circuit(seed=31)
        before = COUNTERS.get("routing.ensemble.batched_requests")
        target = Target(coupling_map=linear_coupling_map(8))
        transpile(circuit, target, routing="sabre", seed=0, best_of=4)
        assert COUNTERS.get("routing.ensemble.batched_requests") > before

    def test_per_trial_spans(self):
        circuit = _bench_circuit(seed=37)
        tracer = Tracer()
        with use_tracer(tracer):
            result = transpile(
                circuit, Target(coupling_map=linear_coupling_map(8)), routing="sabre", seed=4,
                best_of=3,
            )
        spans = {s["name"]: s for s in tracer.span_dicts()
                 if s["name"].startswith("routing.trial")}
        assert set(spans) == {"routing.trial0", "routing.trial1", "routing.trial2"}
        for trial in result.ensemble["trials"]:
            attrs = spans[f"routing.trial{trial['trial']}"]["attrs"]
            assert attrs["layout_seed"] == trial["layout_seed"]
            assert attrs["routing_seed"] == trial["routing_seed"]
            assert attrs["num_swaps"] == trial["num_swaps"]
            if not trial["pruned"]:
                assert attrs["est_two_qubit"] == trial["est_two_qubit"]


class TestEnsemblePass:
    def test_rejects_bad_trial_counts(self):
        make_router = _sabre_routers(linear_coupling_map(4))
        with pytest.raises(TranspilerError):
            EnsembleRouting(make_router, num_trials=0)
        with pytest.raises(TranspilerError):
            EnsembleRouting(make_router, num_trials=4, trial_subset=[4])
        with pytest.raises(TranspilerError):
            EnsembleRouting(make_router, num_trials=4, trial_subset=[])

    def test_pruning_never_changes_the_winner(self):
        # Pruning is an optimization, not a heuristic: the winner (and its routed
        # circuit) must be identical with pruning on and off.
        from repro.transpiler import PassManager

        circuit = _bench_circuit(seed=41, qubits=8, gates=60)
        make_router = _sabre_routers(linear_coupling_map(10))
        results = {}
        for prune in (True, False):
            manager = PassManager([
                EnsembleRouting(make_router, num_trials=5, seed=1, prune=prune)
            ])
            routed = manager.run(circuit)
            results[prune] = (qasm.dumps(routed), manager.property_set["ensemble"])
        assert not any(t["pruned"] for t in results[False][1]["trials"])
        assert results[True][0] == results[False][0]
        assert results[True][1]["winner_key"] == results[False][1]["winner_key"]


class TestStackedSums:
    def test_bit_identical_to_solo_kernel_calls(self):
        rng = np.random.default_rng(0)
        n = 9
        distance = np.abs(rng.normal(size=(n, n)))
        distance = np.ascontiguousarray((distance + distance.T) / 2.0)
        np.fill_diagonal(distance, 0.0)
        tables = []
        for rows, cols in [(3, 4), (5, 2), (1, 7), (4, 4)]:
            tables.append((
                rng.integers(0, n, size=(rows, cols)).astype(np.intp),
                rng.integers(0, n, size=(rows, cols)).astype(np.intp),
            ))
        stacked = _stacked_sums(distance, tables)
        for (a, b), got in zip(tables, stacked):
            solo, _ = front_ext_sums(distance, a, b, a.shape[1])
            assert got.tobytes() == solo.tobytes()
