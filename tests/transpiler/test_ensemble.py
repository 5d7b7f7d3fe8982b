"""Tests for best-of-N ensemble routing (repro.transpiler.ensemble)."""

import json
import os
import subprocess
import sys

import pytest

from repro.circuit import qasm, random_cx_circuit
from repro.core.options import O3_DEFAULT_BEST_OF, TranspileOptions
from repro.core.pipeline import transpile
from repro.exceptions import TranspilerError
from repro.hardware import Target, linear_coupling_map
from repro.obs import COUNTERS, Tracer, use_tracer
from repro.transpiler import PassManager, PipelineBuilder
from repro.transpiler.ensemble import EnsembleRouting, trial_stage_seeds
from repro.transpiler.passes import coupling_violations
from repro.transpiler.passes.sabre import SabreLayoutSelection, SabreRouting


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
        # The first K seeds are a prefix of the first K+n seeds: a trial's identity
        # does not depend on the ensemble size, so best_of=K+n re-runs every trial of
        # best_of=K and can only match or beat it.
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
        assert ensemble["winner"] in range(4)
        assert len(ensemble["trials"]) == 4
        finished = [t for t in ensemble["trials"] if not t["pruned"]]
        assert finished, "at least one trial must finish"
        winner = ensemble["trials"][ensemble["winner"]]
        assert not winner["pruned"]
        assert winner["est_two_qubit"] == min(t["est_two_qubit"] for t in finished)
        assert list(ensemble["winner_key"])[0] == winner["est_two_qubit"]

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

    def test_trial_spans_are_sequential(self):
        # Trials run one after another under the pass span: each trial span closes
        # before the next one opens.
        tracer = Tracer()
        with use_tracer(tracer):
            transpile(
                _bench_circuit(seed=37), Target(coupling_map=linear_coupling_map(8)),
                routing="sabre", seed=4, best_of=3,
            )
        spans = tracer.span_dicts()
        (pass_span,) = [s for s in spans if s["name"] == "pass:EnsembleRouting"]
        trials = [s for s in spans if s["name"].startswith("routing.trial")]
        assert [s["name"] for s in trials] == [f"routing.trial{i}" for i in range(3)]
        assert all(s["parent_id"] == pass_span["span_id"] for s in trials)
        for earlier, later in zip(trials, trials[1:]):
            assert earlier["end"] <= later["start"]


# (routing, circuit seed, master seed): six-trial ensembles on an 8-qubit, 60-gate
# circuit over a 10-qubit line, each won by a trial after the third and each pruning
# at least one trial.
SEQUENTIAL_CASES = [
    pytest.param("sabre", 13, 5, id="sabre"),
    pytest.param("nassc", 11, 2, id="nassc"),
]


def _sequential_case(routing, circuit_seed, seed, best_of):
    return transpile(
        _bench_circuit(seed=circuit_seed, qubits=8, gates=60),
        Target(coupling_map=linear_coupling_map(10)),
        routing=routing, seed=seed, best_of=best_of,
    )


class TestSequentialTrials:
    @pytest.mark.parametrize("routing, circuit_seed, seed", SEQUENTIAL_CASES)
    def test_earlier_trials_do_not_depend_on_later_ones(self, routing, circuit_seed, seed):
        # A trial sees only the trials before it, so best_of=K+n starts with exactly
        # the K outcomes of best_of=K (pruned flags included) and can only match or
        # beat its winner.
        three = _sequential_case(routing, circuit_seed, seed, best_of=3).ensemble
        six = _sequential_case(routing, circuit_seed, seed, best_of=6).ensemble
        assert six["trials"][:3] == three["trials"]
        assert tuple(six["winner_key"]) < tuple(three["winner_key"])
        assert six["winner"] >= 3

    @pytest.mark.parametrize("routing, circuit_seed, seed", SEQUENTIAL_CASES)
    def test_pruned_trials_trail_an_earlier_finisher(self, routing, circuit_seed, seed):
        before = COUNTERS.get("routing.ensemble.pruned")
        trials = _sequential_case(routing, circuit_seed, seed, best_of=6).ensemble["trials"]
        pruned = [t for t in trials if t["pruned"]]
        assert COUNTERS.get("routing.ensemble.pruned") - before == len(pruned)
        assert pruned, "the case must prune"
        # Trial 0 has no incumbent to trail; a later trial is stopped only once it has
        # inserted more SWAPs than some trial that finished before it.
        assert not trials[0]["pruned"]
        for trial in pruned:
            finished_before = [
                t["num_swaps"] for t in trials[:trial["trial"]] if not t["pruned"]
            ]
            assert trial["num_swaps"] > min(finished_before)


def _trial_key(routed, index, noise_distance):
    """(est_2q, depth, noise_cost, index) of one routed trial, counted from its circuit:
    every non-SWAP two-qubit gate counts 1 and every SWAP 3, and with a noise-aware
    distance matrix each gate also adds its (3x for SWAPs) distance."""
    est_2q = 0
    noise_cost = 0.0
    for inst in routed.data:
        if inst.name == "barrier" or not inst.gate.is_unitary or len(inst.qubits) != 2:
            continue
        weight = 3 if inst.name == "swap" else 1
        est_2q += weight
        if noise_distance is not None:
            noise_cost += float(weight) * float(noise_distance[inst.qubits[0], inst.qubits[1]])
    return (est_2q, routed.depth(), noise_cost, index)


def _unpruned_reference_cases():
    from repro.benchlib import table_benchmarks

    line = Target(coupling_map=linear_coupling_map(10))
    return [
        pytest.param(
            _bench_circuit(seed=41, qubits=8, gates=60), line,
            TranspileOptions(routing="sabre", seed=1, best_of=5), id="sabre",
        ),
        pytest.param(
            _bench_circuit(seed=13), line,
            TranspileOptions(routing="nassc", seed=2, best_of=4), id="nassc",
        ),
        pytest.param(
            table_benchmarks(names=["grover_n4"])[0].build(),
            Target.from_topology("montreal", 27, calibrated=True),
            TranspileOptions(routing="nassc", seed=0, level="O3"), id="nassc-O3-calibrated",
        ),
    ]


class TestEnsemblePass:
    def test_rejects_bad_trial_counts(self):
        make_router = _sabre_routers(linear_coupling_map(4))
        with pytest.raises(TranspilerError):
            EnsembleRouting(make_router, num_trials=0)

    @pytest.mark.parametrize("circuit, target, options", _unpruned_reference_cases())
    def test_winner_is_the_best_unpruned_trial(self, circuit, target, options):
        # Pruning is lossless: the ensemble picks exactly the trial a full, unpruned
        # comparison of its K trials would pick, each trial compiled alone through
        # the solo layout and routing passes with that trial's seeds.
        builder = PipelineBuilder(target, options)
        (ensemble,) = [p for p in builder.stage("routing") if isinstance(p, EnsembleRouting)]
        manager = PassManager(builder.stage("init") + [ensemble])
        routed = qasm.dumps(manager.run(circuit))
        summary = manager.property_set["ensemble"]

        noise_distance = builder.distance_matrix if builder.noise_aware else None
        solo_runs = {}
        seeds = trial_stage_seeds(options.seed, ensemble.num_trials)
        for index, (layout_seed, routing_seed) in enumerate(seeds):
            solo = PipelineBuilder(target, options)
            solo_circuit = PassManager(solo.stage("init") + [
                SabreLayoutSelection(
                    solo.make_router(layout_seed, layout=True),
                    iterations=options.layout_iterations,
                ),
                SabreRouting(solo.make_router(routing_seed)),
            ]).run(circuit)
            key = _trial_key(solo_circuit, index, noise_distance)
            solo_runs[key] = qasm.dumps(solo_circuit)
        best = min(solo_runs)
        assert tuple(summary["winner_key"]) == best
        assert routed == solo_runs[best]
