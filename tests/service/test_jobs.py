"""Tests for TranspileJob specs: fingerprints, serialization, and execution."""

import json
import os
import subprocess
import sys

import pytest

from repro import QuantumCircuit, Target, TranspileOptions, linear_coupling_map
from repro.benchlib.suite import get_benchmark
from repro.circuit import qasm
from repro.core.nassc import NASSCConfig
from repro.core.pipeline import TranspileResult, transpile
from repro.exceptions import TranspilerError
from repro.hardware.calibration import fake_montreal_calibration, synthetic_calibration
from repro.hardware.topologies import get_topology, montreal_coupling_map
from repro.service.jobs import JobError, TranspileJob


def small_circuit(name: str = "small") -> QuantumCircuit:
    circuit = QuantumCircuit(4, name=name)
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.cx(0, 3)
    circuit.crx(0.3, 1, 3)
    return circuit


def linear_target(qubits: int = 5) -> Target:
    return Target(coupling_map=linear_coupling_map(qubits))


class TestFingerprint:
    def test_deterministic_for_identical_content(self):
        target = linear_target()
        job_a = TranspileJob.from_circuit(small_circuit(), target, routing="sabre", seed=0)
        job_b = TranspileJob.from_circuit(small_circuit(), target, routing="sabre", seed=0)
        assert job_a.fingerprint() == job_b.fingerprint()

    def test_name_does_not_enter_fingerprint(self):
        target = linear_target()
        job_a = TranspileJob.from_circuit(small_circuit("a"), target, seed=0, name="first")
        job_b = TranspileJob.from_circuit(small_circuit("b"), target, seed=0, name="second")
        assert job_a.fingerprint() == job_b.fingerprint()

    @pytest.mark.parametrize(
        "change",
        [
            {"routing": "nassc"},
            {"seed": 1},
            {"best_of": 4},
            {"nassc_config": NASSCConfig(True, False, True)},
            {"noise_aware": True, "calibration": "montreal"},
        ],
    )
    def test_content_changes_change_fingerprint(self, change):
        coupling = montreal_coupling_map()
        base = TranspileJob.from_circuit(
            small_circuit(), Target(coupling_map=coupling), routing="sabre", seed=0
        )
        change = dict(change)
        calibration = fake_montreal_calibration() if change.pop("calibration", None) else None
        other = TranspileJob.from_circuit(
            small_circuit(), Target(coupling_map=coupling, calibration=calibration),
            TranspileOptions(routing="sabre", seed=0).replace(**change),
        )
        assert base.fingerprint() != other.fingerprint()

    def test_circuit_changes_change_fingerprint(self):
        target = linear_target()
        base = TranspileJob.from_circuit(small_circuit(), target, seed=0)
        circuit = small_circuit()
        circuit.x(2)
        other = TranspileJob.from_circuit(circuit, target, seed=0)
        assert base.fingerprint() != other.fingerprint()

    def test_fingerprints_pinned(self):
        """Pinned fingerprints: how a job stores its spec must not move a result-cache key
        or a fleet ring placement."""
        circuit = get_benchmark("grover_n4")
        job = TranspileJob.from_circuit(
            circuit, Target.from_topology("linear", 5), TranspileOptions(routing="nassc", seed=0)
        )
        assert job.fingerprint() == (
            "b46645f985305bd98edcd5484d15aef8a5db3213952f256ffe8b027052fb641e"
        )
        montreal = get_topology("montreal")
        target = Target(
            coupling_map=montreal, calibration=synthetic_calibration(montreal), name="montreal"
        )
        options = TranspileOptions(routing="sabre", seed=3, level="O3", schedule="asap")
        assert TranspileJob.from_circuit(circuit, target, options).fingerprint() == (
            "8e8d8b1c24f7b34aed21fb9756c039a2f2d6ee001ad54db604427dfd730be7c6"
        )

    def test_pipeline_version_enters_fingerprint(self):
        """A pipeline refactor (version bump) must never serve pre-refactor cache entries."""
        import repro.service.jobs as jobs_module

        job = TranspileJob.from_circuit(small_circuit(), linear_target(), seed=0)
        assert job.content_dict()["pipeline_version"] == jobs_module.PIPELINE_VERSION
        before = job.fingerprint()
        original = jobs_module.PIPELINE_VERSION
        jobs_module.PIPELINE_VERSION = original + 1
        try:
            assert job.fingerprint() != before
        finally:
            jobs_module.PIPELINE_VERSION = original
        assert job.fingerprint() == before

    def test_pipeline_version_bump_misses_result_cache(self):
        """End to end: a cached result is not served once the pipeline version changes."""
        import repro.service.jobs as jobs_module
        from repro.service.cache import ResultCache

        job = TranspileJob.from_circuit(small_circuit(), linear_target(), routing="none", seed=0)
        cache = ResultCache()
        cache.put(job.fingerprint(), job.run().to_dict())
        assert cache.get(job.fingerprint()) is not None
        original = jobs_module.PIPELINE_VERSION
        jobs_module.PIPELINE_VERSION = original + 1
        try:
            assert cache.get(job.fingerprint()) is None
        finally:
            jobs_module.PIPELINE_VERSION = original

    def test_stable_across_processes(self):
        """The fingerprint is a pure content hash: a fresh interpreter computes the same."""
        job = TranspileJob.from_circuit(
            small_circuit(), linear_target(), routing="nassc", seed=3,
            nassc_config=NASSCConfig(True, True, False),
        )
        script = (
            "import json, sys\n"
            "from repro.service.jobs import TranspileJob\n"
            "job = TranspileJob.from_dict(json.load(sys.stdin))\n"
            "print(job.fingerprint())\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = "12345"  # prove independence from hash randomisation
        proc = subprocess.run(
            [sys.executable, "-c", script],
            input=json.dumps(job.to_dict()),
            capture_output=True, text=True, env=env, check=True,
        )
        assert proc.stdout.strip() == job.fingerprint()


class TestTargetOptionsFingerprint:
    """The Target/TranspileOptions canonical dicts are the fingerprint input (v3 schema)."""

    def test_target_options_equivalent_to_legacy_kwargs(self):
        """A job built from a Target+options fingerprints like one built from keyword
        overrides of the default options."""
        via_options = TranspileJob.from_circuit(
            small_circuit(), linear_target(), TranspileOptions(routing="nassc", seed=3),
        )
        via_kwargs = TranspileJob.from_circuit(
            small_circuit(), linear_target(), routing="nassc", seed=3
        )
        assert via_options.fingerprint() == via_kwargs.fingerprint()

    def test_content_dict_nests_target_and_options(self):
        job = TranspileJob.from_circuit(small_circuit(), linear_target(), seed=0)
        content = job.content_dict()
        assert content["target"] == job.target().content_dict()
        assert content["options"] == job.options().content_dict()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("level", "O2"),
            ("final_basis", "u"),
            ("extended_set_size", 10),
            ("extended_set_weight", 0.75),
            ("layout_iterations", 3),
        ],
    )
    def test_option_and_target_field_changes_change_fingerprint(self, field, value):
        import dataclasses

        base = TranspileJob.from_circuit(small_circuit(), linear_target(), seed=0)
        if field == "final_basis":
            changed = dataclasses.replace(
                base, device=Target(coupling_map=linear_coupling_map(5), final_basis=value)
            )
        else:
            changed = dataclasses.replace(base, settings=base.options().replace(**{field: value}))
        assert base.fingerprint() != changed.fingerprint()

    def test_adding_calibration_to_target_changes_fingerprint(self):
        coupling = montreal_coupling_map()
        plain = TranspileJob.from_circuit(small_circuit(), Target(coupling_map=coupling))
        calibrated = TranspileJob.from_circuit(
            small_circuit(),
            Target(coupling_map=coupling, calibration=fake_montreal_calibration()),
        )
        assert plain.fingerprint() != calibrated.fingerprint()

    def test_changed_options_miss_result_cache(self):
        """End to end: an O1 cache entry is not served to an O2 job (and vice versa)."""
        from repro.service.cache import ResultCache

        o1 = TranspileJob.from_circuit(small_circuit(), linear_target(), routing="none", seed=0)
        o2 = TranspileJob.from_circuit(
            small_circuit(), linear_target(), routing="none", seed=0, level="O2"
        )
        cache = ResultCache()
        cache.put(o1.fingerprint(), o1.run().to_dict())
        assert cache.get(o1.fingerprint()) is not None
        assert cache.get(o2.fingerprint()) is None

    def test_bare_coupling_map_rejected(self):
        with pytest.raises(TranspilerError, match=r"Target\(coupling_map=\.\.\.\)"):
            TranspileJob.from_circuit(small_circuit(), linear_coupling_map(5), seed=0)

    @pytest.mark.parametrize("keyword", ["coupling_map", "calibration"])
    def test_device_keywords_rejected(self, keyword):
        value = linear_coupling_map(5) if keyword == "coupling_map" else fake_montreal_calibration()
        with pytest.raises(TypeError, match=keyword):
            TranspileJob.from_circuit(small_circuit(), None, **{keyword: value})

    def test_final_basis_kwarg_with_target_rejected(self):
        with pytest.raises(TypeError, match="final_basis"):
            TranspileJob.from_circuit(small_circuit(), linear_target(), final_basis="u")

    def test_unregistered_routing_rejected_at_construction(self):
        with pytest.raises(TranspilerError, match="unknown routing method"):
            TranspileJob("OPENQASM 2.0;", settings=TranspileOptions(routing="not_registered"))

    def test_level_normalised_at_construction(self):
        job = TranspileJob("OPENQASM 2.0;", settings=TranspileOptions(routing="none", level=2))
        assert job.options().level == "O2"

    def test_job_run_honours_level(self):
        o0 = TranspileJob.from_circuit(
            small_circuit(), linear_target(), routing="sabre", seed=0, level="O0"
        ).run()
        o1 = TranspileJob.from_circuit(
            small_circuit(), linear_target(), routing="sabre", seed=0, level="O1"
        ).run()
        assert o0.level == "O0" and o1.level == "O1"
        assert o0.cx_count >= o1.cx_count


class TestSerialization:
    def test_job_round_trip(self):
        target = Target(
            coupling_map=montreal_coupling_map(), calibration=fake_montreal_calibration()
        )
        job = TranspileJob.from_circuit(
            small_circuit(), target, routing="nassc", seed=7,
            nassc_config=NASSCConfig(False, True, True), noise_aware=True, name="rt",
        )
        clone = TranspileJob.from_dict(json.loads(json.dumps(job.to_dict())))
        assert clone == job
        assert clone.fingerprint() == job.fingerprint()

    def test_job_keeps_everything_it_is_given(self):
        """No target or option field is dropped on the way through the wire form."""
        target = Target(
            coupling_map=montreal_coupling_map(), calibration=fake_montreal_calibration(),
            name="my-device",
        )
        options = TranspileOptions(
            routing="nassc", seed=2, check=False, best_of=4,
            nassc_config=NASSCConfig(True, False, True),
        )
        job = TranspileJob.from_circuit(small_circuit(), target, options, name="kept")
        clone = TranspileJob.from_dict(json.loads(json.dumps(job.to_dict())))
        assert clone == job
        assert clone.options() == options
        assert clone.target().name == "my-device"
        assert job.options().check is False
        checked = TranspileJob.from_circuit(small_circuit(), target, options.replace(check=True))
        assert job.fingerprint() != checked.fingerprint()

    def test_wire_form_is_the_submission_body(self):
        job = TranspileJob.from_circuit(small_circuit(), linear_target(), seed=0, name="body")
        data = job.to_dict()
        assert set(data) == {"qasm", "target", "options", "name"}
        assert data["target"] == job.target().to_dict()
        assert data["options"] == job.options().to_dict()

    def test_best_of_round_trips(self):
        job = TranspileJob.from_circuit(
            small_circuit(), linear_target(), routing="sabre", seed=0, best_of=4
        )
        clone = TranspileJob.from_dict(json.loads(json.dumps(job.to_dict())))
        assert clone == job
        assert clone.options().best_of == 4
        assert clone.options().effective_best_of == 4
        assert clone.fingerprint() == job.fingerprint()

    def test_flat_job_dict_rejected(self):
        """A flat job dict (device and option fields side by side) does not load as a job."""
        flat = {
            "qasm": qasm.dumps(small_circuit()),
            "routing": "sabre",
            "level": "O1",
            "coupling_map": linear_coupling_map(5).to_dict(),
            "seed": 1,
        }
        with pytest.raises(KeyError, match="target"):
            TranspileJob.from_dict(flat)

    def test_target_built_from_job_round_trips(self):
        target = Target(
            coupling_map=montreal_coupling_map(), calibration=fake_montreal_calibration(),
            final_basis="u",
        )
        job = TranspileJob.from_circuit(small_circuit(), target, noise_aware=True)
        assert job.target() == target

    def test_job_error_round_trip(self):
        error = JobError("f" * 64, "job", "ValueError", "boom", "trace")
        clone = JobError.from_dict(error.to_dict())
        assert clone == error
        assert "boom" in str(clone)


class TestExecution:
    def test_run_matches_direct_transpile(self):
        target = linear_target()
        circuit = small_circuit()
        direct = transpile(circuit, target, routing="nassc", seed=0)
        via_job = TranspileJob.from_circuit(circuit, target, routing="nassc", seed=0).run()
        assert via_job.cx_count == direct.cx_count
        assert via_job.depth == direct.depth
        assert via_job.num_swaps == direct.num_swaps
        assert via_job.final_layout == direct.final_layout

    def test_routing_none_needs_no_coupling_map(self):
        result = TranspileJob.from_circuit(small_circuit(), None, routing="none").run()
        assert result.routing == "none"
        assert result.coupling_map is None


class TestTranspileResultRoundTrip:
    def test_to_dict_from_dict(self):
        result = transpile(small_circuit(), linear_target(), routing="nassc", seed=1)
        clone = TranspileResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert clone.cx_count == result.cx_count
        assert clone.depth == result.depth
        assert clone.num_swaps == result.num_swaps
        assert clone.routing == result.routing
        assert clone.initial_layout == result.initial_layout
        assert clone.final_layout == result.final_layout
        assert clone.coupling_map.edges == result.coupling_map.edges
        assert clone.count_ops() == result.count_ops()
        assert clone.transpile_time == pytest.approx(result.transpile_time)

    def test_metrics_embedded_in_payload(self):
        result = transpile(small_circuit(), linear_target(), routing="sabre", seed=0)
        payload = result.to_dict()
        assert payload["metrics"]["cx_count"] == result.cx_count
        assert payload["metrics"]["depth"] == result.depth
