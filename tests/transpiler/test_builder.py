"""Tests for the staged pipeline builder, optimization levels, and the routing registry."""

import json
import sys
import textwrap

import pytest

from repro import QuantumCircuit, Target, TranspileOptions, transpile
from repro.benchlib import adder_n10, grover_n4
from repro.circuit import qasm
from repro.exceptions import TranspilerError
from repro.hardware import linear_coupling_map, montreal_coupling_map
from repro.transpiler import PipelineBuilder
from repro.transpiler.registry import (
    PLUGINS_ENV,
    RoutingPlan,
    available_routings,
    get_routing,
    register_routing,
    registered_methods,
    routing_registered,
    unregister_routing,
)


def sabre_clone_factory(target, options):
    """A 'third-party' method that simply reuses the sabre plan (for plug-in tests)."""
    return get_routing("sabre").factory(target, options)


@pytest.fixture()
def custom_routing():
    name = "sabre_clone"
    register_routing(name, sabre_clone_factory, description="test clone of sabre")
    yield name
    unregister_routing(name)


class TestRegistry:
    def test_builtins_registered_at_import(self):
        assert set(available_routings()) >= {"none", "sabre", "nassc"}
        assert all(m.builtin for m in registered_methods() if m.name in ("none", "sabre", "nassc"))

    def test_unknown_method_rejected(self):
        with pytest.raises(TranspilerError, match="unknown routing method"):
            get_routing("definitely_not_registered")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(TranspilerError, match="already registered"):
            register_routing("sabre", sabre_clone_factory)

    def test_builtin_cannot_be_unregistered(self):
        with pytest.raises(TranspilerError, match="cannot be unregistered"):
            unregister_routing("sabre")

    def test_register_and_unregister(self, custom_routing):
        assert routing_registered(custom_routing)
        assert custom_routing in available_routings()

    def test_custom_method_matches_cloned_builtin(self, custom_routing):
        coupling = linear_coupling_map(5)
        target = Target(coupling_map=coupling)
        base = transpile(grover_n4(), target, TranspileOptions(routing="sabre", seed=0))
        clone = transpile(grover_n4(), target, TranspileOptions(routing=custom_routing, seed=0))
        assert qasm.dumps(clone.circuit) == qasm.dumps(base.circuit)

    def test_env_plugin_module_loaded_on_lookup(self, tmp_path, monkeypatch):
        """The third-party entry path: REPRO_ROUTING_PLUGINS names a module to import."""
        module = tmp_path / "repro_test_plugin_mod.py"
        module.write_text(textwrap.dedent("""
            from repro.transpiler.registry import get_routing, register_routing

            def factory(target, options):
                return get_routing("sabre").factory(target, options)

            register_routing("env_plugin_router", factory, description="from env plugin")
        """))
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.setenv(PLUGINS_ENV, "repro_test_plugin_mod")
        try:
            assert routing_registered("env_plugin_router")
            method = get_routing("env_plugin_router")
            assert not method.builtin
        finally:
            if routing_registered("env_plugin_router"):
                unregister_routing("env_plugin_router")
            sys.modules.pop("repro_test_plugin_mod", None)

    @pytest.mark.parametrize("requires_coupling", [False, True])
    def test_plan_must_agree_with_requires_coupling(self, requires_coupling):
        """A method returns a plan exactly when it requires a coupling map: the rule
        behind ``supports_best_of``, which decides whether ``best_of`` runs an ensemble."""
        factory = (lambda target, options: None) if requires_coupling else sabre_clone_factory
        register_routing("inconsistent", factory, requires_coupling=requires_coupling)
        try:
            with pytest.raises(TranspilerError, match="registered with requires_coupling"):
                PipelineBuilder(
                    Target(coupling_map=linear_coupling_map(5)),
                    TranspileOptions(routing="inconsistent", best_of=2),
                )
        finally:
            unregister_routing("inconsistent")


class TestBuilderStages:
    def test_stage_names_and_contents(self):
        builder = PipelineBuilder(
            Target(coupling_map=linear_coupling_map(5)), TranspileOptions(routing="nassc")
        )
        assert tuple(builder.stages) == PipelineBuilder.STAGES
        names = [item.name for item in builder.stage("routing")]
        assert names == ["NASSCRouting", "CommuteSingleQubitsThroughSwap"]
        assert [type(i).__name__ for i in builder.stage("layout")] == ["SabreLayoutSelection"]
        assert type(builder.stage("finalize")[0]).__name__ == "CheckMap"

    def test_override_stage(self):
        target = Target(coupling_map=linear_coupling_map(5))
        builder = PipelineBuilder(target, TranspileOptions(routing="sabre"))
        builder.override_stage("finalize", [])
        assert builder.stage("finalize") == []
        assert "CheckMap" not in [type(i).__name__ for i in builder.passes]
        with pytest.raises(TranspilerError, match="unknown stage"):
            builder.override_stage("not_a_stage", [])

    def test_routing_requires_coupling(self):
        with pytest.raises(TranspilerError, match="coupling map"):
            PipelineBuilder(Target(), TranspileOptions(routing="sabre"))

    def test_none_routing_skips_layout_and_check(self):
        builder = PipelineBuilder(Target(), TranspileOptions(routing="none"))
        assert builder.stage("layout") == [] and builder.stage("routing") == []
        assert builder.stage("finalize") == []

    def test_o3_noise_aware_only_with_calibration(self):
        plain = PipelineBuilder(
            Target(coupling_map=linear_coupling_map(5)), TranspileOptions(level="O3")
        )
        assert not plain.noise_aware
        calibrated = PipelineBuilder(
            Target.from_topology("linear", 5, calibrated=True), TranspileOptions(level="O3")
        )
        assert calibrated.noise_aware

    def test_noise_aware_without_calibration_rejected(self):
        with pytest.raises(TranspilerError, match="calibration"):
            PipelineBuilder(
                Target(coupling_map=linear_coupling_map(5)),
                TranspileOptions(noise_aware=True),
            )


class TestTranspileOptions:
    def test_frozen(self):
        options = TranspileOptions()
        with pytest.raises(Exception):
            options.routing = "nassc"

    def test_level_normalisation(self):
        assert TranspileOptions(level=2).level == "O2"
        assert TranspileOptions(level="o0").level == "O0"
        assert TranspileOptions(level="3").level == "O3"
        with pytest.raises(TranspilerError, match="unknown optimization level"):
            TranspileOptions(level="O9")

    def test_round_trip(self):
        from repro import NASSCConfig

        options = TranspileOptions(
            routing="nassc", level="O2", seed=7, nassc_config=NASSCConfig(True, False, True),
            noise_aware=False, extended_set_size=10, extended_set_weight=0.25,
        )
        clone = TranspileOptions.from_dict(json.loads(json.dumps(options.to_dict())))
        assert clone == options

    def test_replace(self):
        options = TranspileOptions(seed=1)
        other = options.replace(routing="nassc", level="O2")
        assert (other.routing, other.level, other.seed) == ("nassc", "O2", 1)
        assert options.routing == "sabre"  # original untouched


class TestOptimizationLevels:
    CASES = [grover_n4, adder_n10]

    @pytest.mark.parametrize("coupling_factory", [
        lambda: linear_coupling_map(25), montreal_coupling_map,
    ], ids=["linear", "montreal"])
    @pytest.mark.parametrize("case", CASES, ids=[c.__name__ for c in CASES])
    def test_o0_never_beats_o1(self, coupling_factory, case):
        """O0 (decompose+route only) must not produce fewer CNOTs than O1 (paper pipeline)."""
        target = Target(coupling_map=coupling_factory())
        circuit = case()
        o0 = transpile(circuit, target, TranspileOptions(routing="nassc", seed=0, level="O0"))
        o1 = transpile(circuit, target, TranspileOptions(routing="nassc", seed=0, level="O1"))
        assert o0.cx_count >= o1.cx_count
        assert o0.level == "O0" and o1.level == "O1"

    @pytest.mark.parametrize("coupling_factory", [
        lambda: linear_coupling_map(25), montreal_coupling_map,
    ], ids=["linear", "montreal"])
    @pytest.mark.parametrize("routing", ["sabre", "nassc"])
    def test_o1_bit_identical_to_legacy_pipeline(self, coupling_factory, routing):
        """The staged O1 pipeline reproduces the keyword-override call bit-for-bit."""
        target = Target(coupling_map=coupling_factory())
        circuit = grover_n4()
        staged = transpile(circuit, target, TranspileOptions(routing=routing, seed=0, level="O1"))
        by_keyword = transpile(circuit, target, routing=routing, seed=0)
        assert qasm.dumps(staged.circuit) == qasm.dumps(by_keyword.circuit)
        assert staged.num_swaps == by_keyword.num_swaps
        assert staged.final_layout == by_keyword.final_layout

    def test_o3_equals_explicit_noise_aware_o2(self):
        # best_of=1 pins O3 to a single trial: this test isolates the noise-aware
        # equivalence, not the ensemble default (covered in test_ensemble.py).
        target = Target.from_topology("montreal", calibrated=True)
        circuit = grover_n4()
        o3 = transpile(
            circuit, target,
            TranspileOptions(routing="nassc", seed=0, level="O3", best_of=1),
        )
        explicit = transpile(
            circuit, target,
            TranspileOptions(routing="nassc", seed=0, level="O2", noise_aware=True),
        )
        assert qasm.dumps(o3.circuit) == qasm.dumps(explicit.circuit)

    def test_o0_output_still_routed(self):
        from repro.transpiler.passes import coupling_violations

        coupling = linear_coupling_map(5)
        result = transpile(
            grover_n4(), Target(coupling_map=coupling),
            TranspileOptions(routing="sabre", seed=0, level="O0"),
        )
        assert not coupling_violations(result.circuit, coupling)


class TestNewTranspileSignature:
    def test_keyword_overrides_on_options(self):
        target = Target(coupling_map=linear_coupling_map(5))
        base = TranspileOptions(routing="sabre", seed=0)
        result = transpile(grover_n4(), target, base, routing="nassc")
        assert result.routing == "nassc"

    def test_device_kwargs_with_target_rejected(self):
        from repro.hardware import fake_montreal_calibration

        target = Target(coupling_map=linear_coupling_map(3))
        for keyword, value in (("calibration", fake_montreal_calibration()), ("final_basis", "u")):
            with pytest.raises(TypeError, match=keyword):
                transpile(QuantumCircuit(2), target, **{keyword: value})

    def test_bare_coupling_map_rejected(self):
        with pytest.raises(TranspilerError, match=r"Target\(coupling_map=\.\.\.\)"):
            transpile(QuantumCircuit(2), linear_coupling_map(3), routing="sabre", seed=0)

    def test_coupling_map_keyword_rejected(self):
        with pytest.raises(TypeError, match="coupling_map"):
            transpile(grover_n4(), coupling_map=linear_coupling_map(5), routing="sabre", seed=0)

    def test_compare_routings_rejects_bare_coupling_map(self):
        from repro import compare_routings

        with pytest.raises(TranspilerError, match=r"Target\(coupling_map=\.\.\.\)"):
            compare_routings(grover_n4(), linear_coupling_map(5), seed=0)
        with pytest.raises(TypeError, match="calibration"):
            compare_routings(grover_n4(), None, calibration=None)

    def test_compare_routings_kwargs_override_options(self):
        from repro import compare_routings

        target = Target(coupling_map=linear_coupling_map(5))
        merged = compare_routings(
            grover_n4(), target, seed=7, options=TranspileOptions(level="O2"),
        )
        direct = transpile(
            grover_n4(), target, TranspileOptions(routing="nassc", seed=7, level="O2")
        )
        assert qasm.dumps(merged["nassc"].circuit) == qasm.dumps(direct.circuit)

    def test_compare_routings_forwards_noise_options(self):
        from repro import compare_routings

        target = Target.from_topology("linear", 5, calibrated=True)
        results = compare_routings(grover_n4(), target, seed=0, noise_aware=True)
        for method in ("sabre", "nassc"):
            direct = transpile(
                grover_n4(), target,
                TranspileOptions(routing=method, seed=0, noise_aware=True),
            )
            assert qasm.dumps(results[method].circuit) == qasm.dumps(direct.circuit)

    def test_import_repro_with_plugin_env_set_does_not_load_plugins(self, tmp_path):
        """`import repro` must not import REPRO_ROUTING_PLUGINS modules (they typically
        import repro back, which would deadlock on partial initialisation)."""
        import os
        import subprocess
        import sys as _sys

        module = tmp_path / "repro_selfimporting_plugin.py"
        module.write_text(textwrap.dedent("""
            from repro import Target  # imports repro back while it may be initialising
            from repro.transpiler.registry import get_routing, register_routing

            def factory(target, options):
                return get_routing("sabre").factory(target, options)

            register_routing("selfimporting", factory)
        """))
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([os.path.abspath(src), str(tmp_path)])
        env[PLUGINS_ENV] = "repro_selfimporting_plugin"
        script = (
            "import repro\n"
            "from repro.transpiler.registry import routing_registered\n"
            "assert routing_registered('selfimporting')\n"
            "print('ok')\n"
        )
        proc = subprocess.run(
            [_sys.executable, "-c", script], capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"
