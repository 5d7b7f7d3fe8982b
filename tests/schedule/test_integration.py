"""Schedule wiring across options, pipeline builder, results, and the service layer."""

import pytest

from repro import QuantumCircuit, Target, TranspileOptions, transpile
from repro.circuit import qasm
from repro.core.options import ROUTE_COSTS
from repro.core.pipeline import TranspileResult
from repro.exceptions import TranspilerError
from repro.schedule import Schedule
from repro.service.jobs import TranspileJob
from repro.transpiler.builder import PipelineBuilder, STAGES


def bell_pair(extra_depth=3):
    qc = QuantumCircuit(4, 4)
    qc.h(0)
    qc.cx(0, 1)
    for _ in range(extra_depth):
        qc.cx(1, 2)
        qc.cx(2, 3)
        qc.h(3)
    qc.measure(0, 0)
    qc.measure(3, 3)
    return qc


class TestOptions:
    def test_defaults(self):
        options = TranspileOptions()
        assert options.schedule is None
        assert options.route_cost == "hops"
        assert "hops" in ROUTE_COSTS and "ns" in ROUTE_COSTS

    def test_mode_is_normalised(self):
        assert TranspileOptions(schedule="ASAP ").schedule == "asap"
        assert TranspileOptions(schedule="Alap").schedule == "alap"

    def test_unknown_mode_rejected(self):
        with pytest.raises(TranspilerError, match="schedule mode"):
            TranspileOptions(schedule="eager")

    def test_unknown_route_cost_rejected(self):
        with pytest.raises(TranspilerError, match="route_cost"):
            TranspileOptions(route_cost="minutes")

    def test_ns_and_noise_aware_mutually_exclusive(self):
        with pytest.raises(TranspilerError, match="mutually exclusive"):
            TranspileOptions(route_cost="ns", noise_aware=True)

    def test_content_dict_and_fingerprint_track_new_knobs(self):
        base = TranspileOptions()
        scheduled = TranspileOptions(schedule="asap")
        timed = TranspileOptions(route_cost="ns")
        assert base.content_dict()["schedule"] is None
        assert scheduled.content_dict()["schedule"] == "asap"
        assert timed.content_dict()["route_cost"] == "ns"
        dicts = [o.content_dict() for o in (base, scheduled, timed)]
        assert dicts[0] != dicts[1] and dicts[0] != dicts[2] and dicts[1] != dicts[2]

    def test_dict_round_trip(self):
        options = TranspileOptions(schedule="alap", route_cost="ns", level="O2")
        rebuilt = TranspileOptions.from_dict(options.to_dict())
        assert rebuilt.schedule == "alap"
        assert rebuilt.route_cost == "ns"
        assert rebuilt.content_dict() == options.content_dict()


class TestBuilder:
    def test_schedule_is_a_named_stage(self):
        assert STAGES[-1] == "schedule"

    def test_stage_empty_by_default(self):
        target = Target.from_topology("linear", 4)
        builder = PipelineBuilder(target, TranspileOptions())
        pm = builder.build()
        assert builder.stages["schedule"] == []
        result = pm.run(bell_pair())
        assert result is not None

    def test_stage_populated_when_requested(self):
        target = Target.from_topology("linear", 4, calibrated=True)
        builder = PipelineBuilder(target, TranspileOptions(schedule="alap"))
        builder.build()
        names = [type(p).__name__ for p in builder.stages["schedule"]]
        assert names == ["ScheduleAnalysis"]

    def test_schedule_requires_calibration(self):
        target = Target.from_topology("linear", 4)
        with pytest.raises(TranspilerError, match="calibration"):
            PipelineBuilder(target, TranspileOptions(schedule="asap")).build()

    def test_ns_cost_requires_calibration(self):
        target = Target.from_topology("linear", 4)
        with pytest.raises(TranspilerError, match="calibration"):
            PipelineBuilder(target, TranspileOptions(route_cost="ns")).build()


class TestTranspileResult:
    def test_schedule_attached_and_round_tripped(self):
        target = Target.from_topology("linear", 5, calibrated=True)
        result = transpile(bell_pair(), target, routing="sabre", seed=7, schedule="asap")
        assert isinstance(result.schedule, Schedule)
        assert result.schedule.mode == "asap"
        assert result.schedule.duration > 0
        rebuilt = TranspileResult.from_dict(result.to_dict())
        assert rebuilt.schedule is not None
        assert rebuilt.schedule.fingerprint() == result.schedule.fingerprint()

    def test_default_path_has_no_schedule(self):
        target = Target.from_topology("linear", 5, calibrated=True)
        result = transpile(bell_pair(), target, routing="sabre", seed=7)
        assert result.schedule is None
        assert "schedule" not in result.to_dict()

    def test_schedule_does_not_perturb_compiled_circuit(self):
        target = Target.from_topology("linear", 5, calibrated=True)
        plain = transpile(bell_pair(), target, routing="sabre", seed=7)
        timed = transpile(bell_pair(), target, routing="sabre", seed=7, schedule="alap")
        assert qasm.dumps(plain.circuit) == qasm.dumps(timed.circuit)

    def test_ns_routing_produces_executable_circuit(self):
        target = Target.from_topology("montreal", 27, calibrated=True)
        result = transpile(
            bell_pair(), target, routing="sabre", seed=7, route_cost="ns", schedule="asap"
        )
        result.schedule.validate()
        assert result.circuit.num_qubits == 27


class TestServiceLayer:
    def test_job_round_trip_carries_schedule_knobs(self):
        target = Target.from_topology("linear", 5, calibrated=True)
        job = TranspileJob.from_circuit(
            bell_pair(), target, routing="sabre", seed=3,
            schedule="alap", route_cost="ns", name="timed",
        )
        rebuilt = TranspileJob.from_dict(job.to_dict())
        assert rebuilt.options().schedule == "alap"
        assert rebuilt.options().route_cost == "ns"
        assert rebuilt.fingerprint() == job.fingerprint()

    def test_fingerprint_sensitive_to_schedule(self):
        target = Target.from_topology("linear", 5, calibrated=True)
        plain = TranspileJob.from_circuit(bell_pair(), target, routing="sabre", seed=3)
        timed = TranspileJob.from_circuit(
            bell_pair(), target, routing="sabre", seed=3, schedule="asap"
        )
        assert plain.fingerprint() != timed.fingerprint()

    def test_job_run_returns_schedule(self):
        target = Target.from_topology("linear", 5, calibrated=True)
        job = TranspileJob.from_circuit(
            bell_pair(), target, routing="sabre", seed=3, schedule="asap"
        )
        result = job.run()
        assert result.schedule is not None and result.schedule.mode == "asap"
