"""Unit tests for the timed-schedule IR (TimedInstruction, Schedule)."""

import json
import math
import re

import pytest

from repro.exceptions import ScheduleError
from repro.schedule import IdleWindow, Schedule, TimedInstruction


def make_schedule(mode="asap"):
    return Schedule(
        num_qubits=3,
        mode=mode,
        instructions=(
            TimedInstruction("h", (0,), 0, 35),
            TimedInstruction("cx", (0, 1), 35, 300),
            TimedInstruction("x", (2,), 0, 35),
            TimedInstruction("cx", (1, 2), 335, 250),
            TimedInstruction("measure", (1,), 585, 3000, clbits=(0,)),
        ),
    )


class TestTimedInstruction:
    def test_end_and_coercion(self):
        inst = TimedInstruction("cx", [0, 1], 10.0, 20.0)
        assert inst.end == 30
        assert inst.qubits == (0, 1)
        assert isinstance(inst.start, int) and isinstance(inst.duration, int)

    def test_list_round_trip(self):
        inst = TimedInstruction("u", (2,), 5, 35, params=(0.1, 0.2, 0.3), clbits=(1,))
        assert TimedInstruction.from_list(inst.to_list()) == inst

    def test_negative_start_rejected(self):
        with pytest.raises(ScheduleError):
            TimedInstruction("h", (0,), -1, 35)

    def test_negative_duration_rejected(self):
        with pytest.raises(ScheduleError):
            TimedInstruction("h", (0,), 0, -5)

    def test_from_list_converts_like_the_constructor(self):
        raw = ["cx", [0.0, "1"], 10.0, "20", [1, "0.5", -0.0], [True]]
        built = TimedInstruction(raw[0], raw[1], raw[2], raw[3], params=raw[4], clbits=raw[5])
        decoded = TimedInstruction.from_list(raw)
        assert vars(decoded) == vars(built)
        fields = (decoded.start, decoded.duration, *decoded.qubits, *decoded.params,
                  *decoded.clbits)
        assert [type(v) for v in fields] == [int, int, int, int, float, float, float, int]
        assert float.hex(decoded.params[2]) == float.hex(-0.0)

    @pytest.mark.parametrize("qubits,clbits", [((-1,), ()), ((0,), (-1,))])
    def test_negative_wire_index_rejected(self, qubits, clbits):
        # A negative index would share a wire key with another wire.
        message = "^instruction 'measure' has a negative wire index$"
        with pytest.raises(ScheduleError, match=message):
            TimedInstruction("measure", qubits, 0, 100, clbits=clbits)
        with pytest.raises(ScheduleError, match=message):
            TimedInstruction.from_list(["measure", list(qubits), 0, 100, [], list(clbits)])

    @pytest.mark.parametrize(
        "start,duration,message",
        [
            (-1, 35, "instruction 'h' starts before t=0: -1"),
            (-1.5, -5, "instruction 'h' starts before t=0: -1"),
            (0, -5, "instruction 'h' has negative duration"),
        ],
    )
    def test_negative_times_raise_the_same_error_on_every_path(self, start, duration, message):
        exact = f"^{re.escape(message)}$"
        with pytest.raises(ScheduleError, match=exact):
            TimedInstruction("h", (0,), start, duration)
        with pytest.raises(ScheduleError, match=exact):
            TimedInstruction.from_list(["h", [0], start, duration, [], []])
        data = {"num_qubits": 1, "mode": "asap",
                "instructions": [["h", [0], start, duration, [], []]]}
        with pytest.raises(ScheduleError, match=exact):
            Schedule.from_dict(data)


class TestSchedule:
    def test_duration_is_makespan(self):
        sched = make_schedule()
        assert sched.duration == 3585
        assert sched.duration_ns == sched.duration
        assert Schedule(num_qubits=2, mode="asap").duration == 0

    def test_qubit_timelines_ordered(self):
        sched = make_schedule()
        names = [inst.name for inst in sched.qubit_timeline(1)]
        assert names == ["cx", "cx", "measure"]
        starts = [inst.start for inst in sched.qubit_timeline(1)]
        assert starts == sorted(starts)

    def test_timeline_out_of_range(self):
        with pytest.raises(ScheduleError):
            make_schedule().qubit_timeline(99)

    def test_qubit_outside_schedule_rejected(self):
        sched = Schedule(
            num_qubits=1, mode="asap",
            instructions=(TimedInstruction("cx", (0, 5), 0, 100),),
        )
        with pytest.raises(ScheduleError):
            sched.qubit_timelines()

    def test_critical_path_sums_to_duration(self):
        sched = make_schedule()
        chain = sched.critical_path()
        assert sum(inst.duration for inst in chain) == sched.duration
        # The chain follows wire dependencies: h -> cx(0,1) -> cx(1,2) -> measure.
        assert [inst.name for inst in chain] == ["h", "cx", "cx", "measure"]

    def test_idle_windows_exclude_leading_and_trailing(self):
        sched = make_schedule()
        windows = sched.idle_windows()
        # Only q2 has an interior gap: x ends at 35, cx(1,2) starts at 335.
        assert windows == (IdleWindow(2, 35, 300 + 35),)
        assert sched.total_idle == 300

    def test_validate_accepts_consistent(self):
        make_schedule().validate()

    def test_validate_rejects_overlap(self):
        sched = Schedule(
            num_qubits=1, mode="asap",
            instructions=(
                TimedInstruction("x", (0,), 0, 100),
                TimedInstruction("y", (0,), 50, 100),
            ),
        )
        with pytest.raises(ScheduleError, match="overlaps"):
            sched.validate()

    def test_dict_round_trip_bit_identical(self):
        sched = make_schedule()
        data = json.loads(json.dumps(sched.to_dict()))
        rebuilt = Schedule.from_dict(data)
        assert rebuilt.to_dict() == sched.to_dict()
        assert rebuilt.fingerprint() == sched.fingerprint()

    def test_dict_round_trip_keeps_every_parameter_bit(self):
        sched = Schedule(
            num_qubits=2,
            mode="alap",
            instructions=(
                TimedInstruction("u", (1,), 0, 35, params=(-0.0, 5e-324, 1e300)),
                TimedInstruction("rz", (0,), 0, 0, params=(-1e-300,)),
                TimedInstruction("rzz", (0, 1), 35, 300, params=(math.pi,)),
                TimedInstruction("measure", (1,), 335, 3000, clbits=(0,)),
            ),
        )
        rebuilt = Schedule.from_dict(json.loads(json.dumps(sched.to_dict())))
        assert rebuilt == sched
        assert [vars(inst) for inst in rebuilt.instructions] == [
            vars(inst) for inst in sched.instructions
        ]
        assert [tuple(map(float.hex, inst.params)) for inst in rebuilt.instructions] == [
            tuple(map(float.hex, inst.params)) for inst in sched.instructions
        ]
        assert rebuilt.fingerprint() == sched.fingerprint()

    def test_fingerprint_sensitive_to_content(self):
        base = make_schedule()
        other = make_schedule(mode="alap")
        assert base.fingerprint() != other.fingerprint()

    def test_len(self):
        assert len(make_schedule()) == 5
