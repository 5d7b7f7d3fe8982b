"""Lowering routed circuits to timed schedules (ASAP and ALAP list scheduling).

The lowering stage runs after ``finalize``: at that point every gate in the DAG is a
basis gate on physical qubits, so each one maps directly to a calibration duration.
Both classic list-scheduling disciplines are provided:

* **ASAP** walks the DAG forward, starting every gate the moment all of its wires are
  free — the earliest-start schedule.
* **ALAP** walks the DAG backward, computing each gate's latest finish relative to the
  end of the circuit, then anchors the whole schedule so the last gate ends at the
  makespan — the latest-start schedule.

Because both are longest-path computations over the same integer-nanosecond durations,
they always produce the *same total duration*; they differ only in where slack (idle
time) accumulates, which is exactly what the decoherence-exposure analysis inspects.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..circuit.circuit import QuantumCircuit
from ..circuit.dag import DAGCircuit, DAGNode, wire_keys
from ..exceptions import ScheduleError
from ..hardware.calibration import DeviceCalibration
from .ir import Schedule, TimedInstruction
from .modes import normalize_schedule_mode


def instruction_duration_ns(
    calibration: DeviceCalibration, name: str, qubits: Tuple[int, ...]
) -> int:
    """Duration of one basis gate in whole nanoseconds (calibration stores seconds)."""
    return int(round(calibration.gate_duration(name, qubits) * 1e9))


def _check_device(dag: DAGCircuit, calibration: DeviceCalibration) -> None:
    calibration.validate_for(calibration.coupling_map)
    device_qubits = calibration.coupling_map.num_qubits
    if dag.num_qubits > device_qubits:
        raise ScheduleError(
            f"circuit uses {dag.num_qubits} qubits but the calibrated device "
            f"has only {device_qubits}"
        )


def _timed(node: DAGNode, start: int, duration: int) -> TimedInstruction:
    return TimedInstruction(
        name=node.name,
        qubits=node.qubits,
        start=start,
        duration=duration,
        params=tuple(node.gate.params),
        clbits=node.clbits,
    )


def schedule_dag(
    dag: DAGCircuit, calibration: DeviceCalibration, mode: str = "asap"
) -> Schedule:
    """Lower a physical-gate DAG to a :class:`Schedule` under the given discipline.

    The DAG's insertion order is a valid topological linearization (a transpiler
    invariant), so a single forward sweep implements ASAP and a single reverse sweep
    implements ALAP.  Instructions are emitted in insertion order for both modes, which
    keeps serialisation deterministic and mode-independent in everything but start
    times.
    """
    mode = normalize_schedule_mode(mode)
    _check_device(dag, calibration)
    nodes = dag.op_nodes()
    durations = [instruction_duration_ns(calibration, n.name, n.qubits) for n in nodes]

    if mode == "asap":
        ready: Dict[int, int] = {}
        starts: List[int] = []
        for node, duration in zip(nodes, durations):
            wires = wire_keys(node)
            start = max((ready.get(w, 0) for w in wires), default=0)
            starts.append(start)
            for w in wires:
                ready[w] = start + duration
    else:  # alap
        # Reverse pass: for each node, the longest chain of durations from its start
        # to the end of the circuit.  Anchoring at the makespan turns that offset into
        # a latest start time; the makespan equals the ASAP one because both are the
        # same longest path over the same integers.
        tail: Dict[int, int] = {}
        offsets: List[int] = [0] * len(nodes)
        for index in range(len(nodes) - 1, -1, -1):
            node, duration = nodes[index], durations[index]
            wires = wire_keys(node)
            offset = max((tail.get(w, 0) for w in wires), default=0) + duration
            offsets[index] = offset
            for w in wires:
                tail[w] = offset
        total = max(offsets, default=0)
        starts = [total - offset for offset in offsets]

    schedule = Schedule(
        num_qubits=dag.num_qubits,
        mode=mode,
        instructions=tuple(
            _timed(node, start, duration)
            for node, start, duration in zip(nodes, starts, durations)
        ),
    )
    schedule.validate()
    return schedule


def schedule_circuit(
    circuit: QuantumCircuit, calibration: DeviceCalibration, mode: str = "asap"
) -> Schedule:
    """Convenience wrapper: lower a :class:`QuantumCircuit` directly."""
    return schedule_dag(DAGCircuit.from_circuit(circuit), calibration, mode)
